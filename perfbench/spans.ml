(* In-memory span recorder for the traced run.

   A span covers one call into a layer's public function. Spans nest by
   a stack: the innermost open span is the parent of the next one.
   Every operation opens one root span; [op] numbers them. Clock and
   allocation samples are integers (monotonic nanoseconds, minor-heap
   words), so self times telescope exactly: the self times of an
   operation's spans sum to its root span's duration with no rounding.

   Recording is off unless [enabled] is set; a disabled [span] is one
   branch around the call. *)

type span = {
  id : int;
  name : string;
  layer : string;
  op : int;  (** operation id: the id of the root span *)
  parent : int;  (** -1 for a root span *)
  start_ns : int;
  mutable stop_ns : int;
  start_words : int;
  mutable stop_words : int;
}

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let minor_words () = int_of_float (Gc.minor_words ())
let enabled = ref false
let recorded : span list ref = ref []
let stack : span list ref = ref []
let next_id = ref 0

let clear () =
  recorded := [];
  stack := [];
  next_id := 0

let span ~layer name f =
  if not !enabled then f ()
  else begin
    let parent, op =
      match !stack with p :: _ -> (p.id, p.op) | [] -> (-1, !next_id)
    in
    let s =
      {
        id = !next_id;
        name;
        layer;
        op;
        parent;
        start_ns = now_ns ();
        stop_ns = 0;
        start_words = minor_words ();
        stop_words = 0;
      }
    in
    incr next_id;
    stack := s :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.stop_words <- minor_words ();
        s.stop_ns <- now_ns ();
        stack := List.tl !stack;
        recorded := s :: !recorded)
      f
  end

let duration s = s.stop_ns - s.start_ns
let words s = s.stop_words - s.start_words

(* All recorded spans, oldest first, with each span's self time and self
   allocation: its own figure minus what its direct children cover. *)
type self = { s : span; self_ns : int; self_words : int }

let selves () =
  let spans = List.rev !recorded in
  let child_ns = Hashtbl.create 1024 and child_words = Hashtbl.create 1024 in
  let add tbl k v =
    Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k))
  in
  List.iter
    (fun s ->
      if s.parent >= 0 then begin
        add child_ns s.parent (duration s);
        add child_words s.parent (words s)
      end)
    spans;
  List.map
    (fun s ->
      let get tbl = Option.value ~default:0 (Hashtbl.find_opt tbl s.id) in
      {
        s;
        self_ns = duration s - get child_ns;
        self_words = words s - get child_words;
      })
    spans

(* The accounting identity: for every operation, the self times of its
   spans sum to the root span's duration. Returns the operations that
   break it, as (root name, root duration, sum of self times). *)
let accounting_violations selves =
  let sums = Hashtbl.create 256 in
  List.iter
    (fun x ->
      Hashtbl.replace sums x.s.op
        (x.self_ns + Option.value ~default:0 (Hashtbl.find_opt sums x.s.op)))
    selves;
  List.filter_map
    (fun x ->
      if x.s.parent >= 0 then None
      else
        let sum = Hashtbl.find sums x.s.op in
        if sum = duration x.s then None else Some (x.s.name, duration x.s, sum))
    selves

let write_jsonl path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"layer\":%S,\"op\":%d,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d,\"minor_words\":%d}\n"
        s.id s.name s.layer s.op s.parent s.start_ns s.stop_ns (words s))
    (List.rev !recorded);
  close_out oc
