(** Fixpoint iteration helpers for dataflow-style computations. *)

(** Raised when a fixpoint computation exceeds its guard: [analysis]
    names the computation, [steps] counts the rounds ({!iterate}) or
    block visits ({!Worklist.drain}) executed before giving up. A guard
    against non-monotone or buggy transfer functions. *)
exception Did_not_converge of { analysis : string; steps : int }

let () =
  Printexc.register_printer (function
    | Did_not_converge { analysis; steps } ->
        Some (Printf.sprintf "%s: did not converge after %d steps" analysis steps)
    | _ -> None)

(** [iterate ~analysis ~max_rounds step] calls [step ()] until it
    returns [false] (no change), or raises {!Did_not_converge} after
    [max_rounds] rounds. Returns the number of rounds executed. *)
let iterate ~analysis ?(max_rounds = 1_000_000) step =
  let rec go rounds =
    if rounds >= max_rounds then
      raise (Did_not_converge { analysis; steps = rounds });
    if step () then go (rounds + 1) else rounds + 1
  in
  go 0

(** A worklist over the dense elements [0 .. n-1] with set semantics: an
    element is present at most once, and [pop] returns the element with
    the smallest key (ties broken by the smaller element). Adding an
    element that is already present keeps its existing key. *)
module Worklist = struct
  type t = { heap : (int * int) Heap.t; queued : bool array }

  let create n =
    let cmp (k1, x1) (k2, x2) =
      if k1 <> k2 then Int.compare k1 k2 else Int.compare x1 x2
    in
    { heap = Heap.create ~cmp; queued = Array.make n false }

  let add t ~key x =
    if not t.queued.(x) then begin
      t.queued.(x) <- true;
      Heap.push t.heap (key, x)
    end

  (** The smallest-key element with its key. *)
  let pop t =
    match Heap.pop t.heap with
    | None -> None
    | Some (_, x) as top ->
        t.queued.(x) <- false;
        top

  let is_empty t = Heap.is_empty t.heap

  (** Keys for forward dataflow over a block layout of [width]
      positions. A block at position [p] is queued at key [p] in sweep
      0; while visiting the block popped at [key], a successor at
      position [pos] is queued later in the same sweep when it lies
      after the current block, and in the next sweep otherwise. Popping
      smallest keys first therefore visits blocks in exactly the order
      of repeated layout sweeps, skipping the blocks whose inputs did
      not change. *)
  let sweep_key ~width ~key pos =
    let cur = key mod width in
    key - cur + pos + if pos > cur then 0 else width

  (** [drain t ~analysis ~max_visits f] pops until empty, calling
      [f ~key x] on each element. Raises {!Did_not_converge} when more
      than [max_visits] elements would be visited. Returns the number of
      visits. *)
  let drain t ~analysis ~max_visits f =
    let rec go visits =
      match pop t with
      | None -> visits
      | Some (key, x) ->
          if visits >= max_visits then
            raise (Did_not_converge { analysis; steps = visits });
          f ~key x;
          go (visits + 1)
    in
    go 0
end
