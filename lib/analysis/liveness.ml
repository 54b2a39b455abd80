open Gis_util
open Gis_ir

(* Registers are interned to dense indices so the dataflow runs on
   bit-vectors. [Reg.hash] is injective, so it serves as a register key.
   The index only grows: a register that disappears from the code keeps
   its slot, which no block then uses or defines. *)
type t = {
  index : (int, int) Hashtbl.t;  (* Reg.hash -> dense index *)
  regs : Reg.t Vec.t;  (* dense index -> register *)
  mutable capacity : int;  (* registers the vectors below can hold *)
  (* Per block, indexed by block id: *)
  mutable use : Bitv.t array;  (* read before any definition in the block *)
  mutable def : Bitv.t array;  (* defined in the block *)
  mutable succs : int list array;  (* successors, read off the terminator *)
  mutable live_in : Bitv.t array;
  mutable live_out : Bitv.t array;
  mutable in_sets : Reg.Set.t option array;  (* [live_in], on demand *)
  mutable out_sets : Reg.Set.t option array;  (* [live_out], on demand *)
}

let iter_instrs f b =
  Vec.iter f b.Block.body;
  f b.Block.term

let intern t r =
  let k = Reg.hash r in
  match Hashtbl.find_opt t.index k with
  | Some x -> x
  | None ->
      let x = Vec.length t.regs in
      Vec.push t.regs r;
      Hashtbl.add t.index k x;
      x

let intern_block t b =
  iter_instrs
    (fun i ->
      List.iter (fun r -> ignore (intern t r)) (Instr.uses i);
      List.iter (fun r -> ignore (intern t r)) (Instr.defs i))
    b

(* Widen every vector once renaming has interned registers past their
   width. *)
let fit t =
  let n = Vec.length t.regs in
  if n > t.capacity then begin
    t.capacity <- n;
    let widen vs = Array.iteri (fun id v -> vs.(id) <- Bitv.widen v n) vs in
    widen t.use;
    widen t.def;
    widen t.live_in;
    widen t.live_out
  end

let summarize t cfg id =
  let use = t.use.(id) and def = t.def.(id) in
  Bitv.clear use;
  Bitv.clear def;
  iter_instrs
    (fun i ->
      List.iter
        (fun r ->
          let x = intern t r in
          if not (Bitv.mem def x) then Bitv.add use x)
        (Instr.uses i);
      List.iter (fun r -> Bitv.add def (intern t r)) (Instr.defs i))
    (Cfg.block cfg id);
  t.succs.(id) <- List.map fst (Cfg.successors cfg id)

(* Backward dataflow over the layout, from empty sets, in sweeps of
   reverse layout order. The equations are monotone, so any visit order
   reaches the same least fixpoint. A sweep visits only the blocks
   queued for it: every laid-out block in the first sweep, afterwards
   the predecessors of blocks whose in set changed — in the current
   sweep when they come later in it, else in the next. Blocks outside
   the layout keep empty sets. *)
let solve t cfg =
  let n = Array.length t.use in
  Array.iter Bitv.clear t.live_in;
  Array.iter Bitv.clear t.live_out;
  Array.fill t.in_sets 0 n None;
  Array.fill t.out_sets 0 n None;
  let order = Array.of_list (List.rev (Cfg.layout cfg)) in
  let pos = Array.make n (-1) in
  Array.iteri (fun p id -> pos.(id) <- p) order;
  let preds = Array.make n [] in
  Array.iter
    (fun id -> List.iter (fun s -> preds.(s) <- id :: preds.(s)) t.succs.(id))
    order;
  let queued = Array.make n false in
  Array.iter (fun id -> queued.(id) <- true) order;
  let again = ref false in
  let rec requeue p = function
    | [] -> ()
    | q :: qs ->
        if not queued.(q) then begin
          queued.(q) <- true;
          if pos.(q) <= p then again := true
        end;
        requeue p qs
  in
  let sweep () =
    again := false;
    Array.iteri
      (fun p id ->
        if queued.(id) then begin
          queued.(id) <- false;
          let out = t.live_out.(id) in
          Bitv.clear out;
          List.iter
            (fun s -> Bitv.union_into ~dst:out t.live_in.(s))
            t.succs.(id);
          if
            Bitv.flow_into ~dst:t.live_in.(id) ~gen:t.use.(id) ~kill:t.def.(id)
              out
          then requeue p preds.(id)
        end)
      order;
    !again
  in
  ignore (Fix.iterate ~analysis:"Liveness.compute" sweep)

(* Room for blocks appended to the CFG since the last refresh. *)
let add_blocks t n =
  let n0 = Array.length t.use in
  let grow vs =
    Array.init n (fun id -> if id < n0 then vs.(id) else Bitv.create t.capacity)
  in
  t.use <- grow t.use;
  t.def <- grow t.def;
  t.succs <- Array.init n (fun id -> if id < n0 then t.succs.(id) else []);
  t.live_in <- grow t.live_in;
  t.live_out <- grow t.live_out;
  t.in_sets <- Array.make n None;
  t.out_sets <- Array.make n None

let refresh t cfg ids =
  let n0 = Array.length t.use and n = Cfg.num_blocks cfg in
  if n < n0 then invalid_arg "Liveness.refresh: the CFG lost blocks";
  let ids = List.rev_append (List.init (n - n0) (fun k -> n0 + k)) ids in
  if n > n0 then add_blocks t n;
  List.iter (fun id -> intern_block t (Cfg.block cfg id)) ids;
  fit t;
  List.iter (summarize t cfg) ids;
  solve t cfg

let compute cfg =
  let t =
    {
      index = Hashtbl.create 64;
      regs = Vec.create ();
      capacity = 0;
      use = [||];
      def = [||];
      succs = [||];
      live_in = [||];
      live_out = [||];
      in_sets = [||];
      out_sets = [||];
    }
  in
  refresh t cfg [];
  t

let materialize t cache vs id =
  match cache.(id) with
  | Some s -> s
  | None ->
      let s = ref Reg.Set.empty in
      Bitv.iter (fun x -> s := Reg.Set.add (Vec.get t.regs x) !s) vs.(id);
      cache.(id) <- Some !s;
      !s

let live_in t id = materialize t t.in_sets t.live_in id
let live_out t id = materialize t t.out_sets t.live_out id

let live_before_terminator t cfg id =
  let b = Cfg.block cfg id in
  List.fold_left
    (fun acc r -> Reg.Set.add r acc)
    (live_out t id)
    (Instr.uses b.Block.term)

let pp ppf t =
  Fmt.pf ppf "@[<v>";
  for id = 0 to Array.length t.live_out - 1 do
    Fmt.pf ppf "block %d: out={%a}@," id
      Fmt.(list ~sep:comma Reg.pp)
      (Reg.Set.elements (live_out t id))
  done;
  Fmt.pf ppf "@]"
