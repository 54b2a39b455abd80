open Gis_util
open Gis_ir
open Gis_ddg

(* List-schedule the nodes of a single-block DDG. Returns the emission
   order (node indices) and each node's issue cycle. [block] names the
   block in a {!Sched_error.No_progress}. *)
let run ~block machine rules ddg =
  let n = Ddg.num_nodes ddg in
  let heur = Heuristics.compute ddg in
  let pending = Array.make n 0 in
  let ready_at = Array.make n 0 in
  let issue = Array.make n (-1) in
  for i = 0 to n - 1 do
    pending.(i) <- List.length (Ddg.preds ddg i)
  done;
  let emission = Vec.create () in
  let scheduled = ref 0 in
  let term = n - 1 in
  let cycle = ref 0 in
  let unit_of i =
    match (Ddg.node ddg i).Ddg.instr with
    | Some ins -> Instr.unit_ty ins
    | None -> Instr.Fixed
  in
  while !scheduled < n do
    if !cycle > 100_000 then
      raise
        (Sched_error.No_progress
           { pass = Sched_error.Local; block; cycle = !cycle });
    let slots = Hashtbl.create 3 in
    let slots_left u =
      match Hashtbl.find_opt slots u with
      | Some k -> k
      | None -> Gis_machine.Machine.units machine u
    in
    let take_slot u = Hashtbl.replace slots u (slots_left u - 1) in
    let continue_cycle = ref true in
    while !continue_cycle do
      let ready =
        List.filter
          (fun i ->
            issue.(i) = -1 && pending.(i) = 0 && ready_at.(i) <= !cycle
            && slots_left (unit_of i) > 0
            && (i <> term || !scheduled = n - 1))
          (List.init n Fun.id)
      in
      let items =
        List.map
          (fun i ->
            {
              Priority.node = i;
              useful = true;
              d = Heuristics.d heur i;
              cp = Heuristics.cp heur i;
              order = i;
              pressure = 0;
            })
          ready
      in
      match Priority.best ~rules items with
      | None -> continue_cycle := false
      | Some it ->
          let i = it.Priority.node in
          issue.(i) <- !cycle;
          take_slot (unit_of i);
          Vec.push emission i;
          incr scheduled;
          List.iter
            (fun (e : Ddg.edge) ->
              pending.(e.Ddg.dst) <- pending.(e.Ddg.dst) - 1;
              let avail =
                match e.Ddg.kind with
                | Ddg.Flow -> !cycle + Ddg.exec_time ddg i + e.Ddg.delay
                | Ddg.Anti | Ddg.Output | Ddg.Mem -> !cycle + e.Ddg.delay
              in
              ready_at.(e.Ddg.dst) <- max ready_at.(e.Ddg.dst) avail)
            (Ddg.succs ddg i)
    done;
    incr cycle
  done;
  (Vec.to_list emission, issue)

let schedule_block ?(rules = Priority_rule.paper_order) ?prov ?sym machine
    (b : Block.t) =
  let ddg = Ddg.build_single_block ?sym machine b in
  let order, issue = run ~block:b.Block.label machine rules ddg in
  let n = Ddg.num_nodes ddg in
  let instr_of i =
    match (Ddg.node ddg i).Ddg.instr with
    | Some ins -> ins
    | None -> assert false
  in
  (* Decision-time ranks for instructions the global pass never moved:
     fills a record's empty scores, never overwrites a motion's. *)
  (match prov with
  | None -> ()
  | Some _ ->
      let heur = Heuristics.compute ddg in
      List.iter
        (fun i ->
          Gis_obs.Provenance.scored prov ~uid:(Instr.uid (instr_of i))
            ~scores:
              {
                Gis_obs.Provenance.d = Heuristics.d heur i;
                cp = Heuristics.cp heur i;
                order = i;
                pressure = 0;
              })
        order);
  let body_order = List.filter (fun i -> i <> n - 1) order in
  Vec.clear b.Block.body;
  List.iter (fun i -> Vec.push b.Block.body (instr_of i)) body_order;
  issue.(n - 1) + 1

let schedule_cfg ?(rules = Priority_rule.paper_order) ?(obs = Gis_obs.Sink.null)
    ?prov ?(disambig = true) machine cfg =
  (* One whole-procedure address analysis serves every block: the facts
     are per-access and reordering within a block cannot change them. *)
  let sym =
    if disambig then Some (Gis_analysis.Symaddr.compute cfg) else None
  in
  Cfg.iter_blocks
    (fun b ->
      let cycles = schedule_block ~rules ?prov ?sym machine b in
      obs.Gis_obs.Sink.emit
        (Gis_obs.Sink.Block_scheduled { block = b.Block.label; cycles }))
    cfg

let block_schedule_length machine (b : Block.t) =
  let ddg = Ddg.build_single_block machine b in
  let _, issue = run ~block:b.Block.label machine Priority_rule.paper_order ddg in
  issue.(Ddg.num_nodes ddg - 1) + 1
