(* All-pairs dependence reconstruction: the checker's original
   [Deps.reconstruct], kept as the oracle for the indexed one. It visits
   every instruction pair of every forward-reachable block pair and
   recomputes each access's reaching base sites and address delta per
   pair, so it is quadratic in the procedure; the tests compare its list
   (order included) with [Gis_check.Deps.reconstruct]. *)

open Gis_util
open Gis_ir
open Gis_analysis
open Gis_ddg
open Gis_check
open Deps

type summary = {
  s_instr : Instr.t;
  s_defs : Reg.t list;
  s_uses : Reg.t list;
  s_mem : Alias.access option;
}

let summarize_block (b : Block.t) =
  let versions = Hashtbl.create 8 in
  let version_of (r : Reg.t) =
    Option.value ~default:(-1) (Hashtbl.find_opt versions (Reg.hash r))
  in
  List.map
    (fun i ->
      let s =
        {
          s_instr = i;
          s_defs = Instr.defs i;
          s_uses = Instr.uses i;
          s_mem = Alias.access_of_instr ~version_of i;
        }
      in
      List.iter
        (fun r -> Hashtbl.replace versions (Reg.hash r) (Instr.uid i))
        s.s_defs;
      s)
    (Block.instrs b)

let intra_deps ~mem_conflict summaries add =
  let last_def = Hashtbl.create 8 in
  let uses_since = Hashtbl.create 8 in
  let mem_before = ref [] in
  List.iter
    (fun s ->
      let u = Instr.uid s.s_instr in
      List.iter
        (fun r ->
          match Hashtbl.find_opt last_def (Reg.hash r) with
          | Some d -> add d u Flow (Some r)
          | None -> ())
        s.s_uses;
      List.iter
        (fun r ->
          (match Hashtbl.find_opt last_def (Reg.hash r) with
          | Some d -> add d u Output (Some r)
          | None -> ());
          List.iter
            (fun x -> add x u Anti (Some r))
            (Option.value ~default:[]
               (Hashtbl.find_opt uses_since (Reg.hash r))))
        s.s_defs;
      (match s.s_mem with
      | Some a ->
          List.iter
            (fun (m, am) -> if mem_conflict (m, am) (u, a) then add m u Mem None)
            !mem_before;
          mem_before := (u, a) :: !mem_before
      | None -> ());
      List.iter
        (fun r ->
          Hashtbl.replace last_def (Reg.hash r) u;
          Hashtbl.replace uses_since (Reg.hash r) [])
        s.s_defs;
      List.iter
        (fun r ->
          let cur =
            Option.value ~default:[] (Hashtbl.find_opt uses_since (Reg.hash r))
          in
          Hashtbl.replace uses_since (Reg.hash r) (u :: cur))
        s.s_uses)
    summaries

let interblock_mem_conflict ~base_sites (ua, a) (ub, b) =
  match a, b with
  | Alias.Load_ref _, Alias.Load_ref _ -> false
  | Alias.Call_ref, _ | _, Alias.Call_ref -> true
  | ( (Alias.Load_ref x | Alias.Store_ref x),
      (Alias.Load_ref y | Alias.Store_ref y) ) -> (
      if not (Reg.equal x.Alias.base y.Alias.base) then true
      else
        match base_sites ua x, base_sites ub y with
        | Some [ sa ], Some [ sb ] when Reaching.equal_site sa sb ->
            not (Alias.ranges_disjoint x y)
        | _, _ -> true)

let reconstruct ?(disambig = true) cfg =
  let layout_set =
    List.fold_left
      (fun acc id -> Ints.Int_set.add id acc)
      Ints.Int_set.empty (Cfg.layout cfg)
  in
  let flow =
    Flow.of_cfg ~blocks:layout_set ~masked_edges:(back_edges cfg)
      ~entry:(Cfg.entry cfg) cfg
  in
  let node_of_block = Flow.local_of_block flow in
  let reach = Flow.reachable_matrix flow in
  let summaries = Hashtbl.create 64 in
  Cfg.iter_blocks
    (fun b -> Hashtbl.replace summaries b.Block.id (summarize_block b))
    cfg;
  let reaching = lazy (Reaching.compute cfg) in
  let block_reaches a b =
    if a = b then true
    else
      match
        ( Ints.Int_map.find_opt a node_of_block,
          Ints.Int_map.find_opt b node_of_block )
      with
      | Some na, Some nb -> reach.(na).(nb)
      | None, _ | _, None -> false
  in
  let acc = ref [] in
  let add src dst kind reg =
    if src <> dst then
      acc := { d_src = src; d_dst = dst; d_kind = kind; d_reg = reg } :: !acc
  in
  let base_sites uid (ri : Alias.ref_info) =
    Some (Reaching.defs_of_use (Lazy.force reaching) ~uid ~reg:ri.Alias.base)
  in
  let addr = if disambig then Some (Addrcheck.compute cfg) else None in
  let refine ua a ub b conservative =
    conservative
    &&
    match a, b with
    | Alias.Call_ref, _ | _, Alias.Call_ref -> true
    | ( (Alias.Load_ref x | Alias.Store_ref x),
        (Alias.Load_ref y | Alias.Store_ref y) ) -> (
        x.Alias.family = y.Alias.family
        &&
        match addr with
        | None -> true
        | Some t -> (
            match Addrcheck.delta t ~a:ua ~b:ub with
            | Some d ->
                not
                  (Alias.ranges_disjoint x
                     { y with Alias.offset = y.Alias.offset + d })
            | None -> true))
  in
  let entry_node = Ints.Int_map.find_opt (Cfg.entry cfg) node_of_block in
  let view_blocks =
    List.filter
      (fun id ->
        match entry_node, Ints.Int_map.find_opt id node_of_block with
        | Some e, Some n -> reach.(e).(n)
        | None, _ | _, None -> false)
      (Cfg.layout cfg)
  in
  List.iter
    (fun b ->
      intra_deps
        ~mem_conflict:(fun (m, am) (u, a) ->
          refine m am u a (Alias.conflict am a))
        (Hashtbl.find summaries b) add)
    view_blocks;
  List.iter
    (fun ba ->
      List.iter
        (fun bb ->
          if ba <> bb && block_reaches ba bb then
            List.iter
              (fun sa ->
                let ua = Instr.uid sa.s_instr in
                List.iter
                  (fun sb ->
                    let ub = Instr.uid sb.s_instr in
                    List.iter
                      (fun r ->
                        if List.exists (Reg.equal r) sb.s_uses then
                          add ua ub Flow (Some r);
                        if List.exists (Reg.equal r) sb.s_defs then
                          add ua ub Output (Some r))
                      sa.s_defs;
                    List.iter
                      (fun r ->
                        if List.exists (Reg.equal r) sb.s_defs then
                          add ua ub Anti (Some r))
                      sa.s_uses;
                    match sa.s_mem, sb.s_mem with
                    | Some x, Some y ->
                        if
                          refine ua x ub y
                            (interblock_mem_conflict ~base_sites (ua, x)
                               (ub, y))
                        then add ua ub Mem None
                    | None, _ | _, None -> ())
                  (Hashtbl.find summaries bb))
              (Hashtbl.find summaries ba))
        view_blocks)
    view_blocks;
  !acc
