open Gis_util
open Gis_ir
open Gis_analysis
open Gis_ddg

type kind = Flow | Anti | Output | Mem

let pp_kind ppf k =
  Fmt.string ppf
    (match k with
    | Flow -> "flow"
    | Anti -> "anti"
    | Output -> "output"
    | Mem -> "mem")

type dep = { d_src : int; d_dst : int; d_kind : kind; d_reg : Reg.t option }

(* Per-instruction summary computed once per block scan: the memory
   access carries the scan-local base version, exactly as in
   [Ddg.build]'s node table. *)
type summary = {
  s_instr : Instr.t;
  s_defs : Reg.t list;
  s_uses : Reg.t list;
  s_mem : Alias.access option;
}

type site = { st_block : int; st_pos : int; st_instr : Instr.t }

type program = {
  p_cfg : Cfg.t;
  p_flow : Gis_analysis.Flow.t;
  p_node_of_block : int Ints.Int_map.t;
  p_reach : bool array array;
  p_sites : (int, site) Hashtbl.t;  (* uid -> block id, position, instr *)
  p_summaries : (int, summary list) Hashtbl.t;  (* block id -> in order *)
  p_uids : Ints.Int_set.t;
  p_reaching : Reaching.t Lazy.t;
  p_addr : Addrcheck.t Lazy.t;
  p_disambig : bool;
}

let cfg p = p.p_cfg
let reaching p = Lazy.force p.p_reaching
let uids p = p.p_uids

(* DFS back edges from the entry; masking them makes the whole-CFG view
   acyclic on the reachable portion (the forward program of Section 4.1,
   applied to the full procedure rather than one region). *)
let back_edges cfg =
  let n = Cfg.num_blocks cfg in
  if n = 0 then []
  else begin
    let color = Array.make n 0 in
    let acc = ref [] in
    let rec go u =
      color.(u) <- 1;
      List.iter
        (fun (v, _) ->
          if color.(v) = 1 then acc := (u, v) :: !acc
          else if color.(v) = 0 then go v)
        (Cfg.successors cfg u);
      color.(u) <- 2
    in
    go (Cfg.entry cfg);
    !acc
  end

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

let of_cfg ?(disambig = true) cfg =
  let layout_set =
    List.fold_left
      (fun acc id -> Ints.Int_set.add id acc)
      Ints.Int_set.empty (Cfg.layout cfg)
  in
  let flow =
    Gis_analysis.Flow.of_cfg ~blocks:layout_set
      ~masked_edges:(back_edges cfg) ~entry:(Cfg.entry cfg) cfg
  in
  let node_of_block = Gis_analysis.Flow.local_of_block flow in
  let reach = Gis_analysis.Flow.reachable_matrix flow in
  let sites = Hashtbl.create 256 in
  let summaries = Hashtbl.create 64 in
  let uids = ref Ints.Int_set.empty in
  Cfg.iter_blocks
    (fun b ->
      List.iteri
        (fun pos i ->
          Hashtbl.replace sites (Instr.uid i)
            { st_block = b.Block.id; st_pos = pos; st_instr = i };
          uids := Ints.Int_set.add (Instr.uid i) !uids)
        (Block.instrs b);
      Hashtbl.replace summaries b.Block.id (summarize_block b))
    cfg;
  {
    p_cfg = cfg;
    p_flow = flow;
    p_node_of_block = node_of_block;
    p_reach = reach;
    p_sites = sites;
    p_summaries = summaries;
    p_uids = !uids;
    p_reaching = lazy (Reaching.compute cfg);
    p_addr = lazy (Addrcheck.compute cfg);
    p_disambig = disambig;
  }

let site p uid = Hashtbl.find_opt p.p_sites uid

let block_label_of_uid p uid =
  Option.map (fun s -> (Cfg.block p.p_cfg s.st_block).Block.label) (site p uid)

let instr p uid = Option.map (fun s -> s.st_instr) (site p uid)

let block_reaches p a b =
  if a = b then true
  else
    match
      ( Ints.Int_map.find_opt a p.p_node_of_block,
        Ints.Int_map.find_opt b p.p_node_of_block )
    with
    | Some na, Some nb -> p.p_reach.(na).(nb)
    | None, _ | _, None -> false

let ordered p ~src ~dst =
  match site p src, site p dst with
  | Some s1, Some s2 ->
      if s1.st_block = s2.st_block then s1.st_pos < s2.st_pos
      else
        block_reaches p s1.st_block s2.st_block
        && not (block_reaches p s2.st_block s1.st_block)
  | None, _ | _, None -> false

let inter_regs a b = List.exists (fun r -> List.exists (Reg.equal r) b) a

let still_conflicts kind iu iv =
  match kind with
  | Mem -> true
  | Flow -> inter_regs (Instr.defs iu) (Instr.uses iv)
  | Anti -> inter_regs (Instr.uses iu) (Instr.defs iv)
  | Output -> inter_regs (Instr.defs iu) (Instr.defs iv)

(* What every pair an access joins consults, computed once per access
   rather than once per pair: the access itself, the definitions of its
   base register that reach it (forced only when some pair shares the
   base register), and its base value under [Addrcheck] ([Any] without
   disambiguation, which proves nothing). *)
type access = {
  a_ref : Alias.access;
  a_base_sites : Reaching.site list Lazy.t;
  a_value : Addrcheck.av;
}

(* One view block indexed for candidate search: its summaries and
   accesses by position, and the ascending positions that define each
   register, that use it, and that touch memory. *)
type block_index = {
  x_sums : summary array;
  x_access : access option array;
  x_defs : (int, int list) Hashtbl.t;  (* Reg.hash -> positions *)
  x_uses : (int, int list) Hashtbl.t;
  x_mem : int list;
}

let positions tbl (r : Reg.t) =
  Option.value ~default:[] (Hashtbl.find_opt tbl (Reg.hash r))

let index_block ~access summaries =
  let sums = Array.of_list summaries in
  let defs = Hashtbl.create 16 and uses = Hashtbl.create 16 in
  let mem = ref [] in
  let note tbl pos (r : Reg.t) =
    Hashtbl.replace tbl (Reg.hash r) (pos :: positions tbl r)
  in
  for pos = Array.length sums - 1 downto 0 do
    List.iter (note defs pos) sums.(pos).s_defs;
    List.iter (note uses pos) sums.(pos).s_uses;
    if Option.is_some sums.(pos).s_mem then mem := pos :: !mem
  done;
  {
    x_sums = sums;
    x_access =
      Array.map
        (fun s -> Option.map (access (Instr.uid s.s_instr)) s.s_mem)
        sums;
    x_defs = defs;
    x_uses = uses;
    x_mem = !mem;
  }

(* Kill-sensitive single-block scan, mirroring [Ddg.intra_block_scan]:
   flow from the last definition, output over the last definition, anti
   from uses since the last definition, memory pairwise with scan-local
   base versions refined by [mem_conflict]. *)
let intra_deps ~mem_conflict x add =
  let last_def = Hashtbl.create 8 in
  let uses_since = Hashtbl.create 8 in
  let mem_before = ref [] in
  Array.iteri
    (fun pos s ->
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
      (match x.x_access.(pos) with
      | Some a ->
          List.iter
            (fun (m, am) -> if mem_conflict am a then add m u Mem None)
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
    x.x_sums

(* Inter-block memory disambiguation, mirroring
   [Ddg.interblock_mem_conflict]: scan-local versions mean nothing
   across blocks, so base values are proved equal through a shared
   single reaching definition. *)
let interblock_mem_conflict a b =
  match a.a_ref, b.a_ref with
  | Alias.Load_ref _, Alias.Load_ref _ -> false
  | Alias.Call_ref, _ | _, Alias.Call_ref -> true
  | ( (Alias.Load_ref x | Alias.Store_ref x),
      (Alias.Load_ref y | Alias.Store_ref y) ) -> (
      if not (Reg.equal x.Alias.base y.Alias.base) then true
      else
        match Lazy.force a.a_base_sites, Lazy.force b.a_base_sites with
        | [ sa ], [ sb ] when Reaching.equal_site sa sb ->
            not (Alias.ranges_disjoint x y)
        | _, _ -> true)

(* The symbolic-address refinement: a conflicting-looking pair stays a
   Mem dependence unless the two accesses live in different memory
   families, or the checker's own address analysis ([Addrcheck],
   deliberately not the scheduler's [Symaddr]) proves a base delta that
   puts their ranges apart. Matches [Ddg.decide_mem] in precision — a
   weaker rule here would demand edges the scheduler legitimately
   pruned and reject legal schedules. *)
let refine a b conservative =
  conservative
  &&
  match a.a_ref, b.a_ref with
  | Alias.Call_ref, _ | _, Alias.Call_ref -> true
  | ( (Alias.Load_ref x | Alias.Store_ref x),
      (Alias.Load_ref y | Alias.Store_ref y) ) -> (
      x.Alias.family = y.Alias.family
      &&
      match Addrcheck.value_delta a.a_value b.a_value with
      | Some d ->
          not
            (Alias.ranges_disjoint x { y with Alias.offset = y.Alias.offset + d })
      | None -> true)

let reconstruct p =
  let acc = ref [] in
  let add src dst kind reg =
    if src <> dst then acc := { d_src = src; d_dst = dst; d_kind = kind; d_reg = reg } :: !acc
  in
  let addr = if p.p_disambig then Some (Lazy.force p.p_addr) else None in
  let access uid a =
    match a with
    | Alias.Call_ref ->
        { a_ref = a; a_base_sites = Lazy.from_val []; a_value = Addrcheck.Any }
    | Alias.Load_ref ri | Alias.Store_ref ri ->
        {
          a_ref = a;
          a_base_sites =
            lazy (Reaching.defs_of_use (reaching p) ~uid ~reg:ri.Alias.base);
          a_value =
            (match addr with
            | Some t -> Addrcheck.base_value t uid
            | None -> Addrcheck.Any);
        }
  in
  (* Entry-reachable blocks only: unreachable code has no forward order
     (its back edges were never masked, so it may be cyclic) and is the
     linter's business, not the order oracle's. *)
  let entry_node =
    Ints.Int_map.find_opt (Cfg.entry p.p_cfg) p.p_node_of_block
  in
  let view_blocks =
    List.filter_map
      (fun id ->
        match entry_node, Ints.Int_map.find_opt id p.p_node_of_block with
        | Some e, Some n when p.p_reach.(e).(n) ->
            Some (n, index_block ~access (Hashtbl.find p.p_summaries id))
        | _, _ -> None)
      (Cfg.layout p.p_cfg)
  in
  List.iter
    (fun (_, x) ->
      intra_deps
        ~mem_conflict:(fun am a -> refine am a (Alias.conflict am.a_ref a.a_ref))
        x add)
    view_blocks;
  (* Inter-block pairs. A pair (sa, sb) yields a dependence only if [sb]
     touches a register [sa] defines, defines a register [sa] uses, or
     both touch memory, so only those [sb] are visited — in ascending
     position, which keeps the list exactly as the all-pairs scan built
     it. *)
  List.iter
    (fun (na, xa) ->
      List.iter
        (fun (nb, xb) ->
          if na <> nb && p.p_reach.(na).(nb) then
            Array.iteri
              (fun pa sa ->
                let ua = Instr.uid sa.s_instr in
                let candidates =
                  List.concat_map
                    (fun r -> positions xb.x_defs r @ positions xb.x_uses r)
                    sa.s_defs
                  @ List.concat_map (positions xb.x_defs) sa.s_uses
                  @ (if Option.is_some sa.s_mem then xb.x_mem else [])
                  |> List.sort_uniq Int.compare
                in
                List.iter
                  (fun pb ->
                    let sb = xb.x_sums.(pb) in
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
                    match xa.x_access.(pa), xb.x_access.(pb) with
                    | Some x, Some y ->
                        if refine x y (interblock_mem_conflict x y) then
                          add ua ub Mem None
                    | None, _ | _, None -> ())
                  candidates)
              xa.x_sums)
        view_blocks)
    view_blocks;
  !acc
