open Gis_util
open Gis_ir

type site = Def of int | External

let pp_site ppf = function
  | Def uid -> Fmt.pf ppf "def#%d" uid
  | External -> Fmt.string ppf "external"

let equal_site a b =
  match a, b with
  | Def x, Def y -> x = y
  | External, External -> true
  | Def _, External | External, Def _ -> false

(* Sites are interned to dense indices so the dataflow runs on
   bit-vectors. [Reg.hash] is injective, so it serves as a register key. *)
type t = {
  use_chains : (int * int, site list) Hashtbl.t;  (* (uid, reg key) -> sites *)
  def_chains : (int * int, int list) Hashtbl.t;   (* (uid, reg key) -> use uids *)
}

let reg_key r = Reg.hash r

let compute cfg =
  (* 1. Enumerate definition sites. *)
  let site_of = Hashtbl.create 64 in (* (sitekind, regkey) -> index *)
  let sites = Vec.create () in       (* index -> (site, reg) *)
  let intern site reg =
    let key = ((match site with Def u -> u | External -> -1), reg_key reg) in
    match Hashtbl.find_opt site_of key with
    | Some idx -> idx
    | None ->
        let idx = Vec.length sites in
        Vec.push sites (site, reg);
        Hashtbl.add site_of key idx;
        idx
  in
  let sites_of_reg = Hashtbl.create 64 in (* regkey -> index list *)
  let note_reg_site reg idx =
    let k = reg_key reg in
    let cur = Option.value ~default:[] (Hashtbl.find_opt sites_of_reg k) in
    if not (List.mem idx cur) then Hashtbl.replace sites_of_reg k (idx :: cur)
  in
  let all_regs = ref Reg.Set.empty in
  Cfg.iter_blocks
    (fun b ->
      List.iter
        (fun i ->
          List.iter (fun r -> all_regs := Reg.Set.add r !all_regs) (Instr.uses i);
          List.iter
            (fun r ->
              all_regs := Reg.Set.add r !all_regs;
              note_reg_site r (intern (Def (Instr.uid i)) r))
            (Instr.defs i))
        (Block.instrs b))
    cfg;
  let external_idx =
    Reg.Set.fold
      (fun r acc ->
        let idx = intern External r in
        note_reg_site r idx;
        idx :: acc)
      !all_regs []
  in
  let nsites = Vec.length sites in
  let external_sites = Bitv.create nsites in
  List.iter (Bitv.add external_sites) external_idx;
  let indices_of_reg r =
    Option.value ~default:[] (Hashtbl.find_opt sites_of_reg (reg_key r))
  in
  (* A definition of [r] at site [own] removes every other site of [r]
     from [live] and adds [own]. *)
  let define live r own =
    List.iter (Bitv.remove live) (indices_of_reg r);
    Bitv.add live own
  in
  (* 2. gen/kill per block. *)
  let n = Cfg.num_blocks cfg in
  let gen = Array.init n (fun _ -> Bitv.create nsites) in
  let kill = Array.init n (fun _ -> Bitv.create nsites) in
  for id = 0 to n - 1 do
    let b = Cfg.block cfg id in
    List.iter
      (fun i ->
        List.iter
          (fun r ->
            let own = intern (Def (Instr.uid i)) r in
            define gen.(id) r own;
            List.iter
              (fun s -> if s <> own then Bitv.add kill.(id) s)
              (indices_of_reg r))
          (Instr.defs i))
      (Block.instrs b)
  done;
  (* 3. Forward dataflow over the layout. The equations are monotone, so
     any visit order reaches the same least fixpoint; every laid-out
     block is visited once, then again only when a predecessor's out
     set changes. Blocks outside the layout keep empty sets. *)
  let in_ = Array.init n (fun _ -> Bitv.create nsites) in
  let out = Array.init n (fun _ -> Bitv.create nsites) in
  let preds = Cfg.predecessors cfg in
  let entry = Cfg.entry cfg in
  let layout = Array.of_list (Cfg.layout cfg) in
  let width = Array.length layout in
  let pos = Array.make n (-1) in
  Array.iteri (fun p id -> pos.(id) <- p) layout;
  let wl = Fix.Worklist.create n in
  Array.iteri (fun p id -> Fix.Worklist.add wl ~key:p id) layout;
  let visit ~key id =
    let inn = in_.(id) in
    Bitv.clear inn;
    if id = entry then Bitv.union_into ~dst:inn external_sites;
    List.iter (fun p -> Bitv.union_into ~dst:inn out.(p)) preds.(id);
    if Bitv.flow_into ~dst:out.(id) ~gen:gen.(id) ~kill:kill.(id) inn then
      List.iter
        (fun (s, _) ->
          if pos.(s) >= 0 then
            Fix.Worklist.add wl ~key:(Fix.Worklist.sweep_key ~width ~key pos.(s)) s)
        (Cfg.successors cfg id)
  in
  ignore
    (Fix.Worklist.drain wl ~analysis:"Reaching.compute"
       ~max_visits:(4 * (width + 1) * (nsites + 2))
       visit);
  (* 4. Walk each block once more to record use-def / def-use chains. *)
  let use_chains = Hashtbl.create 64 in
  let def_chains = Hashtbl.create 64 in
  let add_def_use duid reg use_uid =
    let key = (duid, reg_key reg) in
    let cur = Option.value ~default:[] (Hashtbl.find_opt def_chains key) in
    if not (List.mem use_uid cur) then
      Hashtbl.replace def_chains key (use_uid :: cur)
  in
  for id = 0 to n - 1 do
    let b = Cfg.block cfg id in
    let running = Bitv.copy in_.(id) in
    List.iter
      (fun i ->
        List.iter
          (fun r ->
            let reaching =
              List.filter (Bitv.mem running) (indices_of_reg r)
              |> List.map (fun s -> fst (Vec.get sites s))
            in
            Hashtbl.replace use_chains (Instr.uid i, reg_key r) reaching;
            List.iter
              (function
                | Def duid -> add_def_use duid r (Instr.uid i)
                | External -> ())
              reaching)
          (Instr.uses i);
        List.iter
          (fun r -> define running r (intern (Def (Instr.uid i)) r))
          (Instr.defs i))
      (Block.instrs b)
  done;
  { use_chains; def_chains }

let defs_of_use t ~uid ~reg =
  match Hashtbl.find_opt t.use_chains (uid, reg_key reg) with
  | Some sites -> sites
  | None ->
      invalid_arg
        (Fmt.str "Reaching.defs_of_use: instruction %d has no use of %a" uid
           Reg.pp reg)

let uses_of_def t ~uid ~reg =
  Option.value ~default:[] (Hashtbl.find_opt t.def_chains (uid, reg_key reg))

let sole_def_of_all_uses t ~uid ~reg =
  let uses = uses_of_def t ~uid ~reg in
  let sole u =
    match defs_of_use t ~uid:u ~reg with
    | [ Def d ] -> d = uid
    | [] | [ External ] | _ :: _ -> false
  in
  if List.for_all sole uses then Some uses else None
