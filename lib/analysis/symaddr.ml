open Gis_util
open Gis_ir

(* An origin is one definition instance: instruction [o_uid] defining
   register [o_reg] ([Reg.hash] is injective, so the hash is the
   register), or the register's value at procedure entry ([o_uid] =
   -1). A call that defines several registers yields one origin per
   register — collapsing them would claim two distinct results equal. *)
type origin = { o_uid : int; o_reg : int }

let equal_origin a b = a.o_uid = b.o_uid && a.o_reg = b.o_reg

let pp_origin ppf o =
  if o.o_uid < 0 then Fmt.pf ppf "entry(r%d)" o.o_reg
  else Fmt.pf ppf "def#%d(r%d)" o.o_uid o.o_reg

type value =
  | Const of int
  | Sym of { origin : origin; offset : int }
  | Top

let pp_value ppf = function
  | Const k -> Fmt.pf ppf "const %d" k
  | Sym { origin; offset } -> Fmt.pf ppf "%a%+d" pp_origin origin offset
  | Top -> Fmt.string ppf "top"

let equal_value a b =
  match a, b with
  | Const x, Const y -> x = y
  | Sym x, Sym y -> equal_origin x.origin y.origin && x.offset = y.offset
  | Top, Top -> true
  | (Const _ | Sym _ | Top), _ -> false

(* Affine shift; [None] when the input is [Top] (the caller then starts
   a fresh origin, which is always a sound description of a def). *)
let shift v k =
  match v with
  | Const c -> Some (Const (c + k))
  | Sym { origin; offset } -> Some (Sym { origin; offset = offset + k })
  | Top -> None

let fresh uid (r : Reg.t) = Sym { origin = { o_uid = uid; o_reg = Reg.hash r }; offset = 0 }

(* The address slice: every register whose value can flow into the base
   of a [Load]/[Store] — the flow-insensitive backward closure from each
   base through [Move] sources and the register operands of [Add]/[Sub].
   Every other definition of a slice register starts a fresh origin that
   depends only on its uid, so no value outside the slice ever reaches a
   register inside it, and environments restricted to the slice compute
   exactly the base values the unrestricted analysis computes.

   Returns [slot] — [slot.(Reg.hash r)] is [r]'s environment index, -1
   outside the slice (hashes past the end are outside too) — and the
   slice registers' hashes by index. *)
let address_slice code =
  let sources = Hashtbl.create 64 in
  let bases = ref [] in
  let feeds dst src = Hashtbl.add sources (Reg.hash dst) (Reg.hash src) in
  Array.iter
    (List.iter (fun i ->
         match Instr.kind i with
         | Instr.Load { base; _ } | Instr.Store { base; _ } ->
             bases := Reg.hash base :: !bases
         | Instr.Move { dst; src } -> feeds dst src
         | Instr.Binop { op = Instr.Add | Instr.Sub; dst; lhs; rhs } -> (
             feeds dst lhs;
             match rhs with Instr.Reg r -> feeds dst r | Instr.Imm _ -> ())
         | Instr.Binop _ | Instr.Load_imm _ | Instr.Fbinop _ | Instr.Compare _
         | Instr.Fcompare _ | Instr.Branch_cond _ | Instr.Jump _ | Instr.Call _
         | Instr.Halt ->
             ()))
    code;
  let members = Hashtbl.create 64 in
  let order = Vec.create () in
  let rec reach h =
    if not (Hashtbl.mem members h) then begin
      Hashtbl.add members h ();
      Vec.push order h;
      List.iter reach (Hashtbl.find_all sources h)
    end
  in
  List.iter reach !bases;
  let regs = Vec.to_array order in
  let slot = Array.make (Array.fold_left max (-1) regs + 1) (-1) in
  Array.iteri (fun s h -> slot.(h) <- s) regs;
  (slot, regs)

type t = { base_values : (int, value) Hashtbl.t }

let compute cfg =
  let layout = Array.of_list (Cfg.layout cfg) in
  let width = Array.length layout in
  let code = Array.map (fun id -> Block.instrs (Cfg.block cfg id)) layout in
  let slot, regs = address_slice code in
  let slot_of r =
    let h = Reg.hash r in
    if h < Array.length slot then slot.(h) else -1
  in
  (* Slice registers only: every read below is of a base or of a source
     of a slice definition, both inside the slice by construction. *)
  let get env r = env.(slot_of r) in
  let def env r v =
    let s = slot_of r in
    if s >= 0 then env.(s) <- v
  in
  let opaque env uid r = if slot_of r >= 0 then def env r (fresh uid r) in
  (* Transfer of one instruction, mutating [env]. [record] is called
     with the base value of a load/store before the [update]
     post-increment — the simulator computes the effective address from
     the old base, then writes the destination, then updates the base
     (so on [LU rT,rT] the update wins, mirrored by the order below). *)
  let transfer ~record env i =
    let uid = Instr.uid i in
    match Instr.kind i with
    | Instr.Load_imm { dst; value } -> def env dst (Const value)
    | Instr.Move { dst; src } ->
        if slot_of dst >= 0 then
          def env dst (match get env src with Top -> fresh uid dst | v -> v)
    | Instr.Binop { op; dst; lhs; rhs } ->
        if slot_of dst >= 0 then begin
          let affine =
            match op, rhs with
            | Instr.Add, Instr.Imm k -> shift (get env lhs) k
            | Instr.Sub, Instr.Imm k -> shift (get env lhs) (-k)
            | Instr.Add, Instr.Reg r -> (
                match get env lhs, get env r with
                | Const a, Const b -> Some (Const (a + b))
                | vl, Const k -> shift vl k
                | Const k, vr -> shift vr k
                | (Sym _ | Top), (Sym _ | Top) -> None)
            | Instr.Sub, Instr.Reg r -> (
                match get env lhs, get env r with
                | Const a, Const b -> Some (Const (a - b))
                | vl, Const k -> shift vl (-k)
                | (Const _ | Sym _ | Top), (Sym _ | Top) -> None)
            | ( ( Instr.Mul | Instr.Div | Instr.Rem | Instr.And | Instr.Or
                | Instr.Xor | Instr.Shl | Instr.Shr ),
                _ ) ->
                None
          in
          def env dst (Option.value ~default:(fresh uid dst) affine)
        end
    | Instr.Load { dst; base; offset; update } ->
        let bv = get env base in
        record uid bv;
        opaque env uid dst;
        if update then
          def env base (Option.value ~default:(fresh uid base) (shift bv offset))
    | Instr.Store { src = _; base; offset; update } ->
        let bv = get env base in
        record uid bv;
        if update then
          def env base (Option.value ~default:(fresh uid base) (shift bv offset))
    | Instr.Compare _ | Instr.Fcompare _ | Instr.Fbinop _ | Instr.Call _ ->
        List.iter (opaque env uid) (Instr.defs i)
    | Instr.Branch_cond _ | Instr.Jump _ | Instr.Halt -> ()
  in
  let run ~record env p =
    let env = Array.copy env in
    List.iter (transfer ~record env) code.(p);
    env
  in
  (* Block-entry environments to fixpoint, indexed by layout position:
     [None] is bottom (block not yet reached), the neutral element of
     the join. The entry environment starts every slice register at its
     own entry origin, so a merge of "defined in the loop" with "still
     the entry value" joins two different origins to [Top] instead of
     spuriously claiming them equal. *)
  let entry_env =
    Array.map (fun h -> Sym { origin = { o_uid = -1; o_reg = h }; offset = 0 }) regs
  in
  let in_ : value array option array = Array.make width None in
  let out : value array option array = Array.make width None in
  let pos = Array.make (Cfg.num_blocks cfg) (-1) in
  Array.iteri (fun p id -> pos.(id) <- p) layout;
  let preds = Cfg.predecessors cfg in
  let entry = Cfg.entry cfg in
  let no_record _ _ = () in
  let join acc env =
    match acc with
    | None -> Some (Array.copy env)
    | Some a ->
        Array.iteri (fun s v -> if not (equal_value a.(s) v) then a.(s) <- Top) env;
        acc
  in
  let same a b = Array.for_all2 equal_value a b in
  (* An opaque definition of a register whose input went to [Top]
     starts a fresh origin rather than going to [Top] itself, so the
     transfer is not monotone and the fixpoint reached may depend on
     the visit order. The worklist's sweep keys keep the order of
     repeated layout sweeps, only skipping blocks none of whose
     predecessors changed since their last visit. *)
  let wl = Fix.Worklist.create width in
  if pos.(entry) >= 0 then Fix.Worklist.add wl ~key:pos.(entry) pos.(entry);
  let visit ~key p =
    let id = layout.(p) in
    let inn =
      List.fold_left
        (fun acc q ->
          if pos.(q) < 0 then acc
          else match out.(pos.(q)) with None -> acc | Some o -> join acc o)
        (if id = entry then Some (Array.copy entry_env) else None)
        preds.(id)
    in
    match inn with
    | None -> ()
    | Some inn ->
        let stale =
          match in_.(p) with None -> true | Some old -> not (same old inn)
        in
        if stale then begin
          in_.(p) <- Some inn;
          let o = run ~record:no_record inn p in
          let changed =
            match out.(p) with None -> true | Some old -> not (same old o)
          in
          if changed then begin
            out.(p) <- Some o;
            List.iter
              (fun (s, _) ->
                if pos.(s) >= 0 then
                  Fix.Worklist.add wl
                    ~key:(Fix.Worklist.sweep_key ~width ~key pos.(s))
                    pos.(s))
              (Cfg.successors cfg id)
          end
        end
  in
  ignore
    (Fix.Worklist.drain wl ~analysis:"Symaddr.compute"
       ~max_visits:(64 * (width + 1) * (Array.length regs + 2))
       visit);
  (* One more pass over each reached block records the base value at
     every access's own program point. *)
  let base_values = Hashtbl.create 64 in
  let record uid v = Hashtbl.replace base_values uid v in
  Array.iteri
    (fun p inn -> Option.iter (fun env -> ignore (run ~record env p)) inn)
    in_;
  { base_values }

let base_value t uid = Option.value ~default:Top (Hashtbl.find_opt t.base_values uid)

let overclaim_for_testing = ref false

let numeric = function Const k -> k | Sym { offset; _ } -> offset | Top -> 0

let delta t ~a ~b =
  let va = base_value t a and vb = base_value t b in
  match va, vb with
  | Const x, Const y -> Some (y - x)
  | Sym x, Sym y when equal_origin x.origin y.origin ->
      Some (y.offset - x.offset)
  | (Const _ | Sym _ | Top), (Const _ | Sym _ | Top) ->
      (* The injected over-claim: pretend unprovable base pairs are
         equal modulo their tracked offsets — exactly the bug class the
         checker-side re-proof and the fuzz oracle must catch. *)
      if !overclaim_for_testing then Some (numeric vb - numeric va) else None
