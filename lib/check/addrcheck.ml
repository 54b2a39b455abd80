open Gis_util
open Gis_ir

type av =
  | Num of int
  | Ref of { def : int; reg : int; add : int }
  | Any

let pp_av ppf = function
  | Num k -> Fmt.pf ppf "num %d" k
  | Ref { def; reg; add } ->
      if def < 0 then Fmt.pf ppf "entry(r%d)%+d" reg add
      else Fmt.pf ppf "def#%d(r%d)%+d" def reg add
  | Any -> Fmt.string ppf "any"

let equal_av a b =
  match a, b with
  | Num x, Num y -> x = y
  | Ref x, Ref y -> x.def = y.def && x.reg = y.reg && x.add = y.add
  | Any, Any -> true
  | (Num _ | Ref _ | Any), _ -> false

type t = { at_access : (int, av) Hashtbl.t }

(* [bump v k]: the value [v + k] when the affine form survives. *)
let bump v k =
  match v with
  | Num c -> Some (Num (c + k))
  | Ref { def; reg; add } -> Some (Ref { def; reg; add = add + k })
  | Any -> None

let compute cfg =
  (* Only registers that can feed an access base are interned: the
     bases themselves, then, sweep by sweep until a sweep interns
     nothing new, the [Move] source and the [Add]/[Sub] register
     operands of every definition of an interned register. Any other
     definition is an opaque fresh instance that reads no register, so
     no value of an uninterned register can reach an interned one, and
     dropping the uninterned ones from the environments loses nothing.
     [Reg.hash] is injective, so it is both the intern key and the
     [Ref.reg] payload. *)
  let idx_of = Hashtbl.create 32 in
  let hashes = Vec.create () in
  let intern (r : Reg.t) =
    let h = Reg.hash r in
    if not (Hashtbl.mem idx_of h) then begin
      Hashtbl.add idx_of h (Vec.length hashes);
      Vec.push hashes h
    end
  in
  let interned (r : Reg.t) = Hashtbl.mem idx_of (Reg.hash r) in
  (* Backwards, so a chain of copies written in program order closes in
     one sweep. *)
  let body = List.rev (Cfg.all_instrs cfg) in
  List.iter
    (fun i ->
      match Instr.kind i with
      | Instr.Load { base; _ } | Instr.Store { base; _ } -> intern base
      | _ -> ())
    body;
  let rec close () =
    let before = Vec.length hashes in
    List.iter
      (fun i ->
        match Instr.kind i with
        | Instr.Move { dst; src } when interned dst -> intern src
        | Instr.Binop { op = Instr.Add | Instr.Sub; dst; lhs; rhs } when interned dst -> (
            intern lhs;
            match rhs with Instr.Reg r -> intern r | Instr.Imm _ -> ())
        | _ -> ())
      body;
    if Vec.length hashes > before then close ()
  in
  close ();
  let nr = Vec.length hashes in
  let get env (r : Reg.t) =
    match Hashtbl.find idx_of (Reg.hash r) with
    | i -> env.(i)
    | exception Not_found -> Any
  in
  let set env (r : Reg.t) v =
    match Hashtbl.find idx_of (Reg.hash r) with
    | i -> env.(i) <- v
    | exception Not_found -> ()
  in
  (* Transfer of one instruction, mutating [env]. Opaque definitions
     start a fresh instance, never [Any] — precision the scheduler side
     also has, and parity is mandatory. [note] observes the base value
     of each access before its [update] post-increment (the effective
     address uses the old base; on a load whose destination is its own
     base, the update still wins, hence the [set] order). *)
  let transfer ?note env i =
    let uid = Instr.uid i in
    let inst (r : Reg.t) = Ref { def = uid; reg = Reg.hash r; add = 0 } in
    let opaque r = set env r (inst r) in
    let seen u v = match note with Some f -> f u v | None -> () in
    match Instr.kind i with
    | Instr.Load_imm { dst; value } -> set env dst (Num value)
    | Instr.Move { dst; src } -> (
        match get env src with Any -> opaque dst | v -> set env dst v)
    | Instr.Binop { op; dst; lhs; rhs } -> (
        let affine =
          match op, rhs with
          | Instr.Add, Instr.Imm k -> bump (get env lhs) k
          | Instr.Sub, Instr.Imm k -> bump (get env lhs) (-k)
          | Instr.Add, Instr.Reg r -> (
              match get env lhs, get env r with
              | Num a, Num b -> Some (Num (a + b))
              | vl, Num k -> bump vl k
              | Num k, vr -> bump vr k
              | (Ref _ | Any), (Ref _ | Any) -> None)
          | Instr.Sub, Instr.Reg r -> (
              match get env lhs, get env r with
              | Num a, Num b -> Some (Num (a - b))
              | vl, Num k -> bump vl (-k)
              | (Num _ | Ref _ | Any), (Ref _ | Any) -> None)
          | ( ( Instr.Mul | Instr.Div | Instr.Rem | Instr.And | Instr.Or
              | Instr.Xor | Instr.Shl | Instr.Shr ),
              _ ) ->
              None
        in
        match affine with Some v -> set env dst v | None -> opaque dst)
    | Instr.Load { dst; base; offset; update } ->
        let bv = get env base in
        seen uid bv;
        opaque dst;
        if update then
          set env base (Option.value ~default:(inst base) (bump bv offset))
    | Instr.Store { src = _; base; offset; update } ->
        let bv = get env base in
        seen uid bv;
        if update then
          set env base (Option.value ~default:(inst base) (bump bv offset))
    | Instr.Compare _ | Instr.Fcompare _ | Instr.Fbinop _ | Instr.Call _ ->
        List.iter opaque (Instr.defs i)
    | Instr.Branch_cond _ | Instr.Jump _ | Instr.Halt -> ()
  in
  let run_block ?note env id =
    List.iter (transfer ?note env) (Block.instrs (Cfg.block cfg id));
    env
  in
  (* Worklist fixpoint on block-entry environments. [None] is bottom
     (block never reached); the entry block's environment seeds every
     register with its own entry instance, so a loop-carried
     redefinition joining the entry value goes to [Any] instead of
     being mistaken for it. Only laid-out blocks take part. A fresh
     instance on an [Any] input makes the transfer non-monotone, so the
     visit order matters: sweep keys visit blocks in repeated layout
     order, exactly as the scheduler-side analysis does, re-queuing a
     block only when a predecessor's exit environment changed. *)
  let n = Cfg.num_blocks cfg in
  let in_ : av array option array = Array.make n None in
  let out : av array option array = Array.make n None in
  let preds = Cfg.predecessors cfg in
  let entry = Cfg.entry cfg in
  let order = Array.make n (-1) in
  List.iteri (fun k id -> order.(id) <- k) (Cfg.layout cfg);
  let width = List.length (Cfg.layout cfg) in
  let entry_env () =
    Array.init nr (fun i -> Ref { def = -1; reg = Vec.get hashes i; add = 0 })
  in
  let join_into acc env =
    for i = 0 to nr - 1 do
      if not (equal_av acc.(i) env.(i)) then acc.(i) <- Any
    done
  in
  let wl = Fix.Worklist.create n in
  if order.(entry) >= 0 then Fix.Worklist.add wl ~key:order.(entry) entry;
  let step ~key id =
    let inn =
      List.fold_left
        (fun acc p ->
          match acc, out.(p) with
          | None, None -> None
          | None, Some o -> Some (Array.copy o)
          | Some _, None -> acc
          | Some a, Some o ->
              join_into a o;
              acc)
        (if id = entry then Some (entry_env ()) else None)
        preds.(id)
    in
    match inn with
    | None -> ()
    | Some inn ->
        let stale =
          match in_.(id) with
          | None -> true
          | Some old -> not (Array.for_all2 equal_av old inn)
        in
        if stale then begin
          in_.(id) <- Some inn;
          let o = run_block (Array.copy inn) id in
          let moved =
            match out.(id) with
            | None -> true
            | Some old -> not (Array.for_all2 equal_av old o)
          in
          out.(id) <- Some o;
          if moved then
            List.iter
              (fun (s, _) ->
                if order.(s) >= 0 then
                  Fix.Worklist.add wl
                    ~key:(Fix.Worklist.sweep_key ~width ~key order.(s))
                    s)
              (Cfg.successors cfg id)
        end
  in
  ignore
    (Fix.Worklist.drain wl ~analysis:"Addrcheck.compute"
       ~max_visits:(64 * (n + 1) * (nr + 2))
       step);
  (* Recording pass: replay each reached block once, noting every
     access's base value at its own program point. *)
  let at_access = Hashtbl.create 64 in
  let note uid v = Hashtbl.replace at_access uid v in
  Array.iteri
    (fun id inn ->
      match inn with
      | None -> ()
      | Some env -> ignore (run_block ~note (Array.copy env) id))
    in_;
  { at_access }

let base_value t uid =
  Option.value ~default:Any (Hashtbl.find_opt t.at_access uid)

let value_delta a b =
  match a, b with
  | Num x, Num y -> Some (y - x)
  | Ref x, Ref y when x.def = y.def && x.reg = y.reg -> Some (y.add - x.add)
  | (Num _ | Ref _ | Any), (Num _ | Ref _ | Any) -> None

let delta t ~a ~b = value_delta (base_value t a) (base_value t b)
