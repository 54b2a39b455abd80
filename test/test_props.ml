(* Property-based differential testing: the scheduler, at every level and
   under every configuration knob, must preserve the observable
   behaviour (output trace, final memory, termination) of randomly
   generated structured programs. This is the repo's strongest
   correctness evidence: each case compiles a random Tiny-C program,
   schedules it, and compares simulations. *)

open Gis_ir
open Gis_machine
open Gis_core
open Gis_sim
open Gis_frontend
open Gis_workloads

let machine = Test_support.machine
let observe = Test_support.observe
let baseline_compiled = Test_support.baseline_compiled
let baseline_and_input = Test_support.baseline_and_input

let preserves_observables ~config seed =
  let cfg, input = baseline_and_input seed in
  let expected = observe cfg input in
  let scheduled = Cfg.deep_copy cfg in
  ignore (Pipeline.run machine config scheduled);
  Validate.check_exn scheduled;
  String.equal expected (observe scheduled input)

let qtest name count prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count QCheck.(int_range 1 1_000_000) prop)

let prop_local seed = preserves_observables ~config:Config.base seed

let prop_useful seed = preserves_observables ~config:Config.useful_only seed

let prop_speculative seed = preserves_observables ~config:Config.speculative seed

let prop_no_rename seed =
  preserves_observables ~config:{ Config.speculative with Config.rename = false } seed

let prop_no_prune seed =
  preserves_observables
    ~config:{ Config.speculative with Config.prune_transitive = false }
    seed

let prop_no_transforms seed =
  preserves_observables
    ~config:
      {
        Config.speculative with
        Config.unroll_small_loops = false;
        rotate_small_loops = false;
      }
    seed

let prop_degree_2 seed =
  preserves_observables
    ~config:{ Config.speculative with Config.max_speculation_degree = 2 }
    seed

let prop_degree_3_with_webs seed =
  preserves_observables
    ~config:
      {
        Config.speculative with
        Config.max_speculation_degree = 3;
        split_webs = true;
      }
    seed

let prop_webs seed =
  preserves_observables
    ~config:{ Config.speculative with Config.split_webs = true }
    seed

let prop_profile_guided seed =
  (* Profile on one random input, schedule with it, then validate
     observables on a *different* input — speculation gating must never
     be load-bearing for correctness. *)
  let compiled, input = baseline_compiled seed in
  let cfg = compiled.Codegen.cfg in
  let other_input = Random_prog.random_input ~seed:(seed + 5000) compiled in
  let profile_outcome = Simulator.run machine cfg input in
  let scheduled = Cfg.deep_copy cfg in
  ignore
    (Pipeline.run machine
       {
         Config.speculative with
         Config.profile = Some (Simulator.profile_fn profile_outcome);
         min_speculation_probability = 0.4;
       }
       scheduled);
  Validate.check_exn scheduled;
  String.equal (observe cfg input) (observe scheduled input)
  && String.equal (observe cfg other_input) (observe scheduled other_input)

let prop_duplication seed =
  preserves_observables
    ~config:{ Config.speculative with Config.allow_duplication = true }
    seed

let prop_duplication_with_everything seed =
  preserves_observables
    ~config:
      {
        Config.speculative with
        Config.allow_duplication = true;
        split_webs = true;
        max_speculation_degree = 2;
      }
    seed

let prop_detailed_local_machine seed =
  preserves_observables
    ~config:
      { Config.speculative with Config.local_machine = Some Machine.rs6k_detailed }
    seed

let prop_wide_machine seed =
  let cfg, input = baseline_and_input seed in
  let expected = observe cfg input in
  let scheduled = Cfg.deep_copy cfg in
  ignore (Pipeline.run (Machine.superscalar ~width:4) Config.speculative scheduled);
  Validate.check_exn scheduled;
  (* Observables are machine-independent: check against rs6k execution
     of the scheduled code too. *)
  String.equal expected (observe scheduled input)

(* Scheduling twice is still sound (idempotence of correctness, not of
   code): the second pass sees already-moved code. *)
let prop_reschedule seed =
  let cfg, input = baseline_and_input seed in
  let expected = observe cfg input in
  let scheduled = Cfg.deep_copy cfg in
  ignore (Pipeline.run machine Config.speculative scheduled);
  ignore
    (Pipeline.run machine
       {
         Config.speculative with
         Config.unroll_small_loops = false;
         rotate_small_loops = false;
       }
       scheduled);
  Validate.check_exn scheduled;
  String.equal expected (observe scheduled input)

(* Unroll and rotate on their own preserve semantics for arbitrary
   generated programs. *)
let prop_unroll seed =
  let cfg, input = baseline_and_input seed in
  let expected = observe cfg input in
  let t = Cfg.deep_copy cfg in
  ignore (Unroll.unroll_small_inner_loops ~max_blocks:6 t);
  Validate.check_exn t;
  String.equal expected (observe t input)

let prop_rotate seed =
  let cfg, input = baseline_and_input seed in
  let expected = observe cfg input in
  let t = Cfg.deep_copy cfg in
  ignore (Rotate.rotate_small_inner_loops ~max_blocks:6 t);
  Validate.check_exn t;
  String.equal expected (observe t input)

(* Composing the transforms: unrolled-then-rotated loops are still
   semantically equivalent, both as bare transforms and after the full
   pipeline re-schedules the pre-transformed body at every level. *)
let prop_unroll_then_rotate_all_levels seed =
  let cfg, input = baseline_and_input seed in
  let expected = observe cfg input in
  let t = Cfg.deep_copy cfg in
  ignore (Unroll.unroll_small_inner_loops ~max_blocks:6 t);
  ignore (Rotate.rotate_small_inner_loops ~max_blocks:6 t);
  Validate.check_exn t;
  String.equal expected (observe t input)
  && List.for_all
       (fun level ->
         let c = Cfg.deep_copy t in
         ignore (Pipeline.run machine { Config.default with Config.level } c);
         Validate.check_exn c;
         String.equal expected (observe c input))
       [ Config.Local; Config.Useful; Config.Speculative ]

(* Linear-scan allocation on a deliberately small register file: the
   allocated code must verify (disjoint intervals per physical
   register, within budget, evaluator-identical — spill storage lives
   in its own segment, so observables compare exactly). Random
   sampling: the soundness gaps the fuzzer found here (wild program
   addresses aliasing spill slots, CR spill capacity) are fixed and
   pinned as corpus fixtures in test_regalloc. *)
let prop_regalloc_verifies seed =
  let cfg, input = baseline_and_input seed in
  let scheduled = Cfg.deep_copy cfg in
  let config =
    { Config.speculative with Config.regalloc = true; regs = Some 8 }
  in
  let stats = Pipeline.run machine config scheduled in
  Validate.check_exn scheduled;
  match stats.Pipeline.regalloc with
  | None -> false
  | Some alloc -> (
      match
        Gis_regalloc.Regalloc.verify ~gprs:8 ~fprs:8 ~machine ~baseline:cfg
          ~allocated:scheduled alloc input
      with
      | Ok () -> true
      | Error _ -> false)

(* Dominators from the optimized algorithm agree with the naive
   reference on every generated CFG. *)
let prop_dominance seed =
  let cfg, _ = baseline_and_input seed in
  let flow = Gis_analysis.Flow.of_cfg ~entry:(Cfg.entry cfg) cfg in
  let dom = Gis_analysis.Dominance.compute flow in
  let naive = Gis_analysis.Dominance.naive_dominators flow in
  let ok = ref true in
  for a = 0 to flow.Gis_analysis.Flow.num_nodes - 1 do
    for b = 0 to flow.Gis_analysis.Flow.num_nodes - 1 do
      let fast = Gis_analysis.Dominance.dominates dom a b in
      let slow =
        (not (Gis_util.Ints.Int_set.is_empty naive.(b)))
        && Gis_util.Ints.Int_set.mem a naive.(b)
      in
      if fast <> slow then ok := false
    done
  done;
  !ok

(* Region dependence graphs are acyclic, and every edge goes from a
   node to one in the same or a reachable view node. *)
let prop_ddg_wellformed seed =
  let cfg, _ = baseline_and_input seed in
  let regions = Gis_analysis.Regions.compute cfg in
  List.for_all
    (fun region ->
      match Gis_analysis.Regions.view cfg regions region with
      | exception Invalid_argument _ -> true
      | view ->
          let ddg = Gis_ddg.Ddg.build cfg machine regions view in
          let reach =
            Gis_analysis.Flow.reachable_matrix view.Gis_analysis.Regions.flow
          in
          let ok = ref (Gis_ddg.Ddg.is_acyclic ddg) in
          Gis_ddg.Ddg.iter_edges
            (fun e ->
              let va = (Gis_ddg.Ddg.node ddg e.Gis_ddg.Ddg.src).Gis_ddg.Ddg.view_node in
              let vb = (Gis_ddg.Ddg.node ddg e.Gis_ddg.Ddg.dst).Gis_ddg.Ddg.view_node in
              if not reach.(va).(vb) then ok := false)
            ddg;
          !ok)
    (Gis_analysis.Regions.regions regions)

(* Memory disambiguation only ever removes constraints: every edge of
   the symbolically refined DDG is present in the conservative one, on
   every region of every generated program. Node indices agree because
   [sym] affects only the edge decisions, never the node layout. *)
let prop_disambig_subset seed =
  let cfg, _ = baseline_and_input seed in
  let sym = Gis_analysis.Symaddr.compute cfg in
  let regions = Gis_analysis.Regions.compute cfg in
  List.for_all
    (fun region ->
      match Gis_analysis.Regions.view cfg regions region with
      | exception Invalid_argument _ -> true
      | view ->
          let refined = Gis_ddg.Ddg.build ~sym cfg machine regions view in
          let conservative = Gis_ddg.Ddg.build cfg machine regions view in
          let cons = Hashtbl.create 64 in
          Gis_ddg.Ddg.iter_edges
            (fun (e : Gis_ddg.Ddg.edge) ->
              Hashtbl.replace cons
                (e.Gis_ddg.Ddg.src, e.Gis_ddg.Ddg.dst, e.Gis_ddg.Ddg.kind)
                ())
            conservative;
          let subset = ref true in
          Gis_ddg.Ddg.iter_edges
            (fun (e : Gis_ddg.Ddg.edge) ->
              if
                not
                  (Hashtbl.mem cons
                     ( e.Gis_ddg.Ddg.src,
                       e.Gis_ddg.Ddg.dst,
                       e.Gis_ddg.Ddg.kind ))
              then subset := false)
            refined;
          !subset
          && Gis_ddg.Ddg.num_edges refined
             <= Gis_ddg.Ddg.num_edges conservative)
    (Gis_analysis.Regions.regions regions)

(* Disambiguation-on schedules at every level and machine width are
   certified by the static checker (every pruned edge re-proved from
   the stage's own input by the independent checker-side analysis) and
   still reproduce the unscheduled observables. *)
let prop_disambig_checked seed =
  let cfg0, input = baseline_and_input seed in
  let expected = observe cfg0 input in
  List.for_all
    (fun (level, width) ->
      let m = Machine.superscalar ~width in
      let scheduled = Cfg.deep_copy cfg0 in
      let prov = Gis_obs.Provenance.create () in
      let collector =
        Gis_check.Check.collector ~prov
          ~max_speculation_degree:
            Config.default.Config.max_speculation_degree ()
      in
      let config =
        {
          Config.default with
          Config.level;
          prov = Some prov;
          check = Some (Gis_check.Check.hook collector);
        }
      in
      ignore (Pipeline.run m config scheduled);
      Validate.check_exn scheduled;
      Gis_check.Check.errors
        (List.concat_map snd (Gis_check.Check.diagnostics collector))
      = []
      && String.equal expected (observe scheduled input))
    [ (Config.Local, 1); (Config.Useful, 2); (Config.Speculative, 4) ]

(* The --no-disambig control configuration is itself sound. *)
let prop_no_disambig seed =
  preserves_observables
    ~config:{ Config.speculative with Config.disambiguate = false }
    seed

(* Liveness is a sound upper bound: running the program never reads a
   register that liveness considers dead at the entry... approximated
   here by the cheaper internal-consistency property live_in >=
   use U (live_out - def). *)
let prop_liveness_consistent seed =
  let cfg, _ = baseline_and_input seed in
  let live = Gis_analysis.Liveness.compute cfg in
  List.for_all
    (fun id ->
      let b = Cfg.block cfg id in
      let out = Gis_analysis.Liveness.live_out live id in
      let inn = Gis_analysis.Liveness.live_in live id in
      (* Successor consistency. *)
      List.for_all
        (fun (s, _) ->
          Reg.Set.subset (Gis_analysis.Liveness.live_in live s) out)
        (Cfg.successors cfg id)
      &&
      (* Transfer consistency: anything live out and not defined in the
         block is live in. *)
      let defs =
        List.concat_map Instr.defs (Block.instrs b) |> Reg.Set.of_list
      in
      Reg.Set.subset (Reg.Set.diff out defs) inn)
    (Cfg.layout cfg)

(* A liveness refreshed in the blocks that changed equals one computed
   afresh, on every block of the procedure. *)
let liveness_refresh_exact cfg live =
  let module L = Gis_analysis.Liveness in
  let fresh = L.compute cfg in
  List.for_all
    (fun id ->
      Reg.Set.equal (L.live_in live id) (L.live_in fresh id)
      && Reg.Set.equal (L.live_out live id) (L.live_out fresh id))
    (List.init (Cfg.num_blocks cfg) Fun.id)

(* Random edits of the kinds the scheduler makes, refreshed in batches:
   move a body instruction to the end of another block's body, rename a
   register everywhere to a fresh one (interning it widens the vectors),
   append a copy of a body instruction to a block. *)
let liveness_refresh_after_edits params seed =
  let cfg = (Random_prog.generate_compiled_with params ~seed).Codegen.cfg in
  let rng = Random.State.make [| seed |] in
  let live = Gis_analysis.Liveness.compute cfg in
  let blocks = Array.of_list (Cfg.layout cfg) in
  let any_block () = blocks.(Random.State.int rng (Array.length blocks)) in
  let any_body_instr () =
    let body id = Gis_util.Vec.to_list (Cfg.block cfg id).Block.body in
    let all =
      List.concat_map
        (fun id -> List.map (fun i -> (id, i)) (body id))
        (Array.to_list blocks)
    in
    match all with
    | [] -> None
    | _ -> Some (List.nth all (Random.State.int rng (List.length all)))
  in
  let edit () =
    match any_body_instr () with
    | None -> []
    | Some (src, i) -> (
        match Random.State.int rng 3 with
        | 0 ->
            let dst = any_block () in
            ignore (Block.remove_by_uid (Cfg.block cfg src) ~uid:(Instr.uid i));
            Gis_util.Vec.push (Cfg.block cfg dst).Block.body i;
            [ src; dst ]
        | 1 -> (
            match Instr.defs i with
            | [] -> []
            | r :: _ ->
                let r' = Cfg.fresh_reg cfg r.Reg.cls in
                let swap x = if Reg.equal x r then r' else x in
                List.filter
                  (fun id ->
                    let b = Cfg.block cfg id in
                    let mentions i =
                      List.exists (Reg.equal r) (Instr.defs i @ Instr.uses i)
                    in
                    let touched = List.exists mentions (Block.instrs b) in
                    Gis_util.Vec.iteri
                      (fun k i ->
                        Gis_util.Vec.set b.Block.body k (Instr.map_regs ~f:swap i))
                      b.Block.body;
                    b.Block.term <- Instr.map_regs ~f:swap b.Block.term;
                    touched)
                  (Array.to_list blocks))
        | _ ->
            let dst = any_block () in
            Gis_util.Vec.push (Cfg.block cfg dst).Block.body (Cfg.copy_instr cfg i);
            [ dst ])
  in
  List.for_all
    (fun _ ->
      let touched =
        List.concat (List.init (1 + Random.State.int rng 20) (fun _ -> edit ()))
      in
      Gis_analysis.Liveness.refresh live cfg touched;
      liveness_refresh_exact cfg live)
    (List.init 6 Fun.id)

let prop_liveness_refresh_edits seed =
  List.for_all
    (fun params -> liveness_refresh_after_edits params seed)
    [ Random_prog.default; Random_prog.hardened ]

(* The scheduler's own motions as the edit: liveness of the input,
   refreshed in every block whose instruction list a full-level
   pipeline run changed (blocks that unrolling added included), equals
   liveness of the output. *)
let prop_liveness_refresh_scheduler seed =
  List.for_all
    (fun params ->
      let input = (Random_prog.generate_compiled_with params ~seed).Codegen.cfg in
      let live = Gis_analysis.Liveness.compute (Cfg.deep_copy input) in
      let output = Cfg.deep_copy input in
      ignore (Pipeline.run machine Config.speculative output);
      let same i j =
        Instr.uid i = Instr.uid j && Instr.equal_kind (Instr.kind i) (Instr.kind j)
      in
      let unchanged id =
        id < Cfg.num_blocks input
        &&
        let a = Block.instrs (Cfg.block input id)
        and b = Block.instrs (Cfg.block output id) in
        List.length a = List.length b && List.for_all2 same a b
      in
      Gis_analysis.Liveness.refresh live output
        (List.filter
           (fun id -> not (unchanged id))
           (List.init (Cfg.num_blocks output) Fun.id));
      liveness_refresh_exact output live)
    [ Random_prog.default; Random_prog.hardened ]

(* The scheduler's address analysis and the checker's independent one
   must agree in precision: the same [delta] for every ordered pair of
   memory accesses, on a program as generated and again after a
   full-level pipeline run. *)
let address_analyses_agree cfg =
  let accesses =
    List.filter_map
      (fun i ->
        match Instr.kind i with
        | Instr.Load _ | Instr.Store _ -> Some (Instr.uid i)
        | _ -> None)
      (Cfg.all_instrs cfg)
  in
  let sym = Gis_analysis.Symaddr.compute cfg in
  let chk = Gis_check.Addrcheck.compute cfg in
  List.for_all
    (fun a ->
      List.for_all
        (fun b ->
          Gis_analysis.Symaddr.delta sym ~a ~b
          = Gis_check.Addrcheck.delta chk ~a ~b)
        accesses)
    accesses

let input_and_scheduled cfg =
  let scheduled = Cfg.deep_copy cfg in
  ignore (Pipeline.run machine Config.speculative scheduled);
  [ cfg; scheduled ]

let prop_address_analyses_agree seed =
  List.for_all
    (fun params ->
      let c = Random_prog.generate_compiled_with params ~seed in
      List.for_all address_analyses_agree
        (input_and_scheduled c.Codegen.cfg))
    [ Random_prog.default; Random_prog.hardened ]

let test_address_analyses_agree_on_proxies () =
  List.iter
    (fun (p : Spec_proxy.t) ->
      List.iter
        (fun cfg ->
          Alcotest.(check bool) p.Spec_proxy.name true (address_analyses_agree cfg))
        (input_and_scheduled (Spec_proxy.compile p).Codegen.cfg))
    Spec_proxy.all

(* The checker's indexed dependence reconstruction against the
   all-pairs scan it replaced (Deps_oracle): the same dependences in the
   same order, with disambiguation on and off. *)
let reconstruct_matches_oracle cfg =
  List.for_all
    (fun disambig ->
      Gis_check.Deps.reconstruct (Gis_check.Deps.of_cfg ~disambig cfg)
      = Deps_oracle.reconstruct ~disambig cfg)
    [ true; false ]

let prop_reconstruct_oracle seed =
  List.for_all
    (fun params ->
      let c = Random_prog.generate_compiled_with params ~seed in
      List.for_all reconstruct_matches_oracle (input_and_scheduled c.Codegen.cfg))
    [ Random_prog.default; Random_prog.hardened ]

let test_reconstruct_oracle_on_workloads () =
  List.iter
    (fun (name, (cfg, _)) ->
      List.iter
        (fun cfg -> Alcotest.(check bool) name true (reconstruct_matches_oracle cfg))
        (input_and_scheduled cfg))
    (Test_support.standard_programs ())

(* The pre-decoded simulator against the hash-table interpreter it
   replaced (Sim_oracle): every outcome field (spill memories, block
   counts, the whole telemetry with its trace events) and the final
   value of every register, over a machine matrix, tracing on and off,
   register-allocated code run through its frame, and fuel cut-offs. *)
let sim_machines =
  [
    Machine.rs6k;
    Machine.rs6k_detailed;
    Machine.superscalar ~width:4;
    Machine.make ~name:"lopsided-4/1/1" ~fixed_units:4 ~float_units:1
      ~branch_units:1 ();
    Machine.zero_delay_single_issue;
  ]

let outcome_fields (o : Simulator.outcome) =
  ( ( o.Simulator.stop,
      o.Simulator.cycles,
      o.Simulator.instructions,
      o.Simulator.output ),
    ( o.Simulator.final_memory,
      o.Simulator.final_float_memory,
      o.Simulator.final_spill_memory,
      o.Simulator.final_spill_float_memory ),
    o.Simulator.block_counts,
    o.Simulator.telemetry )

let sim_matches ?fuel ?(trace = false) ?frame m cfg (input : Simulator.input) =
  let got = Simulator.run ?fuel ~trace ?frame m cfg input in
  let want = Sim_oracle.run ?fuel ~trace ?frame m cfg input in
  let regs =
    List.concat_map (fun i -> Instr.uses i @ Instr.defs i) (Cfg.all_instrs cfg)
    @ List.map fst input.Simulator.int_regs
    @ List.map fst input.Simulator.float_regs
    @ Option.to_list frame
  in
  compare (outcome_fields got) (outcome_fields want) = 0
  && List.for_all (fun r -> got.Simulator.read_int r = want.Simulator.read_int r) regs

(* Every machine with tracing off and on; fuel cut at 0, at 1 and
   mid-run; and the register-allocated code (6 GPRs) through its
   frame. *)
let sim_matches_everywhere cfg input =
  List.for_all
    (fun m ->
      List.for_all (fun trace -> sim_matches ~trace m cfg input) [ false; true ])
    sim_machines
  && (let full = Simulator.run machine cfg input in
      List.for_all
        (fun fuel -> sim_matches ~fuel ~trace:true machine cfg input)
        [ 0; 1; full.Simulator.instructions / 2 ])
  &&
  let allocated = Cfg.deep_copy cfg in
  match Gis_regalloc.Regalloc.allocate ~gprs:6 machine allocated with
  | Error _ -> true
  | Ok t ->
      let input = Gis_regalloc.Regalloc.remap_input t input in
      List.for_all
        (fun trace ->
          sim_matches ~trace ?frame:t.Gis_regalloc.Regalloc.frame
            Machine.rs6k_detailed allocated input)
        [ false; true ]

let base_and_full cfg =
  List.map
    (fun config ->
      let c = Cfg.deep_copy cfg in
      ignore (Pipeline.run machine config c);
      c)
    [ Config.base; Config.speculative ]

let prop_sim_oracle seed =
  List.for_all
    (fun params ->
      let c = Random_prog.generate_compiled_with params ~seed in
      let input = Random_prog.random_input ~seed c in
      List.for_all
        (fun cfg -> sim_matches_everywhere cfg input)
        (base_and_full c.Codegen.cfg))
    [ Random_prog.default; Random_prog.hardened ]

let test_sim_oracle_on_workloads () =
  List.iter
    (fun (name, (cfg, input)) ->
      List.iter
        (fun cfg ->
          Alcotest.(check bool) name true (sim_matches_everywhere cfg input))
        (cfg :: base_and_full cfg))
    (Test_support.standard_programs ());
  let t = Minmax.build () in
  let input = Minmax.input t Test_support.minmax_elements in
  let header = t.Minmax.loop_header in
  List.iter
    (fun cfg ->
      List.iter
        (fun m ->
          Alcotest.(check (float 0.))
            ("minmax cycles per iteration on " ^ Machine.name m)
            (Sim_oracle.cycles_per_iteration m cfg ~header input)
            (Simulator.cycles_per_iteration m cfg ~header input))
        sim_machines)
    (t.Minmax.cfg :: base_and_full t.Minmax.cfg)

(* The frame register selects the spill segment by identity: a program
   base register holding the frame's value (both 0 here) must still
   reach program memory, and both segments hold a word and a double at
   the same addresses. *)
let test_sim_oracle_frame_identity () =
  let g = Reg.Gen.create () in
  let frame = Reg.Gen.fresh g Reg.Gpr in
  let base = Reg.Gen.fresh g Reg.Gpr in
  let x = Reg.Gen.fresh g Reg.Gpr in
  let y = Reg.Gen.fresh g Reg.Gpr in
  let f = Reg.Gen.fresh g Reg.Fpr in
  let h = Reg.Gen.fresh g Reg.Fpr in
  let cfg =
    Builder.func ~reg_gen:g
      [
        ( "A",
          Builder.
            [
              li ~dst:base 0;
              li ~dst:x 7;
              store ~src:x ~base ~offset:0;
              store ~src:f ~base ~offset:8;
              li ~dst:x 9;
              store ~src:x ~base:frame ~offset:0;
              store ~src:h ~base:frame ~offset:8;
              load ~dst:y ~base ~offset:0;
              load ~dst:h ~base ~offset:8;
              call "print_int" [ y; h ];
              load ~dst:y ~base:frame ~offset:0;
              load ~dst:h ~base:frame ~offset:8;
              call "print_int" [ y; h ];
            ],
          Instr.Halt );
      ]
  in
  let input =
    { Simulator.no_input with Simulator.float_regs = [ (f, 1.5); (h, 2.5) ] }
  in
  List.iter
    (fun m ->
      List.iter
        (fun trace ->
          Alcotest.(check bool) (Machine.name m) true
            (sim_matches ~trace ~frame m cfg input))
        [ false; true ])
    sim_machines

(* Reaching definitions against a path-walking reference: the sites
   reaching a use are the nearest definitions of its register on every
   backward path through laid-out blocks, plus [External] when some
   path reaches the start of the entry block without one. *)
let naive_reaching cfg =
  let laid_out = Hashtbl.create 64 in
  List.iter (fun id -> Hashtbl.replace laid_out id ()) (Cfg.layout cfg);
  let preds = Cfg.predecessors cfg in
  let entry = Cfg.entry cfg in
  (* Sites reaching the end of [instrs] (a block prefix, reversed), then
     the start of that block, backward. *)
  let walk reg ~block ~rev_prefix =
    let found = ref [] and seen = Hashtbl.create 16 in
    let add s = if not (List.mem s !found) then found := s :: !found in
    let rec from_end id rev_instrs =
      match List.find_opt (fun i -> List.exists (Reg.equal reg) (Instr.defs i)) rev_instrs with
      | Some i -> add (Gis_analysis.Reaching.Def (Instr.uid i))
      | None ->
          if not (Hashtbl.mem seen id) then begin
            Hashtbl.add seen id ();
            if id = entry then add Gis_analysis.Reaching.External;
            List.iter
              (fun p ->
                if Hashtbl.mem laid_out p then
                  from_end p (List.rev (Block.instrs (Cfg.block cfg p))))
              preds.(id)
          end
    in
    from_end block rev_prefix;
    !found
  in
  List.concat_map
    (fun id ->
      let rec go rev_prefix = function
        | [] -> []
        | i :: rest ->
            List.map
              (fun r -> ((Instr.uid i, r), walk r ~block:id ~rev_prefix))
              (Instr.uses i)
            @ go (i :: rev_prefix) rest
      in
      go [] (Block.instrs (Cfg.block cfg id)))
    (Cfg.layout cfg)

let reaching_matches_oracle cfg =
  let reaching = Gis_analysis.Reaching.compute cfg in
  let oracle = naive_reaching cfg in
  let sort l = List.sort_uniq compare l in
  let defs_ok =
    List.for_all
      (fun ((uid, reg), sites) ->
        sort (Gis_analysis.Reaching.defs_of_use reaching ~uid ~reg) = sort sites)
      oracle
  in
  let inverse_ok =
    List.for_all
      (fun i ->
        List.for_all
          (fun reg ->
            let uid = Instr.uid i in
            let expected =
              List.filter_map
                (fun ((use, r), sites) ->
                  if Reg.equal r reg && List.mem (Gis_analysis.Reaching.Def uid) sites
                  then Some use
                  else None)
                oracle
            in
            sort (Gis_analysis.Reaching.uses_of_def reaching ~uid ~reg)
            = sort expected)
          (Instr.defs i))
      (Cfg.all_instrs cfg)
  in
  defs_ok && inverse_ok

let prop_reaching_vs_naive seed =
  List.for_all
    (fun params ->
      let c = Random_prog.generate_compiled_with params ~seed in
      List.for_all reaching_matches_oracle (input_and_scheduled c.Codegen.cfg))
    [ Random_prog.default; Random_prog.hardened ]

(* The paper's minmax on random inputs at every level. *)
let prop_minmax_all_levels seed =
  let rng = Prng.create ~seed in
  let elements = List.init (2 * (2 + Prng.int rng 30)) (fun _ -> Prng.int rng 2000 - 1000) in
  let t = Minmax.build () in
  let input = Minmax.input t elements in
  let expected = observe t.Minmax.cfg input in
  List.for_all
    (fun level ->
      let c = Cfg.deep_copy t.Minmax.cfg in
      ignore
        (Pipeline.run machine
           { Config.default with Config.level } c);
      Validate.check_exn c;
      String.equal expected (observe c input))
    [ Config.Local; Config.Useful; Config.Speculative ]

(* The batch driver is deterministic in the worker count: scheduling a
   batch of random Tiny-C programs with one domain and with four must
   produce byte-identical results (code, observables, cycle counts, and
   the scrubbed JSON report). The seed picks the batch; the batch picks
   everything else. *)
let prop_driver_jobs_deterministic seed =
  let tasks =
    Gis_driver.Driver.corpus_tasks
      ~seeds:(List.init 6 (fun i -> (seed * 7) + i))
  in
  let run jobs =
    Gis_driver.Driver.run ~jobs machine Config.speculative tasks
  in
  let seq = run 1 and par = run 4 in
  let json r =
    Gis_obs.Json.to_string
      (Gis_driver.Driver.report_to_json ~deterministic:true r)
  in
  seq.Gis_driver.Driver.pool.Gis_driver.Driver.failed = 0
  && String.equal (json seq) (json par)

let () =
  Alcotest.run "gis_props"
    [
      ( "scheduling preserves observables",
        [
          qtest "local" 60 prop_local;
          qtest "useful" 60 prop_useful;
          qtest "speculative" 60 prop_speculative;
          qtest "no-rename" 40 prop_no_rename;
          qtest "no-prune" 40 prop_no_prune;
          qtest "no-transforms" 40 prop_no_transforms;
          qtest "wide machine" 40 prop_wide_machine;
          qtest "reschedule" 30 prop_reschedule;
          qtest "degree 2" 40 prop_degree_2;
          qtest "degree 3 + webs" 40 prop_degree_3_with_webs;
          qtest "webs" 40 prop_webs;
          qtest "profile-guided" 40 prop_profile_guided;
          qtest "detailed local machine" 40 prop_detailed_local_machine;
          qtest "duplication" 60 prop_duplication;
          qtest "duplication + everything" 40 prop_duplication_with_everything;
          qtest "no-disambig control" 40 prop_no_disambig;
        ] );
      ( "memory disambiguation",
        [
          qtest "pruned DDG is a subset" 40 prop_disambig_subset;
          qtest "checked at all levels x widths" 25 prop_disambig_checked;
          qtest "scheduler and checker analyses agree" 40
            prop_address_analyses_agree;
          Alcotest.test_case "analyses agree on the SPEC proxies" `Quick
            test_address_analyses_agree_on_proxies;
        ] );
      ( "dependence reconstruction",
        [
          qtest "Deps.reconstruct = all-pairs oracle" 40 prop_reconstruct_oracle;
          Alcotest.test_case "oracle on minmax and the SPEC proxies" `Quick
            test_reconstruct_oracle_on_workloads;
        ] );
      ( "simulator = oracle",
        [
          qtest "random programs, base and full" 15 prop_sim_oracle;
          Alcotest.test_case "minmax and the SPEC proxies" `Quick
            test_sim_oracle_on_workloads;
          Alcotest.test_case "frame routes by register identity" `Quick
            test_sim_oracle_frame_identity;
        ] );
      ( "transforms preserve observables",
        [
          qtest "unroll" 40 prop_unroll;
          qtest "rotate" 40 prop_rotate;
          qtest "unroll then rotate, all levels" 40
            prop_unroll_then_rotate_all_levels;
        ] );
      ( "register allocation",
        [ qtest "tight file verifies" 40 prop_regalloc_verifies ] );
      ( "batch driver determinism",
        [ qtest "jobs 1 = jobs 4" 12 prop_driver_jobs_deterministic ] );
      ( "analysis invariants",
        [
          qtest "dominance vs naive" 40 prop_dominance;
          qtest "ddg wellformed" 30 prop_ddg_wellformed;
          qtest "liveness consistent" 40 prop_liveness_consistent;
          qtest "reaching vs naive" 30 prop_reaching_vs_naive;
          qtest "minmax all levels" 30 prop_minmax_all_levels;
          qtest "liveness refresh = recompute, random edits" 30
            prop_liveness_refresh_edits;
          qtest "liveness refresh = recompute, scheduler motions" 30
            prop_liveness_refresh_scheduler;
        ] );
    ]
