(* The benchmark's operations, driven only through the libraries' public
   functions. Each returns the problems it found (an empty list is a
   pass) together with the figures the metrics need. Spans around the
   calls cost one branch each unless the traced run enabled them. *)

open Gis_ir
open Gis_core
open Gis_frontend
module Sim = Gis_sim.Simulator
module Driver = Gis_driver.Driver
module Check = Gis_check.Check
module Lint = Gis_check.Lint
module Bounds = Gis_bounds.Bounds
module Regalloc = Gis_regalloc.Regalloc

let rs6k = Progs.rs6k
let span = Spans.span

type level = Base | Full

let level_name = function Base -> "base" | Full -> "full"
let config = function Base -> Config.base | Full -> Config.speculative

let frontend (p : Progs.prog) =
  Label.reset_fresh_counter ();
  span ~layer:"frontend" "Codegen.compile_string" (fun () ->
      Codegen.compile_string p.Progs.source)

(* compile: source -> Codegen -> Pipeline.run, at one level. *)
let compile level p =
  let c = frontend p in
  let stats =
    span ~layer:"core" "Pipeline.run" (fun () ->
        Pipeline.run rs6k (config level) c.Codegen.cfg)
  in
  (c.Codegen.cfg, stats)

(* Every compile's emitted code is simulated (untimed) and compared with
   the program's expected output. *)
let run_emitted (p : Progs.prog) cfg =
  let o = Sim.run rs6k cfg p.Progs.input in
  let problems =
    if Sim.observables o = p.Progs.expected then []
    else [ "observable output differs from the expected output" ]
  in
  (o.Sim.cycles, problems)

type verdict = {
  v_problems : string list;
  v_cycles : int;  (** simulated cycles of the scheduled code *)
  v_dyn_instrs : int;  (** dynamic instructions over both simulations *)
  v_check : Check.stats;
  v_spill_instrs : int;
}

let errors_of what diags =
  match Check.errors diags with
  | [] -> []
  | e :: _ as es ->
      [
        Fmt.str "%s: %d error(s), first %s: %s" what (List.length es)
          e.Gis_check.Diagnostic.rule e.Gis_check.Diagnostic.message;
      ]

(* verdict: what CI asks of one program -- gisc check, gisc bound and
   the allocation leg. *)
let verdict (p : Progs.prog) =
  let c = frontend p in
  let cfg = c.Codegen.cfg in
  let lint_in = span ~layer:"check" "Lint.run" (fun () -> Lint.run cfg) in
  let reference = Cfg.deep_copy cfg in
  let col = Check.collector () in
  let hook ~stage ~pre ~post =
    span ~layer:"check" "Check.hook" (fun () -> Check.hook col ~stage ~pre ~post)
  in
  ignore
    (span ~layer:"core" "Pipeline.run" (fun () ->
         Pipeline.run rs6k { Config.speculative with Config.check = Some hook } cfg));
  let lint_out = span ~layer:"check" "Lint.run" (fun () -> Lint.run cfg) in
  let o_ref =
    span ~layer:"simulator" "Simulator.run" (fun () -> Sim.run rs6k reference p.Progs.input)
  in
  let o = span ~layer:"simulator" "Simulator.run" (fun () -> Sim.run rs6k cfg p.Progs.input) in
  let bound =
    span ~layer:"bounds" "Bounds.compute" (fun () ->
        Bounds.compute ~machine:rs6k ~halted:(o.Sim.stop = Sim.Halted) cfg o.Sim.telemetry)
  in
  let allocated = Cfg.deep_copy cfg in
  let alloc =
    span ~layer:"regalloc" "Regalloc.allocate" (fun () ->
        Regalloc.allocate ~gprs:6 rs6k allocated)
  in
  let alloc_problems, spill_instrs =
    match alloc with
    | Error e -> ([ "Regalloc.allocate: " ^ e ], 0)
    | Ok r -> (
        let v =
          span ~layer:"regalloc" "Regalloc.verify" (fun () ->
              Regalloc.verify ~gprs:6 ~machine:rs6k ~baseline:cfg ~allocated r
                p.Progs.input)
        in
        let spills = r.Regalloc.spill_loads + r.Regalloc.spill_stores in
        match v with Ok () -> ([], spills) | Error e -> ([ "Regalloc.verify: " ^ e ], spills))
  in
  let observed = Sim.observables o in
  let problems =
    errors_of "input lint" lint_in
    @ errors_of "checker" (List.concat_map snd (Check.diagnostics col))
    @ errors_of "final lint" lint_out
    @ (if Sim.observables o_ref = observed then []
       else [ "scheduled output differs from the unscheduled reference" ])
    @ (if observed = p.Progs.expected then []
       else [ "scheduled output differs from the expected output" ])
    @ (if Bounds.identity_holds bound then [] else [ "bounds identity violated" ])
    @ alloc_problems
  in
  {
    v_problems = problems;
    v_cycles = o.Sim.cycles;
    v_dyn_instrs = o_ref.Sim.instructions + o.Sim.instructions;
    v_check = Check.stats col;
    v_spill_instrs = spill_instrs;
  }

(* batch: one Driver.run over the workload's task list. Returns each
   task's problems. *)
let batch ~jobs ~seed (w : Progs.t) =
  let report =
    span ~layer:"driver" "Driver.run" (fun () ->
        Driver.run ~jobs ~simulate:true ~elements:Progs.batch_elements ~seed rs6k
          Config.speculative w.Progs.tasks)
  in
  let problems (r : Driver.task_result) =
    match r.Driver.outcome with
    | Error e -> [ Fmt.str "%a" Driver.pp_error e ]
    | Ok s when s.Driver.observables <> List.assoc r.Driver.task w.Progs.batch_expected ->
        [ "output differs from the expected output" ]
    | Ok _ -> []
  in
  (report, List.map (fun r -> (r.Driver.task, problems r)) report.Driver.results)

(* Standalone calls of the analysis entry points, the DDG builder, the
   local scheduler and the checker's own analyses, each on a copy of the
   program's input CFG. Traced run only. *)
type standalone = {
  prog : string;
  instrs : int;
  symaddr_words : int;  (** allocated by the one Symaddr.compute call *)
  ddg_edges : int;
  mem_kept : int;
  mem_pruned : int;
}

let standalone (p : Progs.prog) =
  let cfg = (frontend p).Codegen.cfg in
  let copy () = Cfg.deep_copy cfg in
  let open Gis_analysis in
  let w0 = Spans.minor_words () in
  let sym = span ~layer:"analysis" "Symaddr.compute" (fun () -> Symaddr.compute cfg) in
  let symaddr_words = Spans.minor_words () - w0 in
  ignore (span ~layer:"analysis" "Reaching.compute" (fun () -> Reaching.compute (copy ())));
  ignore (span ~layer:"analysis" "Liveness.compute" (fun () -> Liveness.compute (copy ())));
  let regions = span ~layer:"analysis" "Regions.compute" (fun () -> Regions.compute cfg) in
  let ddgs =
    span ~layer:"ddg" "Ddg.build" (fun () ->
        List.map
          (fun r -> Gis_ddg.Ddg.build ~sym cfg rs6k regions (Regions.view cfg regions r))
          (Regions.regions regions))
  in
  span ~layer:"core" "Local_sched.schedule_cfg" (fun () ->
      Local_sched.schedule_cfg rs6k (copy ()));
  ignore (span ~layer:"check" "Addrcheck.compute" (fun () -> Gis_check.Addrcheck.compute (copy ())));
  ignore
    (span ~layer:"check" "Deps.of_cfg" (fun () ->
         Gis_check.Deps.reconstruct (Gis_check.Deps.of_cfg (copy ()))));
  let sum f = List.fold_left (fun acc d -> acc + f d) 0 ddgs in
  {
    prog = p.Progs.name;
    instrs = Cfg.instr_count cfg;
    symaddr_words;
    ddg_edges = sum Gis_ddg.Ddg.num_edges;
    mem_kept = sum Gis_ddg.Ddg.mem_kept;
    mem_pruned = sum Gis_ddg.Ddg.mem_pruned;
  }
