(* The two workloads' program sets, built from source at set-up.

   Programs are fixed per workload; the run seed draws what the
   programs run on (the minmax input variant, the generated programs'
   array contents, the batch driver's simulation input) and the order
   in which each round visits the programs. Every program carries the
   observable output its unscheduled form produces on that input: read
   from the committed files under [expected/] for minmax and the four
   SPEC proxies, simulated here for the generated programs. *)

open Gis_frontend
open Gis_workloads
module Sim = Gis_sim.Simulator
module Driver = Gis_driver.Driver

let rs6k = Gis_machine.Machine.rs6k

type prog = {
  name : string;
  grammar : string;  (** where the source comes from *)
  prog_seed : int option;  (** generator seed, for generated programs *)
  why : string;  (** why the program is in the set *)
  source : string;  (** Tiny-C text; every operation compiles it afresh *)
  input : Sim.input;
  expected : string;  (** observables of the unscheduled program on [input] *)
  instrs : int;
  blocks : int;
}

type t = {
  progs : prog list;  (** smallest first *)
  tasks : Driver.task list;  (** the batch operation's task list *)
  batch_expected : (string * string) list;
      (** task name -> observables of the unscheduled program on the
          batch driver's input *)
  record : string list;  (** the workload-selection record *)
}

exception Setup_failed of string

let fail fmt = Fmt.kstr (fun s -> raise (Setup_failed s)) fmt
let batch_elements = 128

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let reference cfg input =
  let o = Sim.run rs6k cfg input in
  if o.Sim.stop <> Sim.Halted then
    fail "unscheduled reference did not halt: %a" Sim.pp_stop_reason o.Sim.stop;
  o

let reference_observables cfg input = Sim.observables (reference cfg input)

(* Observables on the batch driver's own input, so each task result can
   be checked too: the driver runs a generated task on the generator's
   input for its seed and every other task on [Driver.default_input]. *)
let batch_reference ~seed (t : Driver.task) =
  let compiled = Driver.compile_task t in
  reference_observables compiled.Codegen.cfg
    (match t.Driver.source with
    | Driver.Generated g -> Random_prog.random_input ~seed:g compiled
    | Driver.Tiny_c _ | Driver.Asm _ | Driver.File _ ->
        Driver.default_input compiled ~elements:batch_elements ~seed)

let make ~name ~grammar ?prog_seed ~why ~source ~input ~expected () =
  let c = Codegen.compile_string source in
  let cfg = c.Codegen.cfg in
  {
    name;
    grammar;
    prog_seed;
    why;
    source;
    input = input c;
    expected = expected c;
    instrs = Gis_ir.Cfg.instr_count cfg;
    blocks = Gis_ir.Cfg.num_blocks cfg;
  }

let record_line p =
  Fmt.str "  %-10s grammar=%s seed=%s blocks=%d instrs=%d why=%s" p.name
    p.grammar
    (match p.prog_seed with Some s -> string_of_int s | None -> "-")
    p.blocks p.instrs p.why

(* ------------------------------------------------------------------ *)
(* spec-proxies: minmax plus the paper's four SPEC proxies            *)
(* ------------------------------------------------------------------ *)

let minmax_variants = 8
let minmax_length = 256

let minmax_elements variant =
  let rng = Prng.create ~seed:(1000 + variant) in
  List.init minmax_length (fun _ -> Prng.int rng 2000 - 1000)

let minmax_input elements (c : Codegen.compiled) =
  {
    Sim.no_input with
    Sim.int_regs = [ (Codegen.var_reg c "n", List.length elements) ];
    memory = Codegen.array_input c [ ("a", elements) ];
  }

let expected_file dir name = Filename.concat dir (name ^ ".txt")

(* The minmax reference is also checked against the plain OCaml
   [Minmax.reference_min_max], which shares nothing with the simulator. *)
let check_minmax_output elements observed_output =
  let lo, hi = Minmax.reference_min_max elements in
  let want = List.map (Printf.sprintf "print_int(%d)") [ lo; hi ] in
  if observed_output <> want then
    fail "minmax prints [%s], Minmax.reference_min_max says [%s]"
      (String.concat "; " observed_output)
      (String.concat "; " want)

(* Sources and inputs of the spec-proxies set, with each program's
   expected-file name. Shared by set-up and by [write_expected]. *)
let spec_sources ~variant =
  let elements = minmax_elements variant in
  ( elements,
    ( Fmt.str "minmax-%d" variant,
      "minmax",
      Minmax.source,
      minmax_input elements,
      "Figures 1-2 running example; input variant = seed mod 8" )
    :: List.map
         (fun (p : Spec_proxy.t) ->
           ( p.Spec_proxy.name,
             p.Spec_proxy.name,
             p.Spec_proxy.source,
             p.Spec_proxy.setup,
             "Figure 7/8 SPEC proxy" ))
         Spec_proxy.all )

let spec_proxies ~dir ~seed =
  let variant = seed mod minmax_variants in
  let elements, sources = spec_sources ~variant in
  let progs =
    List.map
      (fun (file, name, source, input, why) ->
        let expected = read_file (expected_file dir file) in
        make ~name ~grammar:"paper" ~why ~source ~input
          ~expected:(fun c ->
            let o = reference c.Codegen.cfg (input c) in
            if Sim.observables o <> expected then
              fail "%s: unscheduled output differs from %s" name
                (expected_file dir file);
            if name = "minmax" then check_minmax_output elements o.Sim.output;
            expected)
          ())
      sources
  in
  let tasks = Driver.workload_tasks () in
  let batch_expected =
    List.map
      (fun t -> (t.Driver.name, batch_reference ~seed t))
      tasks
  in
  let progs =
    List.sort (fun a b -> compare a.instrs b.instrs) progs
  in
  {
    progs;
    tasks;
    batch_expected;
    record = Fmt.str "  minmax input variant %d (%d elements)" variant minmax_length
             :: List.map record_line progs;
  }

let write_expected dir =
  for variant = 0 to minmax_variants - 1 do
    let elements, sources = spec_sources ~variant in
    List.iter
      (fun (file, name, source, input, _) ->
        if variant = 0 || name = "minmax" then begin
          let c = Codegen.compile_string source in
          let o = reference c.Codegen.cfg (input c) in
          if name = "minmax" then check_minmax_output elements o.Sim.output;
          let path = expected_file dir file in
          let oc = open_out_bin path in
          output_string oc (Sim.observables o);
          close_out oc;
          Fmt.pr "wrote %s@." path
        end)
      sources
  done

(* ------------------------------------------------------------------ *)
(* large-procedure: one hardened-grammar program per size band        *)
(* ------------------------------------------------------------------ *)

type band = {
  band : string;
  lo : int;
  hi : int;
  body_len : int;  (** grammar knob that makes the band likely *)
  first_seed : int;  (** draws are first_seed, first_seed + 1, ... *)
}

let bands =
  [
    { band = "small"; lo = 80; hi = 160; body_len = 6; first_seed = 1000 };
    { band = "mid"; lo = 400; hi = 600; body_len = 24; first_seed = 2000 };
    { band = "large"; lo = 1000; hi = 1300; body_len = 40; first_seed = 3000 };
  ]

let max_draws = 200

let draw_band b =
  let params = { Random_prog.hardened with Random_prog.body_len = b.body_len } in
  let rec go k =
    if k = max_draws then
      fail "band %s [%d, %d]: no program in %d draws" b.band b.lo b.hi max_draws
    else
      let seed = b.first_seed + k in
      let source = Fmt.str "%a" Ast.pp_program (Random_prog.generate_with params ~seed) in
      match Codegen.compile_string source with
      | c ->
          let n = Gis_ir.Cfg.instr_count c.Codegen.cfg in
          if n >= b.lo && n <= b.hi then (seed, k + 1, source) else go (k + 1)
      | exception (Codegen.Error _ | Parser.Error _ | Lexer.Error _) -> go (k + 1)
  in
  go 0

let large_procedure ~seed =
  let progs =
    List.map
      (fun b ->
        let prog_seed, draws, source = draw_band b in
        make ~name:b.band
          ~grammar:(Fmt.str "hardened(body_len=%d)" b.body_len)
          ~prog_seed
          ~why:(Fmt.str "first of %d draws in band %d-%d instrs" draws b.lo b.hi)
          ~source
          ~input:(fun c -> Random_prog.random_input ~seed c)
          ~expected:(fun c ->
            reference_observables c.Codegen.cfg (Random_prog.random_input ~seed c))
          ())
      bands
  in
  (* largest first, so the pool starts the longest task at once *)
  let tasks =
    List.rev_map (fun p -> { Driver.name = p.name; source = Driver.Tiny_c p.source }) progs
  in
  let batch_expected =
    List.map (fun t -> (t.Driver.name, batch_reference ~seed t)) tasks
  in
  { progs; tasks; batch_expected; record = List.map record_line progs }
