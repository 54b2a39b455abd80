(* The compile-time and time-to-verdict benchmark.

     main.exe --workload spec-proxies|large-procedure
              --seed N --seconds S --trace 0|1
     main.exe --write-expected DIR

   Run from the repository root (perfbench/run.py builds and runs it).
   The timed run (--trace 0) measures the end-to-end metrics; the traced
   run (--trace 1) records spans around every public call and reports
   the per-layer metrics. The last line of standard output is one JSON
   object: {"correct", "attempted", "failed", "metrics"}. METRICS.md
   defines every name. *)

module Driver = Gis_driver.Driver
module Metrics = Gis_obs.Metrics

let pr fmt = Fmt.pr (fmt ^^ "@.")

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

(* Linear-interpolation quantile of an unsorted sample, q in [0, 1]. *)
let quantile xs q =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let h = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor h) in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5
let ms_of_ns ns = float_of_int ns /. 1e6
let mb_of_words w = float_of_int w *. 8. /. 1e6
let sum = List.fold_left ( + ) 0

(* ------------------------------------------------------------------ *)
(* Host-speed calibration                                              *)
(* ------------------------------------------------------------------ *)

(* On a shared host everything can run up to about 1.5x slower in phases
   of seconds to minutes. A fixed kernel of standard-library work (map
   inserts, hash-table updates, a sort; allocation-heavy like the
   compiler, and built from no repository code, so no change under test
   moves it) is timed between the operations, and every end-to-end time
   is rescaled to the host speed at which the kernel takes
   [reference_ms]. METRICS.md gives the measurements behind this. *)
module Int_map = Map.Make (Int)

let reference_ms = 40.

let kernel_ns () =
  let t0 = Spans.now_ns () in
  let rng = Random.State.make [| 42 |] in
  let m = ref Int_map.empty in
  for i = 0 to 30_000 do
    m := Int_map.add (Random.State.int rng 1_000_000) i !m
  done;
  let h = Hashtbl.create 16 in
  Int_map.iter
    (fun k v ->
      let b = k land 4095 in
      Hashtbl.replace h b (v :: Option.value ~default:[] (Hashtbl.find_opt h b)))
    !m;
  let l = List.sort compare (List.init 60_000 (fun _ -> Random.State.int rng 1_000_000)) in
  ignore
    (Sys.opaque_identity (Int_map.cardinal !m + Hashtbl.length h + List.length l));
  float_of_int (Spans.now_ns () - t0)

(* [x] measured while the kernel took [kernel] ns, as it would read at
   the reference speed. *)
let at_reference ~kernel x = x *. reference_ms /. (kernel /. 1e6)

(* The kernel's time around [at]: the median of the three kernel runs
   nearest to it. [kernels] holds (start ns, duration ns). *)
let kernel_near kernels at =
  List.sort (fun (a, _) (b, _) -> compare (abs (a - at)) (abs (b - at))) kernels
  |> List.filteri (fun i _ -> i < 3)
  |> List.map snd |> median

(* A sample (end ns, duration ns) rescaled by the kernel runs nearest to it. *)
let rescale kernels (at, ns) = at_reference ~kernel:(kernel_near kernels at) ns

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type workload = { name : string; build : dir:string -> seed:int -> Progs.t }

let workloads =
  [
    { name = "spec-proxies"; build = (fun ~dir ~seed -> Progs.spec_proxies ~dir ~seed) };
    { name = "large-procedure"; build = (fun ~dir:_ ~seed -> Progs.large_procedure ~seed) };
  ]

let jobs = Domain.recommended_domain_count ()

(* ------------------------------------------------------------------ *)
(* Bookkeeping: failures and the determinism guard                     *)
(* ------------------------------------------------------------------ *)

type book = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;  (** newest first, capped *)
  mutable drift : string list;
  counted : (string, string) Hashtbl.t;  (** first value of each counted figure *)
}

let book () =
  { attempted = 0; failed = 0; errors = []; drift = []; counted = Hashtbl.create 64 }

let note b what problems =
  b.attempted <- b.attempted + 1;
  if problems <> [] then begin
    b.failed <- b.failed + 1;
    if List.length b.errors < 20 then
      b.errors <- Fmt.str "%s: %s" what (String.concat "; " problems) :: b.errors
  end

(* Counted figures must repeat exactly; a drift is an error, never
   averaged away. *)
let guard b key value =
  match Hashtbl.find_opt b.counted key with
  | None -> Hashtbl.replace b.counted key value
  | Some v when v = value -> ()
  | Some v -> b.drift <- Fmt.str "%s: %s then %s" key v value :: b.drift

(* Across runs: the counted figures of every run of this binary are kept
   in a file keyed by the executable's digest, so another build never
   compares against them. *)
let guard_across_runs b ~out_dir ~workload =
  let path =
    Filename.concat out_dir
      (Fmt.str "counted-%s-%s.txt" workload
         (Digest.to_hex (Digest.file Sys.executable_name)))
  in
  let previous = Hashtbl.create 64 in
  if Sys.file_exists path then begin
    let ic = open_in path in
    (try
       while true do
         match String.split_on_char '\t' (input_line ic) with
         | [ k; v ] -> Hashtbl.replace previous k v
         | _ -> ()
       done
     with End_of_file -> ());
    close_in ic
  end;
  Hashtbl.iter
    (fun k v ->
      match Hashtbl.find_opt previous k with
      | Some p when p <> v ->
          b.drift <- Fmt.str "%s: %s in an earlier run, %s now" k p v :: b.drift
      | Some _ | None -> Hashtbl.replace previous k v)
    b.counted;
  let oc = open_out path in
  Hashtbl.iter (fun k v -> Printf.fprintf oc "%s\t%s\n" k v) previous;
  close_out oc

let timed f =
  let w0 = Spans.minor_words () in
  let t0 = Spans.now_ns () in
  let r = f () in
  let t1 = Spans.now_ns () in
  (r, t1 - t0, Spans.minor_words () - w0)

(* Run one operation under its root span; an exception is a failure of
   that operation, never of the benchmark. *)
let attempt b what f =
  match timed (fun () -> Spans.span ~layer:"bench" what f) with
  | r, ns, words -> Some (r, ns, words)
  | exception e ->
      note b what [ Printexc.to_string e ];
      None

(* ------------------------------------------------------------------ *)
(* Operations with their checks                                        *)
(* ------------------------------------------------------------------ *)

type samples = {
  mutable base_ns : float list;
  mutable full_ns : float list;
  per_prog : (string * string, (int * float) list) Hashtbl.t;
      (** (operation, program) -> that program's samples of that operation,
          as (end ns, duration ns) *)
  mutable full_words_round : int;
  cycles : (Ops.level * string, int) Hashtbl.t;  (** per program, guarded equal across rounds *)
  mutable verdict_ns : float list;
  mutable batch_ns : (int * float) list;  (** (end ns, duration ns) *)
  mutable batch_tasks : int;
  mutable kernels : (int * float) list;  (** calibration runs: (start ns, duration ns) *)
  keep : bool;
      (** keep the operations' results below (traced rounds only, so the
          timed run's heap holds nothing that grows with its length) *)
  mutable phases : Gis_obs.Span.t list list;  (** full-level phase spans *)
  mutable full_stats : Gis_core.Pipeline.stats list;
  mutable verdicts : Ops.verdict list;
  mutable reports : Driver.report list;
}

let samples ?(keep = false) () =
  {
    keep;
    base_ns = [];
    full_ns = [];
    per_prog = Hashtbl.create 16;
    full_words_round = 0;
    cycles = Hashtbl.create 64;
    verdict_ns = [];
    batch_ns = [];
    batch_tasks = 0;
    kernels = [];
    phases = [];
    full_stats = [];
    verdicts = [];
    reports = [];
  }

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let add_sample s op (p : Progs.prog) ns =
  let key = (op, p.Progs.name) in
  Hashtbl.replace s.per_prog key
    ((Spans.now_ns (), float_of_int ns)
    :: Option.value ~default:[] (Hashtbl.find_opt s.per_prog key))

(* One pass over the program set, as the sum of each program's median of
   [value] over its samples: a pooled median would sit on whichever
   program holds the middle rank and jump between programs whose times
   overlap. *)
let set_ms s op value =
  Hashtbl.fold
    (fun (o, _) xs acc -> if o = op then acc +. (median (List.map value xs) /. 1e6) else acc)
    s.per_prog 0.

(* Run the kernel before an operation unless it ran in the last half
   second. *)
let calibrate s =
  let now = Spans.now_ns () in
  match s.kernels with
  | (at, _) :: _ when now - at < 500_000_000 -> ()
  | _ -> s.kernels <- (now, kernel_ns ()) :: s.kernels

let compile_op b s ~seed level (p : Progs.prog) =
  let lv = Ops.level_name level in
  let what = Fmt.str "compile.%s" lv in
  match attempt b what (fun () -> Ops.compile level p) with
  | None -> ()
  | Some ((cfg, stats), ns, words) ->
      let cycles, problems = Ops.run_emitted p cfg in
      note b (Fmt.str "%s %s" what p.Progs.name) problems;
      guard b (Fmt.str "cycles.%s.%s.seed%d" lv p.Progs.name seed) (string_of_int cycles);
      Hashtbl.replace s.cycles (level, p.Progs.name) cycles;
      add_sample s what p ns;
      (match level with
      | Ops.Base -> s.base_ns <- float_of_int ns :: s.base_ns
      | Ops.Full ->
          guard b (Fmt.str "alloc_words.full.%s" p.Progs.name) (string_of_int words);
          s.full_ns <- float_of_int ns :: s.full_ns;
          s.full_words_round <- s.full_words_round + words;
          if s.keep then begin
            s.phases <- stats.Gis_core.Pipeline.phases :: s.phases;
            s.full_stats <- stats :: s.full_stats
          end)

let verdict_op b s ~seed (p : Progs.prog) =
  match attempt b "verdict" (fun () -> Ops.verdict p) with
  | None -> ()
  | Some (v, ns, _) ->
      note b (Fmt.str "verdict %s" p.Progs.name) v.Ops.v_problems;
      guard b
        (Fmt.str "verdict_cycles.%s.seed%d" p.Progs.name seed)
        (string_of_int v.Ops.v_cycles);
      s.verdict_ns <- float_of_int ns :: s.verdict_ns;
      add_sample s "verdict" p ns;
      if s.keep then s.verdicts <- v :: s.verdicts

let batch_op ?(jobs = jobs) b s ~seed (w : Progs.t) =
  match attempt b "batch" (fun () -> Ops.batch ~jobs ~seed w) with
  | None -> ()
  | Some ((report, tasks), ns, _) ->
      List.iter (fun (task, problems) -> note b ("batch task " ^ task) problems) tasks;
      s.batch_ns <- (Spans.now_ns (), float_of_int ns) :: s.batch_ns;
      s.batch_tasks <- List.length tasks;
      if s.keep then s.reports <- report :: s.reports

(* A BASE compile costs about a tenth of a full one, so each round takes
   three of them per program: BASE medians of a few long rounds steady. *)
let compile_round b s rng ~seed (w : Progs.t) =
  s.full_words_round <- 0;
  List.iter
    (fun p ->
      List.iter
        (fun level ->
          calibrate s;
          compile_op b s ~seed level p)
        (shuffle rng [ Ops.Base; Ops.Base; Ops.Base; Ops.Full ]))
    (shuffle rng w.Progs.progs);
  guard b "full_alloc_words" (string_of_int s.full_words_round)

let verdict_round b s rng ~seed (w : Progs.t) =
  List.iter
    (fun p ->
      calibrate s;
      verdict_op b s ~seed p)
    (shuffle rng w.Progs.progs)

(* One round: every program compiled at both levels, one verdict each,
   then one batch; the calibration kernel runs before an operation when
   its last run is half a second old. Operation kinds interleave so that each metric's
   samples spread over the whole run. Callers start every round from a
   collected heap so that none pays for another's garbage. *)
let round b s rng ~seed w =
  compile_round b s rng ~seed w;
  verdict_round b s rng ~seed w;
  Gc.full_major ();
  calibrate s;
  batch_op b s ~seed w

(* Repeat [round] until [budget_ns] has passed; at least once. *)
let for_budget budget_ns round =
  let t0 = Spans.now_ns () in
  round ();
  while Spans.now_ns () - t0 < budget_ns do
    round ()
  done

let cycles_of s level =
  Hashtbl.fold (fun (l, _) c acc -> if l = level then acc + c else acc) s.cycles 0

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

let warm_up (w : Progs.t) ~seed =
  let b = book () and s = samples () in
  let p = List.hd w.Progs.progs in
  compile_op b s ~seed Ops.Base p;
  compile_op b s ~seed Ops.Full p;
  verdict_op b s ~seed p

let set_up wl ~dir ~seed =
  let w = wl.build ~dir ~seed in
  warm_up w ~seed;
  w

let print_record wl (w : Progs.t) ~seed =
  pr "workload %s, seed %d, %d domains for batch" wl.name seed jobs;
  pr "selection record:";
  List.iter (fun l -> pr "%s" l) w.Progs.record

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let emit ~correct b metrics =
  let metric (name, unit, value) =
    Fmt.str "%S: {\"value\": %s, \"unit\": %S}" name (Printf.sprintf "%.17g" value) unit
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct (max 1 b.attempted) b.failed
    (String.concat ", " (List.map metric metrics))

let report_problems b =
  List.iter (fun e -> Fmt.epr "failed: %s@." e) (List.rev b.errors);
  List.iter (fun d -> Fmt.epr "determinism drift: %s@." d) (List.rev b.drift);
  pr "failed_ratio %.6f (%d of %d operations)"
    (float_of_int b.failed /. float_of_int (max 1 b.attempted))
    b.failed b.attempted

(* ------------------------------------------------------------------ *)
(* Timed run: the end-to-end metrics                                   *)
(* ------------------------------------------------------------------ *)

let timed_run wl ~dir ~out_dir ~seed ~seconds =
  ignore (kernel_ns ());
  let setups, setup_kernels =
    List.split
      (List.init 5 (fun _ ->
           Gc.full_major ();
           let k = kernel_ns () in
           (timed (fun () -> set_up wl ~dir ~seed), k)))
  in
  let w, _, _ = List.hd setups in
  let setup_ns = List.map (fun (_, ns, _) -> float_of_int ns) setups in
  print_record wl w ~seed;
  let b = book () and s = samples () in
  let rng = Random.State.make [| seed |] in
  for_budget (seconds * 1_000_000_000) (fun () ->
      Gc.full_major ();
      round b s rng ~seed w);
  let peak_heap_mb = mb_of_words (Gc.quick_stat ()).Gc.top_heap_words in
  guard_across_runs b ~out_dir ~workload:wl.name;
  let ms xs = List.map (fun ns -> ns /. 1e6) xs in
  (* printed only: the highest percentile with 10 samples beyond it *)
  let describe what xs =
    let n = List.length xs in
    pr "%-14s %4d samples  p50 %9.3f ms  %s" what n (median (ms xs))
      (if n < 11 then "no tail (under 11 samples)"
       else
         let q = float_of_int (n - 11) /. float_of_int (n - 1) in
         Fmt.str "tail p%.1f %9.3f ms (10 beyond)" (100. *. q) (quantile (ms xs) q))
  in
  describe "compile.base" s.base_ns;
  describe "compile.full" s.full_ns;
  describe "verdict" s.verdict_ns;
  let batch_rate value =
    median (List.map (fun x -> float_of_int s.batch_tasks /. (value x /. 1e9)) s.batch_ns)
  in
  pr "batch          %4d samples of %d tasks, jobs=%d" (List.length s.batch_ns) s.batch_tasks jobs;
  pr "setup          %s s" (String.concat " " (List.map (fun (_, ns, _) -> Fmt.str "%.3f" (float_of_int ns /. 1e9)) setups));
  pr "%-10s %12s %12s %12s %8s %8s" "program" "base ms p50" "full ms p50" "verdict p50"
    "cyc base" "cyc full";
  List.iter
    (fun (p : Progs.prog) ->
      let cyc l = Option.value ~default:(-1) (Hashtbl.find_opt s.cycles (l, p.Progs.name)) in
      let p50 op =
        match Hashtbl.find_opt s.per_prog (op, p.Progs.name) with
        | Some xs -> median (List.map snd xs) /. 1e6
        | None -> nan
      in
      pr "%-10s %12.3f %12.3f %12.3f %8d %8d" p.Progs.name (p50 "compile.base")
        (p50 "compile.full") (p50 "verdict") (cyc Ops.Base) (cyc Ops.Full))
    w.Progs.progs;
  let rescale = rescale s.kernels in
  let set op = (set_ms s op snd, set_ms s op rescale) in
  (* name, unit, (wall-clock value, value at the reference speed) *)
  let timings =
    [
      ( "setup_s",
        "s",
        ( median setup_ns /. 1e9,
          median (List.map2 (fun ns kernel -> at_reference ~kernel ns) setup_ns setup_kernels) /. 1e9 ) );
      ("full_compile_set_ms", "ms", set "compile.full");
      ("base_compile_set_ms", "ms", set "compile.base");
      ("verdict_set_ms", "ms", set "verdict");
      ("batch_programs_per_s", "prog/s", (batch_rate snd, batch_rate rescale));
    ]
  in
  let kernel_ms ks = median ks /. 1e6 in
  pr "calibration kernel: median %.3f ms over %d runs in the loop, %.3f ms over %d at set-up"
    (kernel_ms (List.map snd s.kernels)) (List.length s.kernels) (kernel_ms setup_kernels)
    (List.length setup_kernels);
  pr "  %-22s %14s %14s" "timing" "wall clock" "at reference";
  List.iter (fun (n, u, (wall, r)) -> pr "  %-22s %14.4f %14.4f %s" n wall r u) timings;
  let counted =
    [
      ("full_alloc_mb", "MB", mb_of_words s.full_words_round);
      ("peak_heap_mb", "MB", peak_heap_mb);
      ("cycles_base", "cycles", float_of_int (cycles_of s Ops.Base));
      ("cycles_full", "cycles", float_of_int (cycles_of s Ops.Full));
    ]
  in
  List.iter (fun (n, u, v) -> pr "  %-22s %14.4f %s" n v u) counted;
  let metrics = List.map (fun (n, u, (_, r)) -> (n, u, r)) timings @ counted in
  report_problems b;
  emit ~correct:(b.failed = 0 && b.drift = []) b metrics

(* ------------------------------------------------------------------ *)
(* Traced run: the per-layer metrics                                   *)
(* ------------------------------------------------------------------ *)

(* What one traced round (every program compiled at BASE and at full,
   one verdict each, one batch, plus the standalone layer calls) gives
   besides its spans. *)
type traced_round = {
  s : samples;
  standalone : Ops.standalone list;
  minor_collections : int;
  major_collections : int;
  ops : int;
}

(* Median of a log2 microsecond histogram: the upper edge of the bucket
   holding the middle observation (bucket i spans [2^(i-1), 2^i)). *)
let histogram_p50 (v : Metrics.histogram_view) =
  let half = (v.Metrics.count + 1) / 2 in
  let rec go acc = function
    | [] -> nan
    | (i, c) :: rest -> if acc + c >= half then Float.pow 2. (float_of_int i) else go (acc + c) rest
  in
  go 0 v.Metrics.buckets

let print_layer_table selves =
  let root_name = Hashtbl.create 256 in
  List.iter
    (fun (x : Spans.self) ->
      if x.Spans.s.Spans.parent < 0 then Hashtbl.replace root_name x.Spans.s.Spans.op x.Spans.s.Spans.name)
    selves;
  let by = Hashtbl.create 64 in
  List.iter
    (fun (x : Spans.self) ->
      let kind = Hashtbl.find root_name x.Spans.s.Spans.op in
      let key = (kind, x.Spans.s.Spans.layer) in
      Hashtbl.replace by key (x.Spans.self_ns + Option.value ~default:0 (Hashtbl.find_opt by key)))
    selves;
  let kinds = List.sort_uniq compare (Hashtbl.fold (fun (k, _) _ acc -> k :: acc) by []) in
  pr "self time by layer (all traced rounds):";
  List.iter
    (fun kind ->
      let layers =
        Hashtbl.fold (fun (k, l) ns acc -> if k = kind then (l, ns) :: acc else acc) by []
        |> List.sort (fun (_, a) (_, b) -> compare b a)
      in
      let total = sum (List.map snd layers) in
      pr "  %-12s %s" kind
        (String.concat "  "
           (List.map
              (fun (l, ns) ->
                Fmt.str "%s %.1f%%" l (100. *. float_of_int ns /. float_of_int (max 1 total)))
              layers)))
    kinds

(* Motion figures of some full-level compiles. *)
type motions = {
  useful : int;
  speculative : int;
  blocked : int;
  scheduled : int;  (** region reports of both passes that were scheduled *)
  regions : int;  (** all region reports of both passes *)
}

let motions stats =
  let open Gis_core in
  let moves = List.concat_map Pipeline.moves stats in
  let reports = List.concat_map (fun st -> st.Pipeline.pass1 @ st.Pipeline.pass2) stats in
  let speculative = List.length (List.filter (fun m -> m.Global_sched.speculative) moves) in
  {
    useful = List.length moves - speculative;
    speculative;
    blocked = sum (List.map (fun r -> List.length r.Global_sched.blocked) reports);
    scheduled = List.length (List.filter (fun r -> r.Global_sched.scheduled) reports);
    regions = List.length reports;
  }

let traced_run wl ~dir ~out_dir ~seed ~seconds =
  let w = set_up wl ~dir ~seed in
  print_record wl w ~seed;
  let b_plain = book () and b_traced = book () in
  let rng = Random.State.make [| seed |] in
  let plain = samples () in
  let rounds = ref [] in
  let np = List.length w.Progs.progs in
  let round b s = round b s rng ~seed w in
  let traced_round () =
    let s = samples ~keep:true () in
    Gc.full_major ();
    let g0 = Gc.quick_stat () in
    Metrics.enable ();
    Spans.enabled := true;
    round b_traced s;
    let standalone =
      List.filter_map
        (fun p ->
          match attempt b_traced "standalone" (fun () -> Ops.standalone p) with
          | Some (x, _, _) -> Some x
          | None -> None)
        (shuffle rng w.Progs.progs)
    in
    Spans.enabled := false;
    Metrics.disable ();
    let g1 = Gc.quick_stat () in
    let r =
      {
        s;
        standalone;
        minor_collections = g1.Gc.minor_collections - g0.Gc.minor_collections;
        major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
        ops = (6 * np) + 1;
      }
    in
    rounds := r :: !rounds;
    (* counted per-layer figures repeat exactly from round to round *)
    let m = motions r.s.full_stats in
    List.iter
      (fun (k, v) -> guard b_traced k (string_of_int v))
      [
        ("frontend.instrs", sum (List.map (fun x -> x.Ops.instrs) standalone));
        ("ddg.edges", sum (List.map (fun x -> x.Ops.ddg_edges) standalone));
        ("core.moves_useful", m.useful);
        ("core.moves_speculative", m.speculative);
        ("core.blocked", m.blocked);
        ("check.deps_checked", sum (List.map (fun v -> v.Ops.v_check.Gis_check.Check.deps_checked) r.s.verdicts));
      ]
  in
  Metrics.reset ();
  Spans.clear ();
  let plain_round () =
    Gc.full_major ();
    round b_plain plain
  in
  (* untraced and traced rounds alternate, each going first in turn *)
  let pairs = ref 0 in
  for_budget (seconds * 1_000_000_000) (fun () ->
      if !pairs mod 2 = 0 then (plain_round (); traced_round ())
      else (traced_round (); plain_round ());
      incr pairs);
  let jobs1 = samples () in
  batch_op ~jobs:1 b_plain jobs1 ~seed w;
  let rounds = List.rev !rounds in
  let nr = float_of_int (List.length rounds) in
  let selves = Spans.selves () in
  let violations = Spans.accounting_violations selves in
  Spans.write_jsonl (Filename.concat out_dir (Fmt.str "spans-%s-seed%d.jsonl" wl.name seed));
  guard_across_runs b_plain ~out_dir ~workload:(wl.name ^ "-plain");
  guard_across_runs b_traced ~out_dir ~workload:(wl.name ^ "-traced");
  (* figures from the spans: per traced round *)
  let self_of name =
    List.fold_left
      (fun (ns, words) (x : Spans.self) ->
        if x.Spans.s.Spans.name = name then (ns + x.Spans.self_ns, words + x.Spans.self_words)
        else (ns, words))
      (0, 0) selves
  in
  let ms name = ms_of_ns (fst (self_of name)) /. nr in
  let mb name = mb_of_words (snd (self_of name)) /. nr in
  let all f = List.concat_map f rounds in
  let per_round f = float_of_int (sum (List.map f rounds)) /. nr in
  let phase_ms name =
    1e3
    *. List.fold_left
         (fun acc phases ->
           match Gis_obs.Span.find phases name with
           | Some sp -> acc +. sp.Gis_obs.Span.seconds
           | None -> acc)
         0. (all (fun r -> r.s.phases))
    /. nr
  in
  let m = motions (all (fun r -> r.s.full_stats)) in
  let moved = m.useful + m.speculative in
  let standalone = all (fun r -> r.standalone) in
  let kept = sum (List.map (fun x -> x.Ops.mem_kept) standalone) in
  let pruned = sum (List.map (fun x -> x.Ops.mem_pruned) standalone) in
  let verdicts = all (fun r -> r.s.verdicts) in
  let vsum f = float_of_int (sum (List.map f verdicts)) /. nr in
  let sim_ns = fst (self_of "Simulator.run") in
  let traced_reports = all (fun r -> r.s.reports) in
  let fsum l = List.fold_left ( +. ) 0. l in
  (* every program has the same number of samples at each level *)
  let mean l = fsum l /. float_of_int (max 1 (List.length l)) in
  let cyc l = float_of_int (cycles_of plain l) in
  let ratio a b = if b = 0. then 0. else a /. b in
  let metrics =
    [
      ("frontend.compile_ms", "ms", ms "Codegen.compile_string");
      ("frontend.instrs", "count", per_round (fun r -> sum (List.map (fun x -> x.Ops.instrs) r.standalone)));
      ("analysis.symaddr_ms", "ms", ms "Symaddr.compute");
      ("analysis.symaddr_mb", "MB", mb "Symaddr.compute");
      ("analysis.reaching_ms", "ms", ms "Reaching.compute");
      ("analysis.reaching_mb", "MB", mb "Reaching.compute");
      ("analysis.liveness_ms", "ms", ms "Liveness.compute");
      ("analysis.regions_ms", "ms", ms "Regions.compute");
      ("ddg.build_ms", "ms", ms "Ddg.build");
      ("ddg.edges", "count", per_round (fun r -> sum (List.map (fun x -> x.Ops.ddg_edges) r.standalone)));
      ("ddg.mem_pruned_ratio", "ratio", ratio (float_of_int pruned) (float_of_int (pruned + kept)));
      ("core.unroll_ms", "ms", phase_ms "unroll");
      ("core.global_pass1_ms", "ms", phase_ms "global-pass1");
      ("core.rotate_ms", "ms", phase_ms "rotate");
      ("core.global_pass2_ms", "ms", phase_ms "global-pass2");
      ("core.local_ms", "ms", phase_ms "local");
      ("core.local_sched_ms", "ms", ms "Local_sched.schedule_cfg");
      ("core.moves_useful", "count", float_of_int m.useful /. nr);
      ("core.moves_speculative", "count", float_of_int m.speculative /. nr);
      ("core.blocked", "count", float_of_int m.blocked /. nr);
      ("core.motion_yield", "ratio", ratio (float_of_int moved) (float_of_int (moved + m.blocked)));
      ("core.regions_scheduled", "count", float_of_int m.scheduled /. nr);
      ("core.regions_skipped", "count", float_of_int (m.regions - m.scheduled) /. nr);
      ("core.cto_pct", "%", 100. *. (ratio (mean plain.full_ns) (mean plain.base_ns) -. 1.));
      ("core.rti_pct", "%", 100. *. (1. -. ratio (cyc Ops.Full) (cyc Ops.Base)));
      ("simulator.run_ms", "ms", ms "Simulator.run");
      ( "simulator.instrs_per_s",
        "instr/s",
        ratio (float_of_int (sum (List.map (fun v -> v.Ops.v_dyn_instrs) verdicts))) (float_of_int sim_ns /. 1e9) );
      ("simulator.mb", "MB", mb "Simulator.run");
      ("check.stages_ms", "ms", ms "Check.hook");
      ("check.lint_ms", "ms", ms "Lint.run");
      ("check.addrcheck_ms", "ms", ms "Addrcheck.compute");
      ("check.deps_ms", "ms", ms "Deps.of_cfg");
      ("check.deps_checked", "count", vsum (fun v -> v.Ops.v_check.Gis_check.Check.deps_checked));
      ("check.motions_classified", "count", vsum (fun v -> v.Ops.v_check.Gis_check.Check.motions_classified));
      ("bounds.compute_ms", "ms", ms "Bounds.compute");
      ("bounds.compute_mb", "MB", mb "Bounds.compute");
      ("regalloc.allocate_ms", "ms", ms "Regalloc.allocate");
      ("regalloc.verify_ms", "ms", ms "Regalloc.verify");
      ("regalloc.spill_instrs", "count", vsum (fun v -> v.Ops.v_spill_instrs));
      ( "driver.utilization",
        "ratio",
        fsum (List.map (fun r -> Driver.utilization r.Driver.pool) traced_reports)
        /. float_of_int (max 1 (List.length traced_reports)) );
      ( "driver.queue_wait_us_p50",
        "us",
        histogram_p50 (Metrics.histogram_stats (Metrics.histogram "driver.queue_wait_us")) );
      ( "driver.task_ms_p50",
        "ms",
        1e3
        *. median
             (List.concat_map
                (fun r -> List.map (fun t -> t.Driver.seconds) r.Driver.results)
                traced_reports) );
      ( "driver.speedup_vs_jobs1",
        "ratio",
        ratio (median (List.map snd jobs1.batch_ns)) (median (List.map snd plain.batch_ns)) );
      ( "gc.minor_collections",
        "count",
        per_round (fun r -> r.minor_collections) /. per_round (fun r -> r.ops) );
      ( "gc.major_collections",
        "count",
        per_round (fun r -> r.major_collections) /. per_round (fun r -> r.ops) );
    ]
  in
  pr "%d traced rounds (plus as many untraced)" (List.length rounds);
  print_layer_table selves;
  pr "  (Regalloc.verify's own time includes the two functional simulations it runs)";
  pr "Symaddr.compute per call: %s"
    (String.concat ", "
       (List.map
          (fun x -> Fmt.str "%s %d instrs %.1f MB" x.Ops.prog x.Ops.instrs (mb_of_words x.Ops.symaddr_words))
          (List.sort (fun x y -> compare x.Ops.instrs y.Ops.instrs) (List.hd rounds).standalone)));
  pr "tracing overhead (median traced - untraced):";
  let traced_all f = List.concat_map (fun r -> f r.s) rounds in
  List.iter
    (fun (kind, untraced, traced) ->
      let u = median untraced /. 1e6 and t = median traced /. 1e6 in
      pr "  %-12s %10.3f ms untraced  %10.3f ms traced  %+9.3f ms (%+.1f%%)" kind u t (t -. u)
        (100. *. ((t /. u) -. 1.)))
    [
      ("compile.base", plain.base_ns, traced_all (fun s -> s.base_ns));
      ("compile.full", plain.full_ns, traced_all (fun s -> s.full_ns));
      ("verdict", plain.verdict_ns, traced_all (fun s -> s.verdict_ns));
      ("batch", List.map snd plain.batch_ns, traced_all (fun s -> List.map snd s.batch_ns));
    ];
  List.iter (fun (n, u, v) -> pr "  %-26s %16.4f %s" n v u) metrics;
  List.iter
    (fun (name, root, sum) -> Fmt.epr "span accounting broken: %s root %d ns, self sum %d ns@." name root sum)
    violations;
  let b = book () in
  b.attempted <- b_plain.attempted + b_traced.attempted;
  b.failed <- b_plain.failed + b_traced.failed;
  b.errors <- b_plain.errors @ b_traced.errors;
  b.drift <- b_plain.drift @ b_traced.drift;
  pr "span accounting: %d operations, %s"
    (List.length (List.filter (fun (x : Spans.self) -> x.Spans.s.Spans.parent < 0) selves))
    (if violations = [] then "self times sum exactly to each root" else "BROKEN");
  report_problems b;
  emit ~correct:(b.failed = 0 && b.drift = [] && violations = []) b metrics

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10 and trace = ref 0 in
  let expected_dir = ref "perfbench/expected" and out_dir = ref "perfbench/_out" in
  let write_expected = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME spec-proxies | large-procedure");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 timed run or traced run");
      ("--expected", Arg.Set_string expected_dir, "DIR committed expected outputs");
      ("--out", Arg.Set_string out_dir, "DIR span traces and counted figures");
      ("--write-expected", Arg.Set_string write_expected, "DIR regenerate the expected outputs");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !write_expected <> "" then Progs.write_expected !write_expected
  else
    match List.find_opt (fun wl -> wl.name = !workload) workloads with
    | None ->
        Fmt.epr "unknown workload %S@." !workload;
        exit 2
    | Some wl -> (
        if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
          Fmt.epr "need --seed >= 0, --seconds >= 1, --trace 0|1@.";
          exit 2
        end;
        if not (Sys.file_exists !out_dir) then Sys.mkdir !out_dir 0o755;
        let run = if !trace = 1 then traced_run else timed_run in
        try run wl ~dir:!expected_dir ~out_dir:!out_dir ~seed:!seed ~seconds:!seconds
        with Progs.Setup_failed msg ->
          Fmt.epr "setup failed: %s@." msg;
          exit 1)
