(* The determinism contract of docs/RUNTIME.md, checked from one place:
   the Test_props template programs and Scenario_gen knob draws at
   drawn points of one lattice of run settings, one fixed source of
   each at every point on a serial host, and fixed cells that
   other suites run through [check]: the five ports (test_workloads)
   and the engine's unit programs (test_executor, test_speculation).
   At every point a source runs in both validation modes, and
   1. output and result equal the sequential run;
   2. a served run's fingerprint equals the serial run's;
   3. eager agrees with commit (on output and result, through 1).  On
      a run with no eager kill it agrees on everything: fingerprint,
      cycles, checkpoints, misspeculation, recovery and squash counts,
      because only a worker's own misspeculation stops an eager sweep
      and phase 2 alone finds cross-worker conflicts in both modes.
      After a kill it still agrees on misspeculation and recovery
      counts, squashing at most as much, unless conflicts are planted
      at more than one worker, where the modes resume at different
      iterations (docs/RUNTIME.md).  The lattice injects every 11th
      iteration into intervals of at most 11, so injection alone never
      misspeculates twice per interval;
   4. without injection the misspeculation count is the oracle's at
      one worker and at most the oracle's at more (0 for templates
      and ports, which plant nothing).
   A failure prints the source and the lattice point. *)

open Privateer
module RC = Privateer_parallel.Runtime_config
module Value = Privateer_interp.Value
module Job_server = Privateer_server.Job_server
module Scenario_gen = Privateer_gen.Scenario_gen
module Workload = Privateer_workloads.Workload

(* ---- the lattice -------------------------------------------------------- *)

(* A point: its settings, the configuration they give, and the job
   server's [max_inflight] when the point is served. *)
type point = { settings : (string * string) list; config : RC.t; served : int option }

(* A dimension the CLI has a flag for: its values are the flag's. *)
let flag name p v =
  let b = List.find (fun b -> List.mem name b.RC.b_flags) RC.cli_bindings in
  match RC.apply_bindings p.config [ (b, Some v) ] with
  | Ok config -> { p with config }
  | Error msg -> invalid_arg msg

let inject p v =
  let inject = if v = "none" then None else Some (fun iter -> iter mod 11 = 7) in
  { p with config = { p.config with inject } }

let host p v =
  { p with served = (if v = "serial" then None else Some (Scanf.sscanf v "served:%d" Fun.id)) }

(* One line per dimension: its name, its values and how a value sets a
   point.  A point draws one value of each dimension but [paired],
   whose values all run at every point, as the pair check 3 compares. *)
let lattice =
  [ ("workers", [ "1"; "3"; "5"; "8" ], flag "workers");
    ("schedule", [ "cyclic"; "blocked"; "chunked:3" ], flag "schedule");
    ("checkpoint", [ "none"; "4" ], flag "checkpoint");
    ("inject", [ "none"; "iter%11=7" ], inject);
    ("validation", [ "commit"; "eager" ], flag "validation");
    ("host", [ "serial"; "served:2"; "served:3"; "served:4" ], host) ]

let paired = "validation"

(* Settings not given keep [RC.default]'s values, on a serial host. *)
let point_of settings =
  List.fold_left
    (fun p (name, v) ->
      let _, _, apply = List.find (fun (n, _, _) -> n = name) lattice in
      apply p v)
    { settings; config = RC.default; served = None }
    settings

let point_gen =
  QCheck.Gen.(
    flatten_l
      (List.filter_map
         (fun (n, values, _) ->
           if n = paired then None else Some (map (fun v -> (n, v)) (oneofl values)))
         lattice)
    >|= point_of)

let show_point p = String.concat " " (List.map (fun (n, v) -> n ^ "=" ^ v) p.settings)

(* ---- sources ------------------------------------------------------------ *)

type source = {
  label : string;  (** printed on failure: the source text, or where to find it *)
  program : unit -> Privateer_ir.Ast.program;  (** a fresh AST per call *)
  train : Pipeline.setup;
  run : Pipeline.setup;
  expect : int option;
      (** the misspeculation oracle of check 4; [None] for the engine's
          unit programs, which have none *)
}

let text_source ?(train = Pipeline.no_setup) ?(run = Pipeline.no_setup) ?expect text =
  { label = text; program = (fun () -> Pipeline.parse text); train; run; expect }

let workload_source ?(expect = 0) label wl input =
  { label; program = (fun () -> Workload.fresh_program wl);
    train = Workload.setup wl Workload.Train; run = Workload.setup wl input;
    expect = Some expect }

let scenario_source knobs =
  let t = Scenario_gen.generate knobs in
  workload_source
    ~expect:(Scenario_gen.expected_misspecs t ~n:knobs.Scenario_gen.k_trip)
    (t.Scenario_gen.sc_name ^ "\n" ^ t.Scenario_gen.sc_source)
    t.Scenario_gen.sc_workload Workload.Ref

(* ---- the checks --------------------------------------------------------- *)

let fingerprint (par : Pipeline.par_run) =
  Job_server.fingerprint_of_run ~output:par.par_output ~result:(Value.to_string par.par_result)
    ~cycles:par.par_cycles ~fallbacks:par.fallbacks par.stats

(* The job server of a served point with [max_inflight] [m]: four
   host cores, so that the bound lets the jobs overlap even on a
   1-core host. *)
let serve_jobs m specs =
  Job_server.run_jobs ~host_cores:4 ~config:{ RC.default with max_inflight = m } specs

(* The fingerprints of [runs] served through one job server. *)
let served src runs m =
  let spec (v, config, _) =
    Job_server.job_spec ~train:src.train ~run:src.run ~config ~name:v (src.program ())
  in
  let t = serve_jobs m (List.map spec runs) in
  List.map
    (fun j ->
      match Job_server.state t j with
      | Job_server.Done r -> r.Job_server.jr_fingerprint
      | s -> Job_server.state_name s)
    (Job_server.jobs t)

(* Run [src] at [p] in both validation modes and check the contract;
   [Error] names the source, the point and every broken clause. *)
let check src p =
  let program = src.program () in
  let tr, _ = Pipeline.compile ~setup:src.train program in
  let seq = Pipeline.run_sequential ~setup:src.run program in
  let _, modes, apply = List.find (fun (n, _, _) -> n = paired) lattice in
  let runs =
    List.map
      (fun v ->
        let config = (apply p v).config in
        (v, config, Pipeline.run_parallel ~setup:src.run ~config tr))
      modes
  in
  let broken = ref [] in
  let holds ok fmt = Printf.ksprintf (fun m -> if not ok then broken := m :: !broken) fmt in
  let inject = p.config.inject <> None and workers = p.config.workers in
  let fingerprints = Option.map (served src runs) p.served in
  List.iteri
    (fun i (v, _, (par : Pipeline.par_run)) ->
      holds (par.par_output = seq.seq_output) "%s: output differs from sequential" v;
      holds (Value.equal par.par_result seq.seq_result) "%s: result differs from sequential" v;
      Option.iter
        (fun fps -> holds (List.nth fps i = fingerprint par) "%s: served fingerprint differs" v)
        fingerprints;
      let n = par.stats.misspeculations in
      match src.expect with
      | Some x when not inject ->
        if workers = 1 then holds (n = x) "%s: %d misspeculations, oracle %d" v n x
        else holds (n <= x) "%s: %d misspeculations, oracle at most %d" v n x
      | _ -> ())
    runs;
  (match runs with
  | [ (_, _, (commit : Pipeline.par_run)); (_, _, eager) ] ->
    let c = commit.stats and e = eager.stats in
    let agree what a b = holds (a = b) "%s: commit %d, eager %d" what a b in
    if e.eager_kills = 0 then begin
      holds (fingerprint commit = fingerprint eager) "fingerprint: eager differs from commit";
      agree "cycles" commit.par_cycles eager.par_cycles;
      agree "checkpoints" c.checkpoints e.checkpoints;
      agree "misspeculations" c.misspeculations e.misspeculations;
      agree "recovered iterations" c.recovered_iterations e.recovered_iterations;
      agree "squashed iterations" c.squashed_iterations e.squashed_iterations
    end
    else if src.expect = Some 0 || (src.expect <> None && workers = 1) then begin
      agree "misspeculations" c.misspeculations e.misspeculations;
      agree "recovered iterations" c.recovered_iterations e.recovered_iterations;
      holds
        (e.squashed_iterations <= c.squashed_iterations)
        "squashed iterations: commit %d, eager %d" c.squashed_iterations e.squashed_iterations
    end
  | _ -> invalid_arg "validation runs as a pair");
  match (List.rev !broken, runs) with
  | [], [ (_, _, commit); (_, _, eager) ] -> Ok (tr, seq, commit, eager)
  | broken, _ ->
    Error
      (Printf.sprintf "at %s:\n  %s\nsource: %s" (show_point p) (String.concat "\n  " broken)
         src.label)

(* ---- cells ------------------------------------------------------------- *)

(* A fixed cell, run for another suite, which asserts its own figures
   on the compiled program and the sequential, commit and eager runs
   it gets back. *)
let cell src p = match check src p with Ok runs -> runs | Error report -> Alcotest.fail report

(* A port at [workers] on [input]: test_workloads runs the five at 8
   workers on their alt input, and dijkstra at 24 on its ref input,
   where the paper reports its speedup. *)
let port_cell wl input workers =
  let name = Printf.sprintf "workload:%s input=%s" wl.Workload.name (Workload.input_name input) in
  cell (workload_source name wl input) (point_of [ ("workers", string_of_int workers) ])

(* A unit test's program at the unit's own configuration, for
   test_executor and test_speculation.  With no oracle, check 4 is
   skipped and check 3 compares the modes on clean runs only. *)
let unit_cell ?train ?run text (config : RC.t) =
  let opt = Option.fold ~none:"none" ~some:string_of_int in
  let settings =
    [ ("workers", string_of_int config.workers);
      ("schedule", Privateer_parallel.Schedule.to_string config.schedule);
      ("checkpoint", opt config.checkpoint_period);
      ("adaptive", string_of_bool config.adaptive_period); ("throttle", opt config.throttle);
      ("inject", if config.inject = None then "none" else "the unit's");
      ("serial-commit", string_of_bool config.serial_commit) ]
  in
  cell (text_source ?train ?run text) { settings; config; served = None }

(* ---- the corpora -------------------------------------------------------- *)

let qcheck_at src p =
  match check src p with Ok _ -> true | Error report -> QCheck.Test.fail_report report

let knob_gen =
  QCheck.Gen.(
    let* seed = int_bound 999_999 in
    let* loops = 1 -- 2 in
    let* trip = map (fun i -> 24 + (8 * i)) (int_bound 5) in
    let* heap = map (fun i -> 16 * (1 + i)) (int_bound 7) in
    let* reuse = 1 -- 6 in
    let* redux = oneofl [ 0.0; 0.25; 0.5; 0.75; 1.0 ] in
    let+ misspec = oneofl [ 0.0; 0.0; 0.05; 0.1; 0.15 ] in
    { Scenario_gen.k_seed = seed; k_loops = loops; k_trip = trip; k_heap = heap;
      k_reuse = reuse; k_redux = redux; k_misspec = misspec })

(* ---- sweeps and the harness's own checks -------------------------------- *)

(* One fixed template program: a privatized scratch word, a
   short-lived node, an output write and a print per iteration. *)
let sweep_text =
  Test_props.(program_of_templates [ Fill 1; ReadSum; Node 2; OutWrite; PrintIter ])

(* A fixed scenario draw that plants conflicts in both of its loops. *)
let sweep_knobs =
  { Scenario_gen.default_knobs with
    Scenario_gen.k_seed = 1; k_loops = 2; k_trip = 64; k_redux = 0.5; k_misspec = 0.1 }

(* The planted scenario at eight workers, where every conflict it
   plants is cross-worker: phase 2 finds each in both modes, so eager
   never kills and runs exactly as commit does. *)
let test_cross_worker_conflicts_phase2 () =
  let p =
    point_of
      [ ("workers", "8"); ("schedule", "cyclic"); ("checkpoint", "none"); ("inject", "none") ]
  in
  let _, _, (commit : Pipeline.par_run), eager = cell (scenario_source sweep_knobs) p in
  List.iter
    (fun (mode, (par : Pipeline.par_run)) ->
      Alcotest.(check int) (mode ^ ": misspeculations") 11 par.stats.misspeculations;
      Alcotest.(check int) (mode ^ ": cycles") 167_873 par.par_cycles)
    [ ("commit", commit); ("eager", eager) ];
  Alcotest.(check int) "no eager kill" 0 eager.stats.eager_kills;
  Alcotest.(check string) "eager fingerprint = commit's" (fingerprint commit)
    (fingerprint eager)

(* Each iteration stores one byte of [buf], so workers write different
   bytes of the same words and no iteration reads any.  The checkpoint
   must take each byte from its own writer and keep the main process's
   value in the rest. *)
let partial_words_source =
  text_source ~expect:0
    {|global buf[64];
fn main() {
  for (i = 0; i < 256) { store1(&buf + i, i + 1); }
  var s = 0; var q = 0;
  while (q < 256) { s = s + load1(&buf + q) * (q + 1); q = q + 1; }
  print("s %d\n", s); return 0;
}|}

(* The sequential "s 5559680" at worker counts and schedules where a
   merge taking each word whole from its latest writer loses bytes. *)
let test_partial_words () =
  List.iter
    (fun settings ->
      let _, seq, _, _ = cell partial_words_source (point_of settings) in
      Alcotest.(check string) "sequential output" "s 5559680\n" seq.seq_output)
    (List.map (fun w -> [ ("workers", w) ]) [ "2"; "4"; "8"; "24" ]
    @ List.map
        (fun s -> [ ("workers", "4"); ("schedule", s) ])
        [ "blocked"; "chunked:3"; "chunked:8" ])

(* A cross-worker flow inside one interval whose reader's live-in mark
   sits on a shadow page the interval never dirties.  Trained with
   d = 20, [slot] is private: the even iterations read slot[0] live-in
   and iteration 9 writes slot[20].  Run with d = 0, iteration 9 writes
   slot[0], which the even iterations after it read.  Each reader
   re-reads a byte its worker marked in an earlier interval, which
   Table 2 keeps without touching the page, so phase 2 must take the
   marks of every page, not only of the dirty ones. *)
let carried_mark_source =
  text_source
    ~train:(fun st -> Pipeline.set_global st "d" 20)
    ~run:(fun st -> Pipeline.set_global st "d" 0)
    {|global slot[512]; global out[512]; global d;
fn main() {
  for (k = 0; k < 512) { slot[k] = 0; }
  for (i = 0; i < 64) {
    if (i == 9) { slot[d] = 7; }
    var v = 0;
    if (i % 2 == 0) { v = slot[0]; }
    out[i] = v;
  }
  var s = 0;
  for (q = 0; q < 64) { s = s + out[q] * (q + 1); }
  print("s %d\n", s); return 0;
}|}

(* The sequential "s 6993", with phase 2 convicting the flow, at the
   settings where extraction from dirty pages alone commits "s 0" with
   no misspeculation, [workers=2 checkpoint=8] first. *)
let test_carried_live_in_marks () =
  List.iter
    (fun (w, c) ->
      let _, seq, commit, _ =
        cell carried_mark_source (point_of [ ("workers", w); ("checkpoint", c) ])
      in
      Alcotest.(check string) "sequential output" "s 6993\n" seq.seq_output;
      Alcotest.(check bool) (w ^ " workers, period " ^ c ^ ": phase 2 convicts") true
        (commit.stats.misspeculations > 0))
    [ ("2", "8"); ("2", "4"); ("4", "8"); ("8", "4"); ("8", "8") ]

(* Every point of the lattice on a serial host: the product of the
   drawn dimensions' values, which grows with the lattice. *)
let serial_points =
  List.fold_right
    (fun (name, values, _) rest ->
      if name = paired || name = "host" then rest
      else List.concat_map (fun v -> List.map (fun r -> (name, v) :: r) rest) values)
    lattice [ [] ]
  |> List.map point_of

(* [src] at every serial point.  The sweep must plan a loop, and
   misspeculate wherever it injects. *)
let sweep src () =
  List.iter
    (fun p ->
      let tr, _, (commit : Pipeline.par_run), _ = cell src p in
      let at = show_point p in
      Alcotest.(check bool) (at ^ ": a loop was planned") true (tr.selection.plans <> []);
      if p.config.inject <> None then
        Alcotest.(check bool) (at ^ ": injection misspeculates") true
          (commit.stats.misspeculations > 0))
    serial_points

(* How a point shows one value of a dimension; [None] for a dimension
   not listed here, whose values are only checked to apply. *)
let read_back name p =
  match name with
  | "workers" -> Some (string_of_int p.config.workers)
  | "schedule" -> Some (Privateer_parallel.Schedule.to_string p.config.schedule)
  | "checkpoint" -> Some (Option.fold ~none:"none" ~some:string_of_int p.config.checkpoint_period)
  | "inject" ->
    Some
      (match p.config.inject with
      | None -> "none"
      | Some f when List.for_all (fun i -> f i = (i mod 11 = 7)) (List.init 64 Fun.id) ->
        "iter%11=7"
      | Some _ -> "another predicate")
  | "validation" -> Some (RC.validation_to_string p.config.validation)
  | "host" -> Some (Option.fold ~none:"serial" ~some:(Printf.sprintf "served:%d") p.served)
  | _ -> None

(* Each value of each dimension is distinct, reaches the point it
   names, and gives a configuration [RC.check] accepts. *)
let test_lattice_values () =
  List.iter
    (fun (name, values, _) ->
      Alcotest.(check int) (name ^ ": distinct values") (List.length values)
        (List.length (List.sort_uniq compare values));
      List.iter
        (fun v ->
          let at = name ^ "=" ^ v in
          let p = point_of [ (name, v) ] in
          Alcotest.(check string) (at ^ ": shown") at (show_point p);
          Alcotest.(check (result unit string)) (at ^ ": valid") (Ok ()) (RC.check p.config);
          Option.iter (Alcotest.(check string) (at ^ ": set") v) (read_back name p))
        values)
    lattice

(* Each served host runs the pair through a server whose in-flight
   bound lets both jobs run at once, and its fingerprints equal the
   serial runs'. *)
let test_served_hosts () =
  let _, values, _ = List.find (fun (n, _, _) -> n = "host") lattice in
  List.iter
    (fun v ->
      let p = point_of [ ("workers", "3"); ("host", v) ] in
      Option.iter
        (fun m ->
          Alcotest.(check int) (v ^ ": in-flight bound") m
            (Job_server.effective_inflight (serve_jobs m []));
          Alcotest.(check bool) (v ^ ": the pair can overlap") true (m >= 2))
        p.served;
      ignore (cell (text_source ~expect:0 sweep_text) p))
    values

let contains s frag =
  let ls = String.length s and lf = String.length frag in
  let rec go i = i + lf <= ls && (String.equal (String.sub s i lf) frag || go (i + 1)) in
  go 0

(* A broken clause is reported with the point and the source: here a
   misspeculation oracle of 1 for a program that plants nothing. *)
let test_failure_report () =
  let p = point_of [ ("workers", "1"); ("schedule", "blocked") ] in
  match check (text_source ~expect:1 sweep_text) p with
  | Ok _ -> Alcotest.fail "a wrong oracle held"
  | Error report ->
    List.iter
      (fun frag -> Alcotest.(check bool) frag true (contains report frag))
      [ "at workers=1 schedule=blocked:"; "commit: 0 misspeculations, oracle 1";
        "eager: 0 misspeculations, oracle 1"; "source: " ^ sweep_text ]

let suite =
  [ Alcotest.test_case "lattice: every value sets its point" `Quick test_lattice_values;
    Alcotest.test_case "lattice: served hosts overlap and agree" `Quick test_served_hosts;
    Alcotest.test_case "a failure names the point and the source" `Quick test_failure_report;
    Alcotest.test_case "a template program at every serial point" `Quick
      (sweep (text_source ~expect:0 sweep_text));
    Alcotest.test_case "a planted scenario at every serial point" `Quick
      (sweep (scenario_source sweep_knobs));
    Alcotest.test_case "cross-worker conflicts: phase 2 in both modes" `Quick
      test_cross_worker_conflicts_phase2;
    Alcotest.test_case "partial words merge byte by byte" `Quick test_partial_words;
    Alcotest.test_case "phase 2 sees marks on clean pages" `Quick test_carried_live_in_marks ]
  @ List.map QCheck_alcotest.to_alcotest
    [ QCheck.Test.make ~count:170 ~name:"template programs at drawn points"
        (QCheck.make ~print:(fun (_, p) -> show_point p)
           QCheck.Gen.(pair (QCheck.gen Test_props.body_arb) point_gen))
        (fun (tmpls, p) ->
          qcheck_at (text_source ~expect:0 (Test_props.program_of_templates tmpls)) p);
      QCheck.Test.make ~count:30 ~name:"a carried live-in mark at drawn points"
        (QCheck.make ~print:show_point point_gen) (qcheck_at carried_mark_source);
      QCheck.Test.make ~count:30 ~name:"scenarios at drawn points"
        (QCheck.make
           ~print:(fun (k, p) -> Scenario_gen.spec_of_knobs k ^ " at " ^ show_point p)
           QCheck.Gen.(pair knob_gen point_gen))
        (fun (knobs, p) -> qcheck_at (scenario_source knobs) p) ]
