(* The job server: concurrent speculative pipelines over one shared
   pool.

   - qcheck: N generated jobs run concurrently (max_inflight 2-4,
     forced 4 "cores") produce per-job fingerprints —
     simulated cycles, outputs, results, non-host stats, per-loop
     tables — byte-identical to the same jobs run serially (1 core,
     effectively sequential);
   - regression: two whole pipelines running interleaved on separate
     domains in one process (same source, hence the SAME loop node
     ids) each match the serial reference — per-run state (stats
     tables above all) must be run-scoped, never keyed by loop id in
     a process-global;
   - units: lifecycle states settle to Done, a failing job is
     confined (Failed, server survives, neighbours finish), the
     in-flight bound clamps to the host core count, a full queue
     rejects try_submit (backpressure), and a bounded queue cannot
     deadlock the inline 1-core path. *)

module Job_server = Privateer_server.Job_server
module Jobs_manifest = Privateer_server.Jobs_manifest
module RC = Privateer_parallel.Runtime_config

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A small deterministic program family for unit tests (distinct [salt]
   gives distinct outputs/fingerprints). *)
let program_src salt =
  Printf.sprintf
    "global out[32];\n\
     fn main() {\n\
     \  for (k = 0; k < 32) { out[k] = k * k + %d; }\n\
     \  var total = 0;\n\
     \  for (q = 0; q < 32) { total = total + out[q]; }\n\
     \  print(\"= %%d\\n\", total);\n\
     \  return total;\n\
     }\n"
    salt

let spec_of_src ?(config = RC.default) name src =
  Job_server.job_spec ~name ~config (Privateer.Pipeline.parse src)

(* [f path] with [src] written to a temporary Cmini file. *)
let with_source src f =
  let path = Filename.temp_file "job_source" ".cm" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc -> output_string oc src);
      f path)

let fingerprint_of t job =
  match Job_server.state t job with
  | Job_server.Done r -> r.jr_fingerprint
  | Job_server.Failed msg -> "failed: " ^ msg
  | s -> "unsettled: " ^ Job_server.state_name s

(* ---- qcheck: concurrent = serial ---------------------------------------- *)

(* Job sources come from the same template generator as the pipeline
   equivalence properties; per-job configs vary workers so the jobs
   are not clones of each other. *)
let jobs_arb =
  QCheck.make
    ~print:(fun (progs, inflight) ->
      Printf.sprintf "%d jobs, max_inflight %d" (List.length progs) inflight)
    QCheck.Gen.(
      pair
        (list_size (int_range 2 4)
           (list_size (int_range 1 5) Test_props.tmpl_gen))
      (int_range 2 4))

let run_fingerprints ~host_cores ~max_inflight sources =
  let config = { RC.default with max_inflight; queue_cap = 0 } in
  let specs =
    List.mapi
      (fun i src ->
        spec_of_src
          ~config:{ config with RC.workers = 3 + (i mod 3) }
          (Printf.sprintf "job%d" i) src)
      sources
  in
  let t = Job_server.run_jobs ~host_cores ~config specs in
  List.map (fingerprint_of t) (Job_server.jobs t)

let prop_concurrent_identical_to_serial (template_lists, max_inflight) =
  let sources = List.map Test_props.program_of_templates template_lists in
  (* Serial reference: 1 host core clamps the server to sequential,
     poolless execution. *)
  let serial = run_fingerprints ~host_cores:1 ~max_inflight sources in
  let concurrent = run_fingerprints ~host_cores:4 ~max_inflight sources in
  List.for_all (fun fp -> not (String.length fp >= 6 && String.sub fp 0 6 = "failed")) serial
  && serial = concurrent

(* ---- regression: interleaved pipelines in one process ------------------- *)

(* Two complete pipelines over the same source — so both transformed
   programs carry the SAME loop node ids — run interleaved on two
   domains.  Any process-global state keyed by loop id (the historical
   hazard for the stats tables) corrupts at least one of them; both
   must match the serial reference byte for byte. *)
let test_interleaved_pipelines () =
  let src = program_src 7 in
  let run_pipeline () =
    let program = Privateer.Pipeline.parse src in
    let tr, _ = Privateer.Pipeline.compile program in
    let config = { RC.default with RC.workers = 5 } in
    let par = Privateer.Pipeline.run_parallel ~config tr in
    ( par.par_output,
      par.par_cycles,
      par.stats.invocations,
      par.stats.iterations,
      Privateer.Pipeline.loop_report par
      |> List.map (fun (loop, (ls : Privateer_runtime.Stats.loop_stats)) ->
             (loop, ls.l_invocations, ls.l_misspeculations, ls.l_wall_cycles)) )
  in
  let reference = run_pipeline () in
  let d1 = Domain.spawn run_pipeline in
  let d2 = Domain.spawn run_pipeline in
  let r1 = Domain.join d1 in
  let r2 = Domain.join d2 in
  check "interleaved pipeline 1 = serial reference" true (r1 = reference);
  check "interleaved pipeline 2 = serial reference" true (r2 = reference)

(* The underlying contract the regression leans on: loop tables are
   per-Stats instance, so equal loop ids in two instances never
   alias. *)
let test_stats_instance_scoped () =
  let open Privateer_runtime in
  let a = Stats.create () in
  let b = Stats.create () in
  let la = Stats.loop_stats a 5 in
  la.l_invocations <- 41;
  let lb = Stats.loop_stats b 5 in
  check_int "same loop id, fresh table" 0 lb.l_invocations;
  lb.l_misspeculations <- 7;
  check_int "writes do not alias across instances" 41
    (Stats.loop_stats a 5).l_invocations;
  check_int "no cross-talk back" 0 (Stats.loop_stats a 5).l_misspeculations

(* ---- lifecycle units ----------------------------------------------------- *)

let test_lifecycle_done () =
  let config = { RC.default with RC.max_inflight = 3 } in
  let specs = List.init 5 (fun i -> spec_of_src (Printf.sprintf "j%d" i) (program_src i)) in
  let t = Job_server.run_jobs ~host_cores:4 ~config specs in
  let jobs = Job_server.jobs t in
  check_int "all jobs accepted" 5 (List.length jobs);
  List.iter
    (fun j ->
      check "job settled Done" true
        (match Job_server.state t j with Job_server.Done _ -> true | _ -> false))
    jobs;
  (* Distinct salts give distinct fingerprints; equal salts equal ones. *)
  let fps = List.map (fingerprint_of t) jobs in
  check_int "5 distinct fingerprints" 5
    (List.length (List.sort_uniq compare fps));
  (* The aggregate report renders. *)
  check "report renders" true
    (String.length (Privateer_support.Json.to_string (Job_server.report t)) > 0);
  check "submit after shutdown refused" true
    (try
       ignore (Job_server.submit t (spec_of_src "late" (program_src 9)));
       false
     with Invalid_argument _ -> true)

let test_failed_job_confined () =
  (* The middle job divides by zero at run time: its pipeline raises,
     the job settles Failed, and the neighbours still finish Done. *)
  let bad = "fn main() { var x = 0; return 7 / x; }\n" in
  let specs =
    [ spec_of_src "ok1" (program_src 1); spec_of_src "bad" bad;
      spec_of_src "ok2" (program_src 2) ]
  in
  let t = Job_server.run_jobs ~host_cores:4 ~config:RC.default specs in
  match Job_server.jobs t with
  | [ j1; j2; j3 ] ->
    check "ok1 done" true
      (match Job_server.state t j1 with Job_server.Done _ -> true | _ -> false);
    check "bad failed" true
      (match Job_server.state t j2 with Job_server.Failed _ -> true | _ -> false);
    check "ok2 done" true
      (match Job_server.state t j3 with Job_server.Done _ -> true | _ -> false);
    check "await surfaces the error" true
      (match Job_server.await t j2 with Error _ -> true | Ok _ -> false)
  | _ -> Alcotest.fail "expected 3 jobs"

let test_inflight_clamp () =
  check_int "1 core -> sequential" 1
    (Job_server.effective_inflight_for ~host_cores:1 ~max_inflight:8);
  check_int "clamped to cores" 4
    (Job_server.effective_inflight_for ~host_cores:4 ~max_inflight:8);
  check_int "bounded by the knob" 3
    (Job_server.effective_inflight_for ~host_cores:8 ~max_inflight:3);
  let t = Job_server.create ~host_cores:1 ~config:{ RC.default with RC.max_inflight = 8 } () in
  check_int "server reports the clamp" 1 (Job_server.effective_inflight t);
  Job_server.shutdown t;
  let t = Job_server.create ~host_cores:4 ~config:{ RC.default with RC.max_inflight = 2 } () in
  check_int "server reports the knob" 2 (Job_server.effective_inflight t);
  Job_server.shutdown t

let test_backpressure_rejects () =
  (* 2 in-flight slots + queue cap 2: a burst of 6 admissions must see
     at least one rejection (jobs take milliseconds; the burst takes
     microseconds), and every accepted job still settles Done. *)
  let config = { RC.default with RC.max_inflight = 2; queue_cap = 2 } in
  let t = Job_server.create ~host_cores:4 ~config () in
  let accepted, rejected =
    List.fold_left
      (fun (a, r) i ->
        match Job_server.try_submit t (spec_of_src (Printf.sprintf "b%d" i) (program_src i)) with
        | Some j -> (j :: a, r)
        | None -> (a, r + 1))
      ([], 0) (List.init 6 Fun.id)
  in
  check "queue at cap rejects try_submit" true (rejected > 0);
  check "not everything rejected" true (List.length accepted >= 2);
  Job_server.drain t;
  List.iter
    (fun j ->
      check "accepted job settled Done" true
        (match Job_server.state t j with Job_server.Done _ -> true | _ -> false))
    accepted;
  Job_server.shutdown t

let test_bounded_queue_inline () =
  (* 1 core: jobs run inline at submit time, so a tiny queue cap can
     never deadlock a long submission stream. *)
  let config = { RC.default with RC.max_inflight = 4; queue_cap = 1 } in
  let specs = List.init 6 (fun i -> spec_of_src (Printf.sprintf "q%d" i) (program_src i)) in
  let t = Job_server.run_jobs ~host_cores:1 ~config specs in
  List.iter
    (fun j ->
      check "inline job done" true
        (match Job_server.state t j with Job_server.Done _ -> true | _ -> false))
    (Job_server.jobs t)

(* ---- manifest parsing ---------------------------------------------------- *)

let test_manifest_parse () =
  let text =
    "# comment\n\n\
     twice workload:dijkstra input=train repeat=2 workers=8\n\
     solo  workload:blackscholes baseline schedule=chunked:4\n"
  in
  let specs = Jobs_manifest.parse ~base:RC.default text in
  check_int "repeat expands" 3 (List.length specs);
  (match specs with
  | [ a; b; c ] ->
    check "repeat names" true
      (a.Job_server.js_name = "twice#1" && b.Job_server.js_name = "twice#2"
     && c.Job_server.js_name = "solo");
    check_int "workers knob applied" 8 a.Job_server.js_config.RC.workers;
    check "baseline flag" true c.Job_server.js_baseline;
    check "schedule knob applied" true
      (c.Job_server.js_config.RC.schedule = Privateer_parallel.Schedule.Chunked 4)
  | _ -> Alcotest.fail "expected 3 specs");
  let bad_line text msg =
    check msg true
      (try ignore (Jobs_manifest.parse ~base:RC.default text); false
       with Failure m -> String.length m > 0)
  in
  bad_line "x workload:nope\n" "unknown workload rejected";
  bad_line "x dijkstra\n" "missing source kind rejected";
  bad_line "x workload:dijkstra frobnicate=3\n" "unknown option rejected";
  bad_line "x workload:dijkstra workers=banana\n" "bad knob value rejected"

(* scenario: and scale= in the manifest, plus the shared loader's
   line-numbered error surface. *)
let test_manifest_scenarios () =
  let specs =
    Jobs_manifest.parse ~base:RC.default
      "gen scenario:seed=3,trip=24,misspec=0.1 input=alt scale=2 repeat=2 workers=6\n"
  in
  (match specs with
  | [ a; b ] ->
    check "repeat names" true
      (a.Job_server.js_name = "gen#1" && b.Job_server.js_name = "gen#2");
    check_int "workers knob applied" 6 a.Job_server.js_config.RC.workers;
    check "repeats never share an AST" true
      (a.Job_server.js_program != b.Job_server.js_program)
  | specs -> Alcotest.fail (Printf.sprintf "expected 2 specs, got %d" (List.length specs)));
  let contains s frag =
    let ls = String.length s and lf = String.length frag in
    let rec go i = i + lf <= ls && (String.sub s i lf = frag || go (i + 1)) in
    go 0
  in
  let bad text frag =
    match Jobs_manifest.parse ~base:RC.default text with
    | _ -> Alcotest.fail (Printf.sprintf "manifest %S accepted" text)
    | exception Failure m ->
      check (Printf.sprintf "%S -> %s" text frag) true (contains m frag)
  in
  bad "x scenario:trip=banana\n" "expected an integer";
  bad "x scenario:zap=1\n" "unknown scenario knob";
  bad "x scenario:seed=1,loops=99\n" "loops must be in 1..8";
  bad "x workload:dijkstra scale=0\n" "scale must be >= 1";
  bad "x workload:dijkstra scale=9\n" "supports scale 1..";
  bad "x zap:foo\n" "unknown job source kind";
  bad "x dijkstra input=ref\n" "job source must be";
  (* The host-parallelism knobs, the shadow-page pool cap and the
     profiler set are gone: each is an unknown option. *)
  List.iter
    (fun opt ->
      match Jobs_manifest.parse ~base:RC.default ("# ok\nx workload:dijkstra " ^ opt ^ "\n") with
      | _ -> Alcotest.fail (Printf.sprintf "removed knob %S accepted" opt)
      | exception Failure m ->
        check (opt ^ " is an unknown job option on line 2") true
          (contains m "line 2:" && contains m "unknown job option"))
    [ "host-domains=2"; "merge-shards=4"; "pool-kind=legacy"; "host-controller=never";
      "shadow-pool-cap=0"; "profilers=exec" ];
  (* A knob that parses but is out of range fails the load on its own
     line, not the job at run time. *)
  List.iter
    (fun (opt, frag) ->
      match Jobs_manifest.parse ~base:RC.default ("# ok\nx workload:dijkstra " ^ opt ^ "\n") with
      | _ -> Alcotest.fail (Printf.sprintf "out-of-range %S accepted" opt)
      | exception Failure m ->
        check (opt ^ " rejected on line 2") true (contains m "line 2:" && contains m frag))
    [ ("workers=0", "workers must be > 0");
      ("checkpoint=0", "checkpoint_period must be > 0") ];
  (* Errors carry the 1-based manifest line number. *)
  (match Jobs_manifest.parse ~base:RC.default "# fine\nx scenario:zap=1\n" with
  | _ -> Alcotest.fail "bad second line accepted"
  | exception Failure m -> check "line number prefix" true (contains m "line 2:"));
  (* scale= is a workload/scenario option; file: jobs reject it.  A
     malformed file: source fails the load on its line, with the
     lexer's position. *)
  with_source "fn main() { return 1; }\n" (fun path ->
      bad (Printf.sprintf "x file:%s scale=2\n" path) "scale= only applies");
  with_source "fn main() { var x = 1 $ 2; return x; }\n" (fun path ->
      bad (Printf.sprintf "x file:%s\n" path) "line 1: Cmini lex error at 1:23")

(* A program fault is a failed job whose error names the fault, not an
   escaped interpreter exception. *)
let test_faulting_file_job () =
  List.iter
    (fun (src, fault) ->
      with_source src (fun path ->
          let specs =
            Jobs_manifest.parse ~base:RC.default (Printf.sprintf "bad file:%s\n" path)
          in
          let t = Job_server.run_jobs ~host_cores:1 ~config:RC.default specs in
          match Job_server.jobs t with
          | [ j ] ->
            Alcotest.(check string) "failed with the fault" ("failed: runtime error: " ^ fault)
              (fingerprint_of t j)
          | _ -> Alcotest.fail "expected 1 job"))
    [ ("fn main() { return 1 / 0; }\n", "division by zero");
      ("fn main() { var x = 1.5; return x + 2; }\n", "expected int, got float 1.5") ]

(* The example manifest stays loadable: `privateer serve
   examples/jobs.manifest` must work out of the box. *)
let test_example_manifest_loads () =
  (* dune runs tests from the build context root's test/ dir; walk up
     to find the source tree's examples/. *)
  let rec find dir n =
    let candidate = Filename.concat dir "examples/jobs.manifest" in
    if Sys.file_exists candidate then Some candidate
    else if n = 0 then None
    else find (Filename.concat dir "..") (n - 1)
  in
  match find "." 6 with
  | None -> () (* source tree not visible from the sandbox; skip *)
  | Some path ->
    let specs = Jobs_manifest.load ~base:RC.default path in
    check "example manifest has jobs" true (List.length specs >= 5)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ QCheck.Test.make ~count:10
        ~name:"concurrent jobs byte-identical to serial" jobs_arb
        prop_concurrent_identical_to_serial ]
  @ [ Alcotest.test_case "interleaved pipelines = serial reference" `Quick
        test_interleaved_pipelines;
      Alcotest.test_case "stats tables are instance-scoped" `Quick
        test_stats_instance_scoped;
      Alcotest.test_case "lifecycle: jobs settle Done" `Quick test_lifecycle_done;
      Alcotest.test_case "failed job confined to its slot" `Quick
        test_failed_job_confined;
      Alcotest.test_case "in-flight bound clamps to cores" `Quick
        test_inflight_clamp;
      Alcotest.test_case "full queue rejects try_submit" `Quick
        test_backpressure_rejects;
      Alcotest.test_case "bounded queue: inline path can't deadlock" `Quick
        test_bounded_queue_inline;
      Alcotest.test_case "manifest: parse, repeat, knobs, errors" `Quick
        test_manifest_parse;
      Alcotest.test_case "manifest: scenario jobs, scale, line errors" `Quick
        test_manifest_scenarios;
      Alcotest.test_case "faulting file: job fails with its runtime error" `Quick
        test_faulting_file_job;
      Alcotest.test_case "example manifest loads" `Quick
        test_example_manifest_loads ]
