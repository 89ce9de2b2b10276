(* The job server: concurrent speculative pipelines on domains the
   server owns.  That served jobs are byte-identical to serial runs
   is one of test_contract's checks.

   - regression: two whole pipelines running interleaved on separate
     domains in one process (same source, hence the SAME loop node
     ids) each match the serial reference — per-run state (stats
     tables above all) must be run-scoped, never keyed by loop id in
     a process-global;
   - units: lifecycle states settle to Done, a failing job is
     confined (Failed, server survives, neighbours finish), the
     in-flight bound clamps to the host core count, [shutdown] stops
     the server's domains, three client domains sharing one server
     each see their jobs settle once, equal to a serial run, and a
     served job's report entry is the report of the same job run
     alone;
   - submit/await/state/shutdown units and a qcheck, one per contract
     the server's callers rely on: a job's result is its own and stays
     settled, a failure leaves the server usable, at bound 1 a job
     waits for the domain that awaits it, [submit] only enqueues (the
     queue is unbounded) and jobs launch from the head of the queue,
     results follow jobs and not completion order, each
     failed job carries exactly its own fault, several awaiters of one
     job see one result, [shutdown] runs queued jobs and is
     idempotent, [create] validates its knobs, the report shows the
     requested and effective bounds, and client domains submitting
     streams concurrently each get their own results in order. *)

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

(* OCaml caps live domains at 128, so 130 servers in sequence, each
   with one spawned domain, fail at [create] unless [shutdown] stops
   the domain it spawned.  Nothing awaits the job, so only that domain
   can run it, and [state] can read it settled only once the domain
   has released the lock to wait for more work. *)
let test_shutdown_stops_domains () =
  let config = { RC.default with RC.max_inflight = 2 } in
  for i = 1 to 130 do
    let t = Job_server.create ~host_cores:2 ~config () in
    let j = Job_server.submit t (spec_of_src (Printf.sprintf "s%d" i) "fn main() { return 1; }\n") in
    while (match Job_server.state t j with Job_server.(Queued | Running) -> true | _ -> false) do
      Domain.cpu_relax ()
    done;
    check "run by the server's domain" true
      (match Job_server.state t j with Job_server.Done _ -> true | _ -> false);
    Job_server.shutdown t
  done

(* Three client domains submit to and await one server (one spawned
   domain, so awaiting clients run queued jobs too); one job
   faults.  Every job settles once: re-awaiting returns the very
   result the first await did, the report counts each job once, and
   every job's fingerprint, the fault's text included, equals a serial
   run's. *)
let test_shared_server () =
  let clients = 3 and per = 4 in
  let name c i = Printf.sprintf "c%d.%d" c i in
  let spec c i =
    spec_of_src (name c i)
      (if c = 1 && i = 2 then "fn main() { var x = 0; return 7 / x; }\n"
       else program_src ((c * per) + i))
  in
  let config = { RC.default with RC.max_inflight = 2 } in
  let t = Job_server.create ~host_cores:4 ~config () in
  let client c =
    Domain.spawn (fun () ->
        let jobs = List.init per (fun i -> Job_server.submit t (spec c i)) in
        List.mapi (fun i j -> (name c i, j, Job_server.await t j)) jobs)
  in
  let awaited = List.concat_map Domain.join (List.init clients client) in
  Job_server.shutdown t;
  let serial =
    Job_server.run_jobs ~host_cores:1 ~config
      (List.concat (List.init clients (fun c -> List.init per (spec c))))
  in
  List.iter2
    (fun (name, j, first) reference ->
      check (name ^ " settles once") true
        (match (first, Job_server.await t j) with
        | Ok a, Ok b -> a == b
        | Error a, Error b -> a == b
        | _ -> false);
      Alcotest.(check string) (name ^ " = serial run") (fingerprint_of serial reference)
        (fingerprint_of t j))
    awaited (Job_server.jobs serial);
  Alcotest.(check (list string)) "only the faulting job fails"
    [ "c1.2: runtime error: division by zero" ]
    (List.filter_map
       (fun (name, _, r) -> match r with Error msg -> Some (name ^ ": " ^ msg) | Ok _ -> None)
       awaited);
  let counts =
    match Job_server.report t with
    | Privateer_support.Json.Obj kvs ->
      List.map (fun k -> List.assoc k kvs) [ "jobs"; "done"; "failed" ]
    | _ -> []
  in
  check "report counts each job once" true
    (counts = Privateer_support.Json.[ Int (clients * per); Int ((clients * per) - 1); Int 1 ])

(* ---- submit, await, state and shutdown ----------------------------------- *)

(* [program_src salt]'s return value: the sum of [k * k + salt] over
   [k < 32]. *)
let program_total salt = 10416 + (32 * salt)

(* A job that fails with a runtime error naming [tag]. *)
let float_fault_src tag = Printf.sprintf "fn main() { var x = %d.5; return x + 2; }\n" tag
let float_fault_error tag = Printf.sprintf "runtime error: expected int, got float %d.5" tag

(* A job about a hundred times longer than [program_src]'s. *)
let long_src =
  "global out[2048];\n\
   fn main() {\n\
  \  for (k = 0; k < 2048) { out[k] = k * 3 + 1; }\n\
  \  var total = 0;\n\
  \  for (q = 0; q < 2048) { total = total + out[q]; }\n\
  \  print(\"= %d\\n\", total);\n\
  \  return total;\n\
   }\n"

let ok_result = function Ok r -> r | Error msg -> Alcotest.fail ("job failed: " ^ msg)

let is_done t j = match Job_server.state t j with Job_server.Done _ -> true | _ -> false
let is_queued t j = match Job_server.state t j with Job_server.Queued -> true | _ -> false

(* The report's top-level [key]. *)
let report_field t key =
  match Job_server.report t with
  | Privateer_support.Json.Obj kvs -> List.assoc key kvs
  | _ -> Alcotest.fail "report is not an object"

(* Jobs awaited in submission order each return their own result, equal
   to a serial run's; a settled job stays settled, so re-awaiting
   returns the very same result and [state] reads it too. *)
let test_submit_await_basic () =
  let specs () = List.init 8 (fun i -> spec_of_src (Printf.sprintf "a%d" i) (program_src i)) in
  let config = { RC.default with RC.max_inflight = 3 } in
  let t = Job_server.create ~host_cores:4 ~config () in
  let jobs = List.map (Job_server.submit t) (specs ()) in
  let results = List.map (fun j -> ok_result (Job_server.await t j)) jobs in
  Job_server.shutdown t;
  let serial = Job_server.run_jobs ~host_cores:1 ~config (specs ()) in
  List.iteri
    (fun i ((j, r), reference) ->
      let name = Printf.sprintf "a%d" i in
      Alcotest.(check string) (name ^ " returns its own result") name r.Job_server.jr_name;
      Alcotest.(check string) (name ^ " result") (string_of_int (program_total i)) r.jr_result;
      Alcotest.(check string) (name ^ " = serial run") (fingerprint_of serial reference)
        r.jr_fingerprint;
      check (name ^ " re-await returns the same result") true
        (match Job_server.await t j with Ok r' -> r' == r | Error _ -> false);
      check (name ^ " state holds the same result") true
        (match Job_server.state t j with Job_server.Done r' -> r' == r | _ -> false))
    (List.combine (List.combine jobs results) (Job_server.jobs serial))

(* A failed job is confined to itself: the same server runs the next
   job as if nothing had happened. *)
let test_failure_leaves_server_usable () =
  let config = { RC.default with RC.max_inflight = 2 } in
  let t = Job_server.create ~host_cores:2 ~config () in
  let bad = Job_server.submit t (spec_of_src "bad" "fn main() { var x = 0; return 7 / x; }\n") in
  (match Job_server.await t bad with
  | Error msg -> Alcotest.(check string) "the fault's text" "runtime error: division by zero" msg
  | Ok _ -> Alcotest.fail "faulting job reported Done");
  let good = Job_server.submit t (spec_of_src "good" (program_src 5)) in
  let r = ok_result (Job_server.await t good) in
  Alcotest.(check string) "next job's result" (string_of_int (program_total 5)) r.jr_result;
  Alcotest.(check string) "next job's output"
    (Printf.sprintf "= %d\n" (program_total 5))
    r.jr_output;
  Job_server.shutdown t;
  check "the failure stays recorded" true
    (match Job_server.state t bad with Job_server.Failed _ -> true | _ -> false)

(* At an effective bound of 1 the server spawns no domain, so a
   submitted job stays queued, however long anyone polls [state],
   until a domain awaits it and runs it. *)
let test_bound_one_runs_on_awaiter () =
  let t = Job_server.create ~host_cores:1 ~config:{ RC.default with RC.max_inflight = 4 } () in
  let j = Job_server.submit t (spec_of_src "solo" (program_src 3)) in
  (* Far longer than the job takes: a spawned domain would settle it. *)
  let deadline = Privateer_support.Clock.now_ns () +. 20e6 in
  while Privateer_support.Clock.now_ns () < deadline do
    check "queued while nobody awaits" true (is_queued t j);
    Domain.cpu_relax ()
  done;
  let r = ok_result (Job_server.await t j) in
  Alcotest.(check string) "run by the awaiting domain" "solo" r.jr_name;
  check "settled Done" true (is_done t j);
  Job_server.shutdown t

(* The queue of accepted jobs is unbounded and [submit] only enqueues:
   at bound 1, where no server domain runs jobs, a burst of twelve is
   admitted whole and every job is still queued when the last submit
   returns; a drain then settles each with its own result. *)
let test_submit_only_enqueues () =
  let t = Job_server.create ~host_cores:1 ~config:{ RC.default with RC.max_inflight = 4 } () in
  let jobs =
    List.init 12 (fun i -> Job_server.submit t (spec_of_src (Printf.sprintf "u%d" i) (program_src i)))
  in
  check_int "every job admitted" 12 (List.length (Job_server.jobs t));
  check "every job still queued after the burst" true (List.for_all (is_queued t) jobs);
  Job_server.drain t;
  List.iteri
    (fun i j ->
      let r = ok_result (Job_server.await t j) in
      Alcotest.(check string) (Printf.sprintf "u%d result" i) (string_of_int (program_total i))
        r.jr_result)
    jobs;
  Job_server.shutdown t

(* Jobs launch from the head of the queue: awaiting the third of four
   jobs at bound 1 runs the two ahead of it first and leaves the
   fourth queued. *)
let test_await_runs_queue_in_order () =
  let t = Job_server.create ~host_cores:1 ~config:RC.default () in
  let jobs =
    List.init 4 (fun i -> Job_server.submit t (spec_of_src (Printf.sprintf "f%d" i) (program_src i)))
  in
  ignore (ok_result (Job_server.await t (List.nth jobs 2)));
  Alcotest.(check (list string)) "states after awaiting f2"
    [ "done"; "done"; "done"; "queued" ]
    (List.map (fun j -> Job_server.state_name (Job_server.state t j)) jobs);
  Job_server.drain t;
  check "drain settles the rest" true (List.for_all (is_done t) jobs);
  Job_server.shutdown t

(* Each job carries its own result whatever order the jobs settle in:
   a long job submitted first runs while the short ones behind it
   finish, and the jobs are awaited last to first. *)
let test_results_independent_of_completion_order () =
  let specs () =
    spec_of_src "long" long_src
    :: List.init 6 (fun i -> spec_of_src (Printf.sprintf "s%d" i) (program_src (i + 20)))
  in
  let config = { RC.default with RC.max_inflight = 2 } in
  let t = Job_server.create ~host_cores:4 ~config () in
  let jobs = List.map (Job_server.submit t) (specs ()) in
  let results = List.rev_map (fun j -> ok_result (Job_server.await t j)) (List.rev jobs) in
  Job_server.shutdown t;
  let serial = Job_server.run_jobs ~host_cores:1 ~config (specs ()) in
  List.iter2
    (fun (r : Job_server.job_result) reference ->
      match Job_server.state serial reference with
      | Job_server.Done s ->
        Alcotest.(check string) "result follows its job" s.jr_name r.jr_name;
        Alcotest.(check string) (r.jr_name ^ " = serial run") s.jr_fingerprint r.jr_fingerprint
      | _ -> Alcotest.fail "serial reference did not settle Done")
    results (Job_server.jobs serial)

(* Failing jobs do not stop their neighbours, and each failed job
   carries exactly its own fault. *)
let test_mixed_failures_settle_per_job () =
  let config = { RC.default with RC.max_inflight = 3 } in
  let t = Job_server.create ~host_cores:4 ~config () in
  let fails i = i mod 3 = 1 in
  let jobs =
    List.init 9 (fun i ->
        Job_server.submit t
          (spec_of_src (Printf.sprintf "m%d" i)
             (if fails i then float_fault_src i else program_src i)))
  in
  List.iteri
    (fun i j ->
      let name = Printf.sprintf "m%d" i in
      match Job_server.await t j with
      | Ok r ->
        check (name ^ " should have failed") false (fails i);
        Alcotest.(check string) (name ^ " result") (string_of_int (program_total i)) r.jr_result
      | Error msg ->
        check (name ^ " should have succeeded") true (fails i);
        Alcotest.(check string) (name ^ " carries its own fault") (float_fault_error i) msg)
    jobs;
  let after = Job_server.submit t (spec_of_src "after" (program_src 8)) in
  check "server usable after mixed failures" true
    (match Job_server.await t after with Ok _ -> true | Error _ -> false);
  Job_server.shutdown t;
  check "report: 7 done, 3 failed" true
    (report_field t "done" = Privateer_support.Json.Int 7
    && report_field t "failed" = Privateer_support.Json.Int 3)

(* Several client domains awaiting one job all see its one result: the
   job runs once, whichever domain launches it. *)
let test_concurrent_awaiters () =
  let config = { RC.default with RC.max_inflight = 2 } in
  let t = Job_server.create ~host_cores:4 ~config () in
  let j = Job_server.submit t (spec_of_src "shared" long_src) in
  let awaiters = List.init 3 (fun _ -> Domain.spawn (fun () -> Job_server.await t j)) in
  let results = List.map (fun d -> ok_result (Domain.join d)) awaiters in
  Job_server.shutdown t;
  (match results with
  | r :: rest ->
    List.iteri
      (fun k r' -> check (Printf.sprintf "awaiter %d sees the same result" (k + 1)) true (r' == r))
      rest
  | [] -> Alcotest.fail "no awaiters");
  check "the job ran once" true
    (report_field t "jobs" = Privateer_support.Json.Int 1
    && report_field t "done" = Privateer_support.Json.Int 1)

(* Jobs still queued at [shutdown] are not lost: with no server domain
   (bound 1) the domain that shuts the server down runs them.  A second
   [shutdown] changes nothing. *)
let test_shutdown_with_queued_jobs () =
  let t = Job_server.create ~host_cores:1 ~config:RC.default () in
  let jobs =
    List.init 5 (fun i -> Job_server.submit t (spec_of_src (Printf.sprintf "z%d" i) (program_src i)))
  in
  check "all queued before shutdown" true (List.for_all (is_queued t) jobs);
  Job_server.shutdown t;
  let results = List.map (fun j -> ok_result (Job_server.await t j)) jobs in
  List.iteri
    (fun i (r : Job_server.job_result) ->
      Alcotest.(check string) (Printf.sprintf "z%d settled by shutdown" i)
        (string_of_int (program_total i)) r.jr_result)
    results;
  Job_server.shutdown t;
  check "second shutdown keeps the results" true
    (List.for_all2
       (fun j r -> match Job_server.state t j with Job_server.Done r' -> r' == r | _ -> false)
       jobs results)

(* [create] validates its knobs before it spawns anything, and a
   nonsensical core count clamps to one core. *)
let test_create_validates () =
  let rejects msg config frag =
    match Job_server.create ~host_cores:4 ~config () with
    | t ->
      Job_server.shutdown t;
      Alcotest.fail (msg ^ " accepted")
    | exception Invalid_argument m ->
      check (msg ^ ": " ^ m) true
        (let lf = String.length frag in
         let rec go i = i + lf <= String.length m && (String.sub m i lf = frag || go (i + 1)) in
         go 0)
  in
  rejects "max_inflight 0" { RC.default with RC.max_inflight = 0 } "max_inflight must be in [1, 64]";
  rejects "max_inflight 65" { RC.default with RC.max_inflight = 65 } "max_inflight must be in [1, 64]";
  let t = Job_server.create ~host_cores:0 ~config:{ RC.default with RC.max_inflight = 8 } () in
  check_int "0 cores clamps to 1" 1 (Job_server.host_cores t);
  check_int "and to sequential execution" 1 (Job_server.effective_inflight t);
  Job_server.shutdown t

(* The report carries the requested in-flight bound next to the
   effective one, so a clamp is visible, and counts the jobs it ran. *)
let test_report_bounds () =
  let config = { RC.default with RC.max_inflight = 8 } in
  let t = Job_server.create ~host_cores:2 ~config () in
  List.iter
    (fun i -> ignore (Job_server.submit t (spec_of_src (Printf.sprintf "r%d" i) (program_src i))))
    [ 0; 1 ];
  Job_server.shutdown t;
  let open Privateer_support.Json in
  List.iter
    (fun (key, expected) -> check (key ^ " reported") true (report_field t key = Int expected))
    [ ("max_inflight_requested", 8); ("max_inflight_effective", 2); ("host_cores", 2); ("jobs", 2); ("done", 2); ("failed", 0) ];
  check "one entry per job, each done" true
    (match report_field t "job_results" with
    | List entries ->
      List.length entries = 2
      && List.for_all
           (function Obj kvs -> List.assoc_opt "state" kvs = Some (String "done") | _ -> false)
           entries
    | _ -> false)

(* qcheck: client domains that each submit a stream of jobs to one
   server and then await them in order see each job settle with its
   own result, or with exactly its own fault. *)
let submitters_arb =
  QCheck.make
    ~print:(fun (clients, per, fail_mod) ->
      Printf.sprintf "%d clients x %d jobs, fail mod %d" clients per fail_mod)
    QCheck.Gen.(triple (int_range 2 3) (int_range 1 4) (int_range 0 3))

let prop_concurrent_submitters (clients, per, fail_mod) =
  let config = { RC.default with RC.max_inflight = 3 } in
  let t = Job_server.create ~host_cores:4 ~config () in
  Fun.protect
    ~finally:(fun () -> Job_server.shutdown t)
    (fun () ->
      let fails c i = fail_mod > 0 && (i + c) mod fail_mod = 1 in
      let client c =
        Domain.spawn (fun () ->
            let tag i = (c * 100) + i in
            let jobs =
              List.init per (fun i ->
                  Job_server.submit t
                    (spec_of_src (Printf.sprintf "p%d" (tag i))
                       (if fails c i then float_fault_src (tag i) else program_src (tag i))))
            in
            List.mapi
              (fun i j ->
                match Job_server.await t j with
                | Ok r ->
                  (not (fails c i))
                  && r.Job_server.jr_name = Printf.sprintf "p%d" (tag i)
                  && r.jr_result = string_of_int (program_total (tag i))
                | Error msg -> fails c i && msg = float_fault_error (tag i))
              jobs)
      in
      let domains = List.init clients client in
      List.for_all (fun d -> List.for_all Fun.id (Domain.join d)) domains)

(* A port, a scenario and a file source, each with its baseline: the
   served entry of each job is [result_json] of the same job executed
   alone, once the served-only [id] and [state] and the host-time
   [host_ms] object are set aside, and both [host_ms] objects carry
   the same keys. *)
let test_served_entry_is_result_json () =
  with_source (program_src 4) (fun path ->
      let specs () =
        Jobs_manifest.parse ~base:RC.default
          (Printf.sprintf
             "port workload:dijkstra input=train baseline\n\
              gen scenario:seed=3,trip=24 baseline\n\
              file file:%s baseline\n"
             path)
      in
      let t =
        Job_server.run_jobs ~host_cores:2 ~config:{ RC.default with RC.max_inflight = 2 }
          (specs ())
      in
      let fields = function
        | Privateer_support.Json.Obj kvs -> kvs
        | _ -> Alcotest.fail "not an object"
      in
      let split kvs =
        ( List.filter (fun (k, _) -> not (List.mem k [ "id"; "state"; "host_ms" ])) kvs,
          List.map fst (fields (List.assoc "host_ms" kvs)) )
      in
      let served =
        match report_field t "job_results" with
        | Privateer_support.Json.List entries -> List.map fields entries
        | _ -> Alcotest.fail "job_results is not a list"
      in
      List.iter2
        (fun spec entry ->
          let name = spec.Job_server.js_name in
          let alone, alone_host =
            split (fields (Job_server.result_json spec (Job_server.execute spec)))
          in
          let entry, entry_host = split entry in
          check (name ^ ": served entry = result_json") true (entry = alone);
          Alcotest.(check (list string)) (name ^ ": host_ms keys") alone_host entry_host)
        (specs ()) served)

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
  (* The host-parallelism knobs, the shadow-page pool cap, the
     profiler set and the queue cap are gone: each is an unknown
     option. *)
  List.iter
    (fun opt ->
      match Jobs_manifest.parse ~base:RC.default ("# ok\nx workload:dijkstra " ^ opt ^ "\n") with
      | _ -> Alcotest.fail (Printf.sprintf "removed knob %S accepted" opt)
      | exception Failure m ->
        check (opt ^ " is an unknown job option on line 2") true
          (contains m "line 2:" && contains m "unknown job option"))
    [ "host-domains=2"; "merge-shards=4"; "pool-kind=legacy"; "host-controller=never";
      "shadow-pool-cap=0"; "profilers=exec"; "queue-cap=1" ];
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
    [ QCheck.Test.make ~count:20 ~name:"concurrent submitters: order + failures"
        submitters_arb prop_concurrent_submitters ]
  @ [ Alcotest.test_case "interleaved pipelines = serial reference" `Quick
        test_interleaved_pipelines;
      Alcotest.test_case "stats tables are instance-scoped" `Quick
        test_stats_instance_scoped;
      Alcotest.test_case "lifecycle: jobs settle Done" `Quick test_lifecycle_done;
      Alcotest.test_case "failed job confined to its slot" `Quick
        test_failed_job_confined;
      Alcotest.test_case "in-flight bound clamps to cores" `Quick
        test_inflight_clamp;
      Alcotest.test_case "shutdown stops the server's domains" `Quick
        test_shutdown_stops_domains;
      Alcotest.test_case "three clients share one server" `Quick test_shared_server;
      Alcotest.test_case "submit/await: own result, settled once" `Quick
        test_submit_await_basic;
      Alcotest.test_case "a failed job leaves the server usable" `Quick
        test_failure_leaves_server_usable;
      Alcotest.test_case "bound 1: a job waits for its awaiter" `Quick
        test_bound_one_runs_on_awaiter;
      Alcotest.test_case "unbounded queue: submit only enqueues" `Quick
        test_submit_only_enqueues;
      Alcotest.test_case "await runs the queue from its head" `Quick
        test_await_runs_queue_in_order;
      Alcotest.test_case "results independent of completion order" `Quick
        test_results_independent_of_completion_order;
      Alcotest.test_case "mixed failures settle per job" `Quick
        test_mixed_failures_settle_per_job;
      Alcotest.test_case "concurrent awaiters see one result" `Quick
        test_concurrent_awaiters;
      Alcotest.test_case "shutdown runs queued jobs, idempotent" `Quick
        test_shutdown_with_queued_jobs;
      Alcotest.test_case "create validates its knobs" `Quick test_create_validates;
      Alcotest.test_case "report: requested and effective bounds" `Quick
        test_report_bounds;
      Alcotest.test_case "served entry = result_json of the job alone" `Quick
        test_served_entry_is_result_json;
      Alcotest.test_case "manifest: parse, repeat, knobs, errors" `Quick
        test_manifest_parse;
      Alcotest.test_case "manifest: scenario jobs, scale, line errors" `Quick
        test_manifest_scenarios;
      Alcotest.test_case "faulting file: job fails with its runtime error" `Quick
        test_faulting_file_job;
      Alcotest.test_case "example manifest loads" `Quick
        test_example_manifest_loads ]
