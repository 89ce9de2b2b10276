(* The `server` experiment: does multiplexing concurrent speculative
   pipelines over one shared pool raise aggregate throughput, and do
   the concurrent runs stay byte-identical to serial?

   A stress corpus of SERVER_JOBS (default 500) generated scenarios
   (Privateer_gen.Scenario_gen.corpus: seeded, so the corpus is
   reproducible run to run) — loop counts, trip counts, heap
   footprints, reduction mixes and planted misspeculation rates all
   varying per job, worker counts varying per slot, every job parsing
   its own AST (concurrent jobs never share programs) — runs through
   three server cells:

   - `serial`: 1 host core, max_inflight 1 — the reference;
   - `concurrent-4`: the real host, max_inflight 4.  On a multi-core
     host its throughput must beat serial; on 1 core the clamp keeps
     jobs effectively sequential and throughput must not regress;
   - `forced-4`: 4 "cores" forced, so the genuinely concurrent path
     (jobs as pool futures) is exercised even on a 1-core host — for
     the determinism check, not the throughput claim.

   Every cell's per-job fingerprints (cycles, output, result, non-host
   stats, per-loop table) must equal the serial cell's.  Results go to
   BENCH_server.json and the binary exits non-zero when a gate fails;
   CI smoke runs scale down via SERVER_JOBS. *)

open Privateer_support
module Job_server = Privateer_server.Job_server
module RC = Privateer_parallel.Runtime_config
module Scenario_gen = Privateer_gen.Scenario_gen
module Workload = Privateer_workloads.Workload

let jobs_n () =
  match Sys.getenv_opt "SERVER_JOBS" with
  | Some s -> (try max 2 (int_of_string s) with Failure _ -> 200)
  | None -> 500

let corpus_seed = 0xC0FFEE

(* The corpus is drawn once per process so every cell runs the same
   scenario sequence; each spec still parses its own AST. *)
let corpus = lazy (Scenario_gen.corpus ~seed:corpus_seed ~count:(jobs_n ()))

let specs ~max_inflight =
  List.mapi
    (fun i (t : Scenario_gen.t) ->
      let config =
        { RC.default with max_inflight; queue_cap = 0; workers = 4 + (4 * (i mod 3)) }
      in
      let wl = t.Scenario_gen.sc_workload in
      Job_server.job_spec ~config
        ~train:(Workload.setup wl Workload.Train)
        ~run:(Workload.setup wl Workload.Ref)
        ~name:(Printf.sprintf "job%03d" i)
        (Privateer.Pipeline.parse t.Scenario_gen.sc_source))
    (Lazy.force corpus)

type cell = {
  label : string;
  inflight : int;
  forced_cores : int option;
  wall_s : float;
  throughput : float;
  effective : int;
  cores : int;
  done_ : int;
  failed : int;
  queue_p50_ms : float;
  queue_p95_ms : float;
  service_p50_ms : float;
  service_p95_ms : float;
  fingerprints : (string * string) list;
}

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1))

let run_cell ~label ?host_cores ~inflight n =
  let config = { RC.default with max_inflight = inflight } in
  let t0 = Clock.now_ns () in
  let sv = Job_server.run_jobs ?host_cores ~config (specs ~max_inflight:inflight) in
  let wall_s = (Clock.now_ns () -. t0) /. 1e9 in
  let results =
    List.map (fun j -> Job_server.state sv j) (Job_server.jobs sv)
  in
  let dones =
    List.filter_map
      (function Job_server.Done r -> Some r | _ -> None)
      results
  in
  let failed =
    List.length (List.filter (function Job_server.Failed _ -> true | _ -> false) results)
  in
  let ms f sel =
    let a = Array.of_list (List.map (fun r -> sel r /. 1e6) dones) in
    Array.sort compare a;
    percentile a f
  in
  { label; inflight; forced_cores = host_cores; wall_s;
    throughput = float_of_int n /. wall_s;
    effective = Job_server.effective_inflight sv;
    cores = Job_server.host_cores sv;
    done_ = List.length dones; failed;
    queue_p50_ms = ms 0.50 (fun r -> r.Job_server.jr_queue_ns);
    queue_p95_ms = ms 0.95 (fun r -> r.Job_server.jr_queue_ns);
    service_p50_ms = ms 0.50 (fun r -> r.Job_server.jr_service_ns);
    service_p95_ms = ms 0.95 (fun r -> r.Job_server.jr_service_ns);
    fingerprints =
      List.map (fun r -> (r.Job_server.jr_name, r.Job_server.jr_fingerprint)) dones }

let run () =
  let n = jobs_n () in
  let real_cores = Domain.recommended_domain_count () in
  let multicore = real_cores > 1 in
  Printf.printf "server: %d jobs, %d host cores%s\n%!" n real_cores
    (if multicore then "" else " (1-core host: inflight clamps to sequential)");
  let serial = run_cell ~label:"serial" ~host_cores:1 ~inflight:1 n in
  let concurrent4 = run_cell ~label:"concurrent-4" ~inflight:4 n in
  let forced4 = run_cell ~label:"forced-4" ~host_cores:4 ~inflight:4 n in
  let cells = [ serial; concurrent4; forced4 ] in
  let identical c = c.fingerprints = serial.fingerprints in
  let all_identical = List.for_all identical cells in
  let t =
    Table.create
      ~aligns:
        [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right;
          Table.Right; Table.Right ]
      [ "cell"; "cores"; "inflight"; "wall s"; "jobs/s"; "p95 ms"; "identical" ]
  in
  List.iter
    (fun c ->
      Table.add_row t
        [ c.label; string_of_int c.cores; string_of_int c.effective;
          Printf.sprintf "%.2f" c.wall_s; Printf.sprintf "%.1f" c.throughput;
          Printf.sprintf "%.2f" c.service_p95_ms;
          (if identical c then "yes" else "NO (BUG)") ])
    cells;
  Table.print t;
  let speedup = concurrent4.throughput /. serial.throughput in
  (* The acceptance gate: concurrency must pay on a multi-core host
     and must cost (at most noise) nothing on a 1-core one, where the
     clamp keeps execution sequential. *)
  let throughput_ok =
    if multicore then speedup > 1.0 else speedup >= 0.85
  in
  Printf.printf
    "\nmax_inflight 4 vs serial: %.2fx throughput -> %s\n"
    speedup
    (if throughput_ok then
       if multicore then "concurrent wins" else "no regression at 1 core"
     else "REGRESSION (BUG)");
  Printf.printf "determinism: %s\n"
    (if all_identical then
       Printf.sprintf "all %d cells byte-identical to serial" (List.length cells)
     else "MISMATCH (BUG)");
  let json =
    let open Json in
    Obj
      [ ("experiment", String "server"); ("jobs", Int n);
        ("host_cores", Int real_cores); ("multicore", Bool multicore);
        ( "cells",
          List
            (List.map
               (fun c ->
                 Obj
                   [ ("label", String c.label);
                     ("max_inflight", Int c.inflight);
                     ("effective_inflight", Int c.effective);
                     ("host_cores", Int c.cores);
                     ( "host_cores_forced",
                       Bool (Option.is_some c.forced_cores) );
                     ("wall_s", Float c.wall_s);
                     ("throughput_jobs_per_s", Float c.throughput);
                     ("done", Int c.done_); ("failed", Int c.failed);
                     ("queue_p50_ms", Float c.queue_p50_ms);
                     ("queue_p95_ms", Float c.queue_p95_ms);
                     ("service_p50_ms", Float c.service_p50_ms);
                     ("service_p95_ms", Float c.service_p95_ms);
                     ("identical_to_serial", Bool (identical c)) ])
               cells) );
        ("serial_throughput_jobs_per_s", Float serial.throughput);
        ("concurrent_throughput_jobs_per_s", Float concurrent4.throughput);
        ("speedup_vs_serial", Float speedup);
        ("throughput_ok", Bool throughput_ok);
        ("all_identical", Bool all_identical) ]
  in
  let oc = open_out "BENCH_server.json" in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  print_endline "\nwrote BENCH_server.json";
  Harness.require [ ("all_identical", all_identical); ("throughput_ok", throughput_ok) ]
