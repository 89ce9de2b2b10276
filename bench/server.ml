(* The `server` experiment: does running concurrent speculative
   pipelines on the job server's domains raise aggregate throughput,
   and do the concurrent runs stay byte-identical to serial?

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
     (three server domains plus the awaiting one) is exercised even on
     a 1-core host — for the determinism check, not the throughput
     claim.

   `serial` and `concurrent-4` run in alternating rounds, and the
   throughput gate reads the median of the per-round speedups.  Every
   run's per-job fingerprints (cycles, output, result, non-host stats,
   per-loop table) must equal the first serial run's.  Results go to
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
        { RC.default with max_inflight; workers = 4 + (4 * (i mod 3)) }
      in
      let wl = t.Scenario_gen.sc_workload in
      Job_server.job_spec ~config
        ~train:(Workload.setup wl Workload.Train)
        ~run:(Workload.setup wl Workload.Ref)
        ~name:(Printf.sprintf "job%03d" i)
        (Privateer.Pipeline.parse t.Scenario_gen.sc_source))
    (Lazy.force corpus)

(* The serial and concurrent-4 cells run in this many alternating
   rounds and the throughput gate reads the median per-round speedup:
   one ~0.1 s sample per cell (SERVER_JOBS=24) flips either way on a
   shared 2-core host. *)
let rounds = 5

(* One pass of the corpus through a fresh server. *)
type run = {
  wall_s : float;
  effective : int;
  cores : int;
  done_ : int;
  failed : int;
  queue_ns : float list;
  service_ns : float list;
  fingerprints : (string * string) list;
}

type cell = { label : string; inflight : int; forced_cores : int option; runs : run list }

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1))

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs = percentile (sorted xs) 0.50

(* The specs (a parse per job, and on the first pass the lazy corpus)
   are built before the clock starts, so only the server is timed. *)
let run_once ?host_cores ~inflight () =
  let config = { RC.default with max_inflight = inflight } in
  let specs = specs ~max_inflight:inflight in
  let t0 = Clock.now_ns () in
  let sv = Job_server.run_jobs ?host_cores ~config specs in
  let wall_s = (Clock.now_ns () -. t0) /. 1e9 in
  let results = List.map (Job_server.state sv) (Job_server.jobs sv) in
  let dones = List.filter_map (function Job_server.Done r -> Some r | _ -> None) results in
  { wall_s;
    effective = Job_server.effective_inflight sv;
    cores = Job_server.host_cores sv;
    done_ = List.length dones;
    failed =
      List.length (List.filter (function Job_server.Failed _ -> true | _ -> false) results);
    queue_ns = List.map (fun r -> r.Job_server.jr_queue_ns) dones;
    service_ns = List.map (fun r -> r.Job_server.jr_service_ns) dones;
    fingerprints =
      List.map (fun r -> (r.Job_server.jr_name, r.Job_server.jr_fingerprint)) dones }

(* A cell's summary: its median run's wall time and throughput, its
   worst run's done/failed counts, and latency percentiles over every
   job it ran. *)
let cell_wall_s c = median (List.map (fun r -> r.wall_s) c.runs)
let cell_throughput n c = median (List.map (fun r -> float_of_int n /. r.wall_s) c.runs)
let cell_done c = List.fold_left (fun m r -> min m r.done_) max_int c.runs
let cell_failed c = List.fold_left (fun m r -> max m r.failed) 0 c.runs
let cell_ms c sel p = percentile (sorted (List.concat_map sel c.runs)) p /. 1e6

let run () =
  let n = jobs_n () in
  let real_cores = Domain.recommended_domain_count () in
  let multicore = real_cores > 1 in
  Printf.printf "server: %d jobs, %d host cores%s, %d rounds\n%!" n real_cores
    (if multicore then "" else " (1-core host: inflight clamps to sequential)")
    rounds;
  let serial_run () = run_once ~host_cores:1 ~inflight:1 () in
  let concurrent_run () = run_once ~inflight:4 () in
  let pairs =
    List.init rounds (fun k ->
        if k mod 2 = 0 then
          let s = serial_run () in
          (s, concurrent_run ())
        else
          let c = concurrent_run () in
          (serial_run (), c))
  in
  let serial =
    { label = "serial"; inflight = 1; forced_cores = Some 1; runs = List.map fst pairs }
  in
  let concurrent4 =
    { label = "concurrent-4"; inflight = 4; forced_cores = None; runs = List.map snd pairs }
  in
  let forced4 =
    { label = "forced-4"; inflight = 4; forced_cores = Some 4;
      runs = [ run_once ~host_cores:4 ~inflight:4 () ] }
  in
  let cells = [ serial; concurrent4; forced4 ] in
  let reference = (List.hd serial.runs).fingerprints in
  let identical c = List.for_all (fun r -> r.fingerprints = reference) c.runs in
  let all_identical = List.for_all identical cells in
  let speedups = List.map (fun (s, c) -> s.wall_s /. c.wall_s) pairs in
  let speedup = median speedups in
  let t =
    Table.create
      ~aligns:
        [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right;
          Table.Right; Table.Right; Table.Right ]
      [ "cell"; "cores"; "inflight"; "runs"; "wall s"; "jobs/s"; "p95 ms"; "identical" ]
  in
  List.iter
    (fun c ->
      let first = List.hd c.runs in
      Table.add_row t
        [ c.label; string_of_int first.cores; string_of_int first.effective;
          string_of_int (List.length c.runs); Printf.sprintf "%.2f" (cell_wall_s c);
          Printf.sprintf "%.1f" (cell_throughput n c);
          Printf.sprintf "%.2f" (cell_ms c (fun r -> r.service_ns) 0.95);
          (if identical c then "yes" else "NO (BUG)") ])
    cells;
  Table.print t;
  (* The acceptance gate: concurrency must pay on a multi-core host
     and must cost (at most noise) nothing on a 1-core one, where the
     clamp keeps execution sequential. *)
  let throughput_ok =
    if multicore then speedup > 1.0 else speedup >= 0.85
  in
  Printf.printf
    "\nmax_inflight 4 vs serial: %.2fx throughput (median of %s) -> %s\n"
    speedup
    (String.concat " " (List.map (Printf.sprintf "%.2f") speedups))
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
                 let first = List.hd c.runs in
                 let ms sel p = Float (cell_ms c sel p) in
                 Obj
                   [ ("label", String c.label);
                     ("max_inflight", Int c.inflight);
                     ("effective_inflight", Int first.effective);
                     ("host_cores", Int first.cores);
                     ( "host_cores_forced",
                       Bool (Option.is_some c.forced_cores) );
                     ("runs", Int (List.length c.runs));
                     ("wall_s", Float (cell_wall_s c));
                     ("throughput_jobs_per_s", Float (cell_throughput n c));
                     ("done", Int (cell_done c)); ("failed", Int (cell_failed c));
                     ("queue_p50_ms", ms (fun r -> r.queue_ns) 0.50);
                     ("queue_p95_ms", ms (fun r -> r.queue_ns) 0.95);
                     ("service_p50_ms", ms (fun r -> r.service_ns) 0.50);
                     ("service_p95_ms", ms (fun r -> r.service_ns) 0.95);
                     ("identical_to_serial", Bool (identical c)) ])
               cells) );
        ("serial_throughput_jobs_per_s", Float (cell_throughput n serial));
        ("concurrent_throughput_jobs_per_s", Float (cell_throughput n concurrent4));
        ("speedup_rounds", List (List.map (fun x -> Float x) speedups));
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
