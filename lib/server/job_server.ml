(* Privateer as a service: a job server running concurrent speculative
   pipelines on domains it owns.

   Each job is a whole pipeline — profile (train input), classify,
   transform, speculative parallel run (run input) — and runs to
   completion on one domain: one of the server's own, or a client
   domain that runs the head of the queue while it waits (in [await],
   or in a [submit] blocked on a full queue).  This is the program's
   only host parallelism.

   Determinism contract: a job's simulated cycles, output, result and
   every non-host stats counter (everything but the `ns_*` wall-time
   accumulators) depend only on the job itself, never on what else is
   in flight —
   N jobs at any `max_inflight` are byte-identical to the same jobs
   run serially.  [fingerprint] digests exactly that deterministic
   surface, so the bench and tests can assert the contract cheaply.

   Admission control: at most [effective_inflight] jobs run at once
   (the configured `max_inflight` clamped to the host core count —
   on a 1-core host jobs run sequentially, concurrency could only add
   scheduling overhead), and at most `queue_cap` accepted jobs may
   wait in the queue; a full queue blocks [submit] (backpressure) and
   rejects [try_submit]. *)

module Clock = Privateer_support.Clock
module Json = Privateer_support.Json
module RC = Privateer_parallel.Runtime_config
module Stats = Privateer_runtime.Stats
module Pipeline = Privateer.Pipeline

(* ---- job specification ------------------------------------------------ *)

type job_spec = {
  js_name : string;
  js_program : Privateer_ir.Ast.program;
      (* parsed per spec (ASTs are not shared between concurrent jobs) *)
  js_train : Pipeline.setup; (* profiling input *)
  js_run : Pipeline.setup; (* evaluation input *)
  js_config : RC.t;
  js_baseline : bool;
      (* also run the original program sequentially and record
         output_identical / speedup *)
}

let job_spec ?(train = Pipeline.no_setup) ?(run = Pipeline.no_setup)
    ?(config = RC.default) ?(baseline = false) ~name program =
  { js_name = name; js_program = program; js_train = train; js_run = run;
    js_config = config; js_baseline = baseline }

(* ---- results and lifecycle -------------------------------------------- *)

type job_result = {
  jr_name : string;
  jr_cycles : int; (* simulated parallel cycles (deterministic) *)
  jr_output : string;
  jr_result : string; (* entry return value, printed *)
  jr_fallbacks : int;
  jr_stats : Stats.t;
  jr_fingerprint : string;
      (* digest of the deterministic surface: cycles, output, result,
         non-host stats, per-loop table *)
  jr_baseline_cycles : int option; (* when js_baseline *)
  jr_output_identical : bool option;
  jr_queue_ns : float; (* host: admission to launch *)
  jr_service_ns : float; (* host: launch to settle *)
  jr_profile_ns : float; (* host: profiling share of the training run *)
}

type state = Queued | Running | Done of job_result | Failed of string

let state_name = function
  | Queued -> "queued"
  | Running -> "running"
  | Done _ -> "done"
  | Failed _ -> "failed"

type job = {
  j_id : int;
  j_spec : job_spec;
  mutable j_state : state;
  j_submit_ns : float;
  mutable j_start_ns : float;
}

(* ---- the deterministic fingerprint ------------------------------------ *)

(* Everything here must be independent of host parallelism and of
   concurrent neighbours: simulated cycles and outputs, the
   non-instrumentation stats counters, and the per-loop table.  The
   ns_* accumulators are host-side and deliberately excluded. *)
let deterministic_stats (s : Stats.t) =
  let loops =
    List.map
      (fun (loop, (ls : Stats.loop_stats)) ->
        Printf.sprintf "loop %d: inv %d miss %d wall %d dem %d susp %d" loop
          ls.l_invocations ls.l_misspeculations ls.l_wall_cycles ls.l_demotions
          ls.l_suspended_invocations)
      (Stats.loop_table s)
  in
  String.concat "\n"
    (Printf.sprintf
       "inv %d ckpt %d pbr %d pbw %d sc %d sce %d miss %d rec %d iter %d"
       s.invocations s.checkpoints s.private_bytes_read s.private_bytes_written
       s.separation_checks s.separation_checks_elided s.misspeculations
       s.recovered_iterations s.iterations
    :: Printf.sprintf "cyc %d %d %d %d %d %d %d wall %d workers %d" s.cyc_useful
         s.cyc_private_read s.cyc_private_write s.cyc_checkpoint s.cyc_spawn
         s.cyc_join s.cyc_recovery s.wall_cycles s.workers
    :: loops)

let fingerprint_of_run ~output ~result ~cycles ~fallbacks stats =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "cycles %d fallbacks %d\nresult %s\noutput:\n%s\nstats:\n%s"
          cycles fallbacks result output (deterministic_stats stats)))

(* ---- job execution ----------------------------------------------------- *)

(* The whole pipeline, on the calling domain. *)
let execute_spec spec =
  let tr, profiler = Pipeline.compile ~setup:spec.js_train spec.js_program in
  let par = Pipeline.run_parallel ~setup:spec.js_run ~config:spec.js_config tr in
  let baseline =
    if spec.js_baseline then
      Some (Pipeline.run_sequential ~setup:spec.js_run spec.js_program)
    else None
  in
  let result = Privateer_interp.Value.to_string par.par_result in
  { jr_name = spec.js_name; jr_cycles = par.par_cycles; jr_output = par.par_output;
    jr_result = result; jr_fallbacks = par.fallbacks; jr_stats = par.stats;
    jr_fingerprint =
      fingerprint_of_run ~output:par.par_output ~result ~cycles:par.par_cycles
        ~fallbacks:par.fallbacks par.stats;
    jr_baseline_cycles =
      Option.map (fun (s : Pipeline.seq_run) -> s.seq_cycles) baseline;
    jr_output_identical =
      Option.map
        (fun (s : Pipeline.seq_run) -> String.equal s.seq_output par.par_output)
        baseline;
    jr_queue_ns = 0.0; jr_service_ns = 0.0;
    jr_profile_ns = Privateer_profile.Profiler.wall_ns profiler }

(* ---- the server -------------------------------------------------------- *)

type t = {
  sv_mutex : Mutex.t;
  sv_changed : Condition.t;
      (* broadcast when the queue or the in-flight count changes:
         awaiters and submitters blocked on a full queue re-check *)
  sv_work : Condition.t;
      (* signalled when a job is queued or a slot frees: one idle
         server domain is enough to launch it, so the server's domains
         wait here and not on [sv_changed] *)
  sv_queue : job Queue.t; (* accepted, not yet launched *)
  sv_queue_cap : int; (* 0 = unbounded *)
  sv_requested_inflight : int;
  sv_inflight_cap : int; (* effective: clamped to host cores *)
  mutable sv_inflight : int;
  mutable sv_domains : unit Domain.t list;
  sv_host_cores : int;
  mutable sv_jobs : job list; (* every accepted job, reverse order *)
  mutable sv_next_id : int;
  mutable sv_started_ns : float;
  mutable sv_shut : bool;
}

(* Clamp the configured in-flight bound to what the host can actually
   run: on a 1-core box concurrent jobs only interleave on one core
   (and tax the GC), so the server degrades to sequential execution —
   the per-job determinism contract makes this invisible in results. *)
let effective_inflight_for ~host_cores ~max_inflight =
  if host_cores <= 1 then 1 else min max_inflight host_cores

(* If an in-flight slot is free, launch the head of the queue and run
   it to completion on the calling domain, then settle it; [false] when
   nothing can launch.  Called and returns with [sv_mutex] held; the
   job runs without it.  Never raises: a failed pipeline is a Failed
   job. *)
let run_head_locked t =
  if Queue.is_empty t.sv_queue || t.sv_inflight >= t.sv_inflight_cap then false
  else begin
    let job = Queue.pop t.sv_queue in
    job.j_start_ns <- Clock.now_ns ();
    job.j_state <- Running;
    t.sv_inflight <- t.sv_inflight + 1;
    Condition.broadcast t.sv_changed;
    Mutex.unlock t.sv_mutex;
    let outcome =
      try
        let r = execute_spec job.j_spec in
        let now = Clock.now_ns () in
        Done
          { r with
            jr_queue_ns = job.j_start_ns -. job.j_submit_ns;
            jr_service_ns = now -. job.j_start_ns }
      with
      | Privateer_interp.Interp.Runtime_error msg -> Failed ("runtime error: " ^ msg)
      | e -> Failed (Printexc.to_string e)
    in
    Mutex.lock t.sv_mutex;
    job.j_state <- outcome;
    t.sv_inflight <- t.sv_inflight - 1;
    Condition.broadcast t.sv_changed;
    if not (Queue.is_empty t.sv_queue) then Condition.signal t.sv_work;
    true
  end

(* A server domain: until [shutdown], run queued jobs while slots
   allow and sleep on [sv_work] otherwise. *)
let serve t =
  Mutex.lock t.sv_mutex;
  while not t.sv_shut do
    if not (run_head_locked t) then Condition.wait t.sv_work t.sv_mutex
  done;
  Mutex.unlock t.sv_mutex

let create ?host_cores ~config () =
  RC.validate config;
  let host_cores =
    match host_cores with
    | Some c -> max 1 c
    | None -> Domain.recommended_domain_count ()
  in
  let inflight = effective_inflight_for ~host_cores ~max_inflight:config.RC.max_inflight in
  let t =
    { sv_mutex = Mutex.create (); sv_changed = Condition.create ();
      sv_work = Condition.create (); sv_queue = Queue.create ();
      sv_queue_cap = config.RC.queue_cap;
      sv_requested_inflight = config.RC.max_inflight; sv_inflight_cap = inflight;
      sv_inflight = 0; sv_domains = []; sv_host_cores = host_cores; sv_jobs = [];
      sv_next_id = 0; sv_started_ns = Clock.now_ns (); sv_shut = false }
  in
  (* The domain that awaits a job fills the last in-flight slot. *)
  t.sv_domains <- List.init (inflight - 1) (fun _ -> Domain.spawn (fun () -> serve t));
  t

let effective_inflight t = t.sv_inflight_cap
let host_cores t = t.sv_host_cores
let jobs t = List.rev t.sv_jobs

let state t job =
  Mutex.lock t.sv_mutex;
  let s = job.j_state in
  Mutex.unlock t.sv_mutex;
  s

let enqueue_locked t spec =
  let job =
    { j_id = t.sv_next_id; j_spec = spec; j_state = Queued;
      j_submit_ns = Clock.now_ns (); j_start_ns = 0.0 }
  in
  t.sv_next_id <- t.sv_next_id + 1;
  t.sv_jobs <- job :: t.sv_jobs;
  Queue.push job t.sv_queue;
  Condition.broadcast t.sv_changed;
  Condition.signal t.sv_work;
  job

let queue_full t =
  t.sv_queue_cap > 0 && Queue.length t.sv_queue >= t.sv_queue_cap

(* Blocking admission: while the queue is at cap (backpressure), run
   its head if a slot is free, else wait. *)
let submit t spec =
  Mutex.lock t.sv_mutex;
  if t.sv_shut then begin
    Mutex.unlock t.sv_mutex;
    invalid_arg "Job_server.submit: server is shut down"
  end;
  while queue_full t do
    if not (run_head_locked t) then Condition.wait t.sv_changed t.sv_mutex
  done;
  let job = enqueue_locked t spec in
  Mutex.unlock t.sv_mutex;
  job

(* Non-blocking admission: [None] when the queue is at cap. *)
let try_submit t spec =
  Mutex.lock t.sv_mutex;
  if t.sv_shut then begin
    Mutex.unlock t.sv_mutex;
    invalid_arg "Job_server.try_submit: server is shut down"
  end;
  let r = if queue_full t then None else Some (enqueue_locked t spec) in
  Mutex.unlock t.sv_mutex;
  r

(* Block until [job] settles, running the head of the queue on the
   calling domain whenever a slot is free, so the awaiting domain
   contributes a core instead of idling. *)
let await t job =
  Mutex.lock t.sv_mutex;
  let rec settled () =
    match job.j_state with
    | Done r -> Ok r
    | Failed msg -> Error msg
    | Queued | Running ->
      if not (run_head_locked t) then Condition.wait t.sv_changed t.sv_mutex;
      settled ()
  in
  let r = settled () in
  Mutex.unlock t.sv_mutex;
  r

let drain t = List.iter (fun job -> ignore (await t job)) (jobs t)

let shutdown t =
  drain t;
  Mutex.lock t.sv_mutex;
  t.sv_shut <- true;
  let domains = t.sv_domains in
  t.sv_domains <- [];
  Condition.broadcast t.sv_work;
  Mutex.unlock t.sv_mutex;
  List.iter Domain.join domains

(* ---- aggregate report -------------------------------------------------- *)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let i = int_of_float (ceil (p *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) i))

let latency_summary values =
  let a = Array.of_list values in
  Array.sort compare a;
  let n = Array.length a in
  let mean = if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 a /. float_of_int n in
  Json.Obj
    [ ("p50_ms", Json.Float (percentile a 0.50 /. 1e6));
      ("p95_ms", Json.Float (percentile a 0.95 /. 1e6));
      ("mean_ms", Json.Float (mean /. 1e6));
      ("max_ms", Json.Float ((if n = 0 then 0.0 else a.(n - 1)) /. 1e6)) ]

let job_json t job =
  let base =
    [ ("id", Json.Int job.j_id); ("name", Json.String job.j_spec.js_name);
      ("state", Json.String (state_name (state t job))) ]
  in
  match state t job with
  | Done r ->
    let loops =
      List.map
        (fun (loop, (ls : Stats.loop_stats)) ->
          Json.Obj
            [ ("loop", Json.Int loop); ("invocations", Json.Int ls.l_invocations);
              ("misspeculations", Json.Int ls.l_misspeculations);
              ("wall_cycles", Json.Int ls.l_wall_cycles) ])
        (Stats.loop_table r.jr_stats)
    in
    Json.Obj
      (base
      @ [ ("cycles", Json.Int r.jr_cycles);
          ("fallbacks", Json.Int r.jr_fallbacks);
          ("misspeculations", Json.Int r.jr_stats.misspeculations);
          ("iterations", Json.Int r.jr_stats.iterations);
          ("fingerprint", Json.String r.jr_fingerprint);
          ("queue_ms", Json.Float (r.jr_queue_ns /. 1e6));
          ("service_ms", Json.Float (r.jr_service_ns /. 1e6));
          ("profile_ms", Json.Float (r.jr_profile_ns /. 1e6));
          ("loops", Json.List loops) ]
      @ (match r.jr_baseline_cycles with
        | Some c ->
          [ ("baseline_cycles", Json.Int c);
            ( "speedup",
              Json.Float (float_of_int c /. float_of_int (max 1 r.jr_cycles)) );
            ( "output_identical",
              Json.Bool (Option.value ~default:false r.jr_output_identical) ) ]
        | None -> []))
  | Failed msg -> Json.Obj (base @ [ ("error", Json.String msg) ])
  | Queued | Running -> Json.Obj base

(* The aggregate report: admission configuration, throughput over the
   server's lifetime, queue/service latency percentiles, and one entry
   per job.  Meaningful after [drain]. *)
let report t =
  let all = jobs t in
  let results =
    List.filter_map
      (fun j -> match state t j with Done r -> Some r | _ -> None)
      all
  in
  let failed =
    List.length (List.filter (fun j -> match state t j with Failed _ -> true | _ -> false) all)
  in
  let wall_ns = Clock.now_ns () -. t.sv_started_ns in
  let wall_s = wall_ns /. 1e9 in
  Json.Obj
    [ ("jobs", Json.Int (List.length all));
      ("done", Json.Int (List.length results)); ("failed", Json.Int failed);
      ("max_inflight_requested", Json.Int t.sv_requested_inflight);
      ("max_inflight_effective", Json.Int t.sv_inflight_cap);
      ("queue_cap", Json.Int t.sv_queue_cap);
      ("host_cores", Json.Int t.sv_host_cores);
      ("wall_s", Json.Float wall_s);
      ( "throughput_jobs_per_s",
        Json.Float
          (if wall_s <= 0.0 then 0.0 else float_of_int (List.length results) /. wall_s)
      );
      ("queue_latency", latency_summary (List.map (fun r -> r.jr_queue_ns) results));
      ( "service_latency",
        latency_summary (List.map (fun r -> r.jr_service_ns) results) );
      ("job_results", Json.List (List.map (job_json t) all)) ]

(* One-shot convenience: create, submit everything, drain, shut down;
   the returned server holds the settled jobs for [report] and
   inspection. *)
let run_jobs ?host_cores ~config specs =
  let t = create ?host_cores ~config () in
  List.iter (fun spec -> ignore (submit t spec)) specs;
  shutdown t;
  t
