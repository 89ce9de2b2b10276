(* Privateer as a service: a job server running concurrent speculative
   pipelines on domains it owns.

   Each job is a whole pipeline — profile (train input), classify,
   transform, speculative parallel run (run input) — and runs to
   completion on one domain: one of the server's own, or a client
   domain that runs the head of the queue while it waits in [await].
   This is the program's only host parallelism.  [execute] is that
   pipeline and [result_json] its report, the same for a served job
   and for `privateer run`.

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
   scheduling overhead); the queue of accepted jobs is unbounded. *)

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
  jr_queue_ns : float; (* host: admission to launch, 0 outside the server *)
  jr_service_ns : float; (* host: the pipeline's wall time *)
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

(* The whole pipeline, on the calling domain: the one path a job takes,
   served or run from the CLI. *)
let execute spec =
  let t0 = Clock.now_ns () in
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
    jr_queue_ns = 0.0; jr_service_ns = Clock.now_ns () -. t0;
    jr_profile_ns = Privateer_profile.Profiler.wall_ns profiler }

(* ---- the job report ---------------------------------------------------- *)

(* One job's report fields, the same for a served job and for
   `privateer run`: configuration, figures and fingerprint, every
   Stats counter, the Figure 8 breakdown, the per-loop table and one
   [host_ms] object with every host-time number.  Each Stats field is
   bound by name, so a new one fails the build until it is placed. *)
let result_fields spec r =
  let { Stats.invocations; checkpoints; private_bytes_read; private_bytes_written;
        separation_checks; separation_checks_elided; misspeculations;
        recovered_iterations; iterations; cyc_useful; cyc_private_read;
        cyc_private_write; cyc_checkpoint; cyc_spawn; cyc_join; cyc_recovery;
        eager_kills; squashed_iterations; avoided_iterations; wall_cycles; workers;
        ns_merge_validate; ns_reset; ns_extract; ns_spawn; loops = _;
        (* Inert: nothing counts into these, so they always read 0. *)
        ns_merge_fill = _; ns_merge_sweep = _; eager_checks = _; eager_hits = _;
        par_resets = _; seq_resets = _;
        par_extracts = _; seq_extracts = _; par_merges = _; seq_merges = _;
        par_spawns = _; seq_spawns = _ } =
    r.jr_stats
  in
  let open Json in
  let ms ns = Float (ns /. 1e6) in
  let loop
      ( id,
        { Stats.l_invocations; l_misspeculations; l_wall_cycles; l_demotions;
          l_suspended_invocations } ) =
    Obj
      [ ("loop", Int id); ("invocations", Int l_invocations);
        ("misspeculations", Int l_misspeculations); ("wall_cycles", Int l_wall_cycles);
        ("demotions", Int l_demotions);
        ("suspended_invocations", Int l_suspended_invocations) ]
  in
  let b = Stats.breakdown r.jr_stats in
  let cfg = spec.js_config in
  [ ("name", String spec.js_name);
    ( "config",
      Obj
        [ ("workers", Int cfg.workers);
          ("schedule", String (Privateer_parallel.Schedule.to_string cfg.schedule));
          ("validation", String (RC.validation_to_string cfg.validation)) ] );
    ("cycles", Int r.jr_cycles); ("fallbacks", Int r.jr_fallbacks);
    ("fingerprint", String r.jr_fingerprint) ]
  @ (match (r.jr_baseline_cycles, r.jr_output_identical) with
    | Some c, Some identical ->
      [ ("baseline_cycles", Int c);
        ("speedup", Float (float_of_int c /. float_of_int (max 1 r.jr_cycles)));
        ("output_identical", Bool identical) ]
    | _ -> [])
  @ [ ( "stats",
        Obj
          [ ("invocations", Int invocations); ("checkpoints", Int checkpoints);
            ("private_bytes_read", Int private_bytes_read);
            ("private_bytes_written", Int private_bytes_written);
            ("separation_checks", Int separation_checks);
            ("separation_checks_elided", Int separation_checks_elided);
            ("misspeculations", Int misspeculations);
            ("recovered_iterations", Int recovered_iterations);
            ("iterations", Int iterations); ("cyc_useful", Int cyc_useful);
            ("cyc_private_read", Int cyc_private_read);
            ("cyc_private_write", Int cyc_private_write);
            ("cyc_checkpoint", Int cyc_checkpoint); ("cyc_spawn", Int cyc_spawn);
            ("cyc_join", Int cyc_join); ("cyc_recovery", Int cyc_recovery);
            ("wall_cycles", Int wall_cycles); ("workers", Int workers) ] );
      ( "breakdown",
        Obj
          [ ("useful", Float b.useful); ("private_read", Float b.private_read);
            ("private_write", Float b.private_write); ("checkpoint", Float b.checkpoint);
            ("spawn_join", Float b.spawn_join); ("other", Float b.other) ] );
      (* Deterministic, but differ across validation modes after an
         eager kill. *)
      ( "eager",
        Obj
          [ ("eager_kills", Int eager_kills);
            ("squashed_iterations", Int squashed_iterations);
            ("avoided_iterations", Int avoided_iterations) ] );
      ("loops", List (List.map loop (Stats.loop_table r.jr_stats)));
      (* Host wall time, outside the determinism contract. *)
      ( "host_ms",
        Obj
          [ ("profile", ms r.jr_profile_ns); ("spawn", ms ns_spawn);
            ("extract", ms ns_extract); ("merge_validate", ms ns_merge_validate);
            ("reset", ms ns_reset); ("queue", ms r.jr_queue_ns);
            ("service", ms r.jr_service_ns) ] ) ]

let result_json spec r = Json.Obj (result_fields spec r)

(* ---- the server -------------------------------------------------------- *)

type t = {
  sv_mutex : Mutex.t;
  sv_changed : Condition.t;
      (* broadcast when the queue or the in-flight count changes:
         awaiters re-check *)
  sv_work : Condition.t;
      (* signalled when a job is queued or a slot frees: one idle
         server domain is enough to launch it, so the server's domains
         wait here and not on [sv_changed] *)
  sv_queue : job Queue.t; (* accepted, not yet launched *)
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
      try Done { (execute job.j_spec) with jr_queue_ns = job.j_start_ns -. job.j_submit_ns }
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

let submit t spec =
  Mutex.lock t.sv_mutex;
  if t.sv_shut then begin
    Mutex.unlock t.sv_mutex;
    invalid_arg "Job_server.submit: server is shut down"
  end;
  let job =
    { j_id = t.sv_next_id; j_spec = spec; j_state = Queued;
      j_submit_ns = Clock.now_ns (); j_start_ns = 0.0 }
  in
  t.sv_next_id <- t.sv_next_id + 1;
  t.sv_jobs <- job :: t.sv_jobs;
  Queue.push job t.sv_queue;
  Condition.broadcast t.sv_changed;
  Condition.signal t.sv_work;
  Mutex.unlock t.sv_mutex;
  job

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

(* A served job's entry: its id and state, then its [result_json]
   fields, or its error text. *)
let job_json t job =
  let s = state t job in
  let head = [ ("id", Json.Int job.j_id); ("state", Json.String (state_name s)) ] in
  Json.Obj
    (head
    @
    match s with
    | Done r -> result_fields job.j_spec r
    | Failed msg -> [ ("name", Json.String job.j_spec.js_name); ("error", Json.String msg) ]
    | Queued | Running -> [ ("name", Json.String job.j_spec.js_name) ])

(* The aggregate report: in-flight bounds, throughput over the
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
