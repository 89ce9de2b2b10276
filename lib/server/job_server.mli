(** Privateer as a service: a job server running concurrent
    speculative pipelines on domains it owns.

    Each job is a whole pipeline — profile on the train input,
    classify, transform, speculative parallel run on the run input —
    run to completion on one domain: one of the server's own, or a
    client domain that runs the head of the queue while it waits in
    {!await} or in a {!submit} blocked on a full queue.  Concurrent
    jobs are the program's only host parallelism.

    {b Admission control.} At most [max_inflight] jobs run at once —
    clamped to the host core count, so a 1-core host degrades to
    sequential execution — and at most [queue_cap] accepted jobs may
    wait ([0]: unbounded); a full queue blocks {!submit} and rejects
    {!try_submit}.

    {b Determinism contract.} A job's simulated cycles, output, result
    and every non-host stats counter (all but the [ns_*] wall-time
    accumulators) depend only on the job itself: N jobs at any
    [max_inflight] are byte-identical to the same jobs run
    serially.  {!job_result}.[jr_fingerprint] digests exactly that
    surface. *)

module RC = Privateer_parallel.Runtime_config

(** One parallelization job: a parsed program, its inputs and its
    engine configuration.  Programs are parsed per spec — concurrent
    jobs never share an AST. *)
type job_spec = {
  js_name : string;
  js_program : Privateer_ir.Ast.program;
  js_train : Privateer.Pipeline.setup;  (** profiling input *)
  js_run : Privateer.Pipeline.setup;  (** evaluation input *)
  js_config : RC.t;
  js_baseline : bool;
      (** also run the original program sequentially, recording
          [baseline_cycles] / [output_identical] in the report *)
}

(** Spec builder with the usual defaults ([no_setup] inputs,
    [RC.default], no baseline). *)
val job_spec :
  ?train:Privateer.Pipeline.setup ->
  ?run:Privateer.Pipeline.setup ->
  ?config:RC.t ->
  ?baseline:bool ->
  name:string ->
  Privateer_ir.Ast.program ->
  job_spec

type job_result = {
  jr_name : string;
  jr_cycles : int;  (** simulated parallel cycles (deterministic) *)
  jr_output : string;
  jr_result : string;  (** entry return value, printed *)
  jr_fallbacks : int;
  jr_stats : Privateer_runtime.Stats.t;
  jr_fingerprint : string;
      (** digest of the deterministic surface: cycles, output, result,
          non-host stats counters, per-loop table *)
  jr_baseline_cycles : int option;
  jr_output_identical : bool option;
  jr_queue_ns : float;  (** host wall time from admission to launch *)
  jr_service_ns : float;  (** host wall time from launch to settle *)
  jr_profile_ns : float;
      (** host wall time the training run spent profiling
          ([Profiler.wall_ns]); instrumentation like [jr_queue_ns],
          excluded from the fingerprint *)
}

(** Job lifecycle: [Queued] (admitted, waiting for an in-flight slot)
    → [Running] → [Done] or [Failed] (the pipeline raised; the server
    survives and the exception text is recorded). *)
type state = Queued | Running | Done of job_result | Failed of string

val state_name : state -> string
(** ["queued"] / ["running"] / ["done"] / ["failed"]. *)

(** A job accepted by {!submit} / {!try_submit}. *)
type job

type t

(** [create ~config ()] builds a server from [config]'s [max_inflight]
    and [queue_cap] knobs.  The effective in-flight bound is
    [max_inflight] clamped to the host core count ([host_cores]
    overrides the detected count, for tests).  The server spawns one
    domain fewer than that bound: a domain that awaits a job fills the
    last slot.  At an effective bound of 1 no domain is spawned, and
    jobs run sequentially on the domains that await them. *)
val create : ?host_cores:int -> config:RC.t -> unit -> t

val effective_inflight : t -> int
(** The clamped in-flight bound actually enforced. *)

val host_cores : t -> int

(** Blocking admission: enqueue the job.  While the queue is at
    [queue_cap] (backpressure), the calling domain runs the head of the
    queue itself if an in-flight slot is free, and waits otherwise.
    @raise Invalid_argument after {!shutdown}. *)
val submit : t -> job_spec -> job

(** Non-blocking admission: [None] when the queue is at cap. *)
val try_submit : t -> job_spec -> job option

val state : t -> job -> state
(** Lifecycle snapshot. *)

(** Block until the job settles.  While waiting, the calling domain
    runs the head of the queue whenever an in-flight slot is free,
    contributing a core instead of idling. *)
val await : t -> job -> (job_result, string) result

val drain : t -> unit
(** {!await} every accepted job. *)

val jobs : t -> job list
(** Every accepted job, in submission order. *)

val shutdown : t -> unit
(** {!drain}, refuse new submissions, and join the server's domains.
    Idempotent.  Settled jobs remain readable ({!state}, {!report}). *)

(** The aggregate report: job counts by outcome, the requested and
    effective in-flight bounds, wall-clock throughput (jobs/s),
    queue/service latency percentiles (p50/p95/mean/max, ms), and one
    entry per job (cycles, fingerprint, per-loop table; error text for
    failed jobs).  Meaningful after {!drain}. *)
val report : t -> Privateer_support.Json.t

(** One-shot convenience: create, submit everything, drain, shut down;
    the returned server holds the settled jobs for {!report} and
    {!jobs}/{!state} inspection. *)
val run_jobs : ?host_cores:int -> config:RC.t -> job_spec list -> t

(**/**)

(** Exposed for tests and the bench determinism check. *)

val fingerprint_of_run :
  output:string ->
  result:string ->
  cycles:int ->
  fallbacks:int ->
  Privateer_runtime.Stats.t ->
  string

val effective_inflight_for : host_cores:int -> max_inflight:int -> int
