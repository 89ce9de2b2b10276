(** Privateer as a service: a job server running concurrent
    speculative pipelines on domains it owns.

    Each job is a whole pipeline — profile on the train input,
    classify, transform, speculative parallel run on the run input —
    run to completion on one domain: one of the server's own, or a
    client domain that runs the head of the queue while it waits in
    {!await}.  Concurrent jobs are the program's only host
    parallelism.  {!execute} is that pipeline and {!result_json} its
    report, the same for a served job and for [privateer run].

    {b Admission control.} At most [max_inflight] jobs run at once —
    clamped to the host core count, so a 1-core host degrades to
    sequential execution; the queue of accepted jobs is unbounded.

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
  jr_queue_ns : float;
      (** host wall time from admission to launch; 0 outside the
          server *)
  jr_service_ns : float;  (** host wall time of the pipeline *)
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

(** The whole pipeline on the calling domain — profile on the train
    input, classify, transform, speculative parallel run on the run
    input, and the sequential baseline when [js_baseline] — the one
    path every job takes, served or not.
    @raise Privateer_interp.Interp.Runtime_error on a program fault. *)
val execute : job_spec -> job_result

(** One job's report: the name and engine configuration; cycles,
    fallbacks and fingerprint; with a baseline, its cycles,
    the speedup and [output_identical]; every {!Privateer_runtime.Stats}
    counter ([stats]), the Figure 8 [breakdown], the [eager] counters,
    the full per-loop table ([loops]); and one [host_ms] object with
    every host-time number: profile, spawn, extract, the three merge
    passes, reset, queue and service.  A served job's entry in
    {!report} is this object plus its [id] and [state]. *)
val result_json : job_spec -> job_result -> Privateer_support.Json.t

(** A job accepted by {!submit}. *)
type job

type t

(** [create ~config ()] builds a server from [config]'s [max_inflight]
    knob.  The effective in-flight bound is
    [max_inflight] clamped to the host core count ([host_cores]
    overrides the detected count, for tests).  The server spawns one
    domain fewer than that bound: a domain that awaits a job fills the
    last slot.  At an effective bound of 1 no domain is spawned, and
    jobs run sequentially on the domains that await them. *)
val create : ?host_cores:int -> config:RC.t -> unit -> t

val effective_inflight : t -> int
(** The clamped in-flight bound actually enforced. *)

val host_cores : t -> int

(** Enqueue the job.
    @raise Invalid_argument after {!shutdown}. *)
val submit : t -> job_spec -> job

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
    entry per job: its [id] and [state], then its {!result_json}
    fields, or its [name] and [error] text when it failed.
    Meaningful after {!drain}. *)
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
