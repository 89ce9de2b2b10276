(** The Privateer pipeline — the library's public, end-to-end API.

    {[
      let program = Pipeline.parse source in
      let tr, _profiler = Pipeline.compile ~setup program in
      let seq = Pipeline.run_sequential ~setup program in
      let par = Pipeline.run_parallel ~setup ~config tr in
      assert (String.equal seq.seq_output par.par_output)
    ]}

    [setup] callbacks poke input parameters into scalar globals after
    the interpreter lays the program out and before the entry function
    runs — the workload's "command line".  The paper's methodology
    profiles on a training input and evaluates on a different one;
    pass different [setup]s to [compile] and the run functions. *)

type setup = Privateer_interp.Interp.t -> unit

val no_setup : setup

(** Set a scalar global before the run.
    @raise Invalid_argument on unknown globals. *)
val set_global : Privateer_interp.Interp.t -> string -> int -> unit

(** Parse Cmini source into the IR.
    @raise Failure with positions on lexical/syntax errors. *)
val parse : ?entry:string -> string -> Privateer_ir.Ast.program

(** Instrumented training run with all five profilers.  [config] is
    unused; it stays so existing callers keep compiling.  The
    profiling wall time is stamped on the returned profiler
    ([Profiler.wall_ns]) — reporting only, exempt from the determinism
    contract. *)
val profile :
  ?setup:setup ->
  ?config:Privateer_parallel.Runtime_config.t ->
  Privateer_ir.Ast.program ->
  Privateer_profile.Profiler.t * Privateer_interp.Interp.t

(** Profile, classify, select and transform: the whole compiler.
    [config] is unused, as in {!profile}. *)
val compile :
  ?setup:setup ->
  ?config:Privateer_parallel.Runtime_config.t ->
  Privateer_ir.Ast.program ->
  Privateer_transform.Transform.result * Privateer_profile.Profiler.t

type seq_run = {
  seq_cycles : int;  (** simulated cycles of the whole program *)
  seq_output : string;  (** everything [print] emitted *)
  seq_result : Privateer_interp.Value.t;  (** the entry's return value *)
}

(** Plain sequential execution (of an original or transformed
    program). *)
val run_sequential :
  ?setup:setup -> ?cost:Privateer_interp.Cost.t -> Privateer_ir.Ast.program -> seq_run

type par_run = {
  par_cycles : int;
      (** whole-program simulated cycles: sequential sections plus each
          parallel invocation's wall-clock *)
  par_output : string;
  par_result : Privateer_interp.Value.t;
  stats : Privateer_runtime.Stats.t;
      (** checkpoints, misspeculations, private bytes, overhead
          breakdown *)
  fallbacks : int;
      (** invocations run sequentially after a failed preheader
          prediction *)
}

(** Speculative parallel execution of a transformed program under the
    DOALL executor.

    [config] is a {!Privateer_parallel.Runtime_config.t}: a record
    update of [Runtime_config.default], or the CLI's flags folded over
    it by [Runtime_config.apply_bindings].  The run is single-domain; host
    parallelism comes from running several pipelines at once in the
    job server, which moves no simulated figure. *)
val run_parallel :
  ?setup:setup ->
  ?config:Privateer_parallel.Runtime_config.t ->
  Privateer_transform.Transform.result ->
  par_run

(** Per-loop engine health of a parallel run, sorted by loop id:
    invocations, misspeculations, wall cycles, throttle demotions and
    suspensions. *)
val loop_report :
  par_run -> (int * Privateer_runtime.Stats.loop_stats) list
