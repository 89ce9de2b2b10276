(** The unified runtime-tuning surface of the speculation engine.

    One validated record holds every knob: simulated worker count,
    checkpoint period (fixed or adaptive), misspeculation throttle,
    iteration schedule, validation mode, the job server's in-flight
    bound, cost model, and the ablation switches.  {!default} is a
    constant (no knob reads the environment), {!check} validates a
    record, and {!cli_bindings} is the single table the CLI and the
    jobs manifest derive their tuning knobs from. *)

(** What a misspeculation stops.  [Commit]: every worker runs its
    slice of the interval and the checkpoint merge discards it (the
    paper's behavior).  [Eager]: the first misspeculation a worker
    raises itself (Table 2, separation, a value prediction, control,
    injection or a fault) squashes the interval at once and feeds the
    adaptive checkpoint period; the workers after it in sweep order
    never run the interval.  Cross-worker conflicts are found by the
    merge's phase 2 alone, in both modes, so a run with no eager kill
    is byte-identical across modes.  Final outputs and results are
    byte-identical in both modes (commit mode is the differential
    oracle); the eager-only counters are listed in the
    determinism-contract table of [docs/RUNTIME.md].  Misspeculation
    counts agree too unless one interval misspeculates on two workers:
    eager recovers from the first in worker order, commit from the
    earliest iteration. *)
type validation = Commit | Eager

val validation_of_string : string -> validation option
(** ["commit"] / ["eager"] (case-insensitive); [None] otherwise. *)

val validation_to_string : validation -> string

type t = {
  workers : int;  (** simulated worker processes (> 0) *)
  host_domains : int;
      (** Inert, like the next three fields: engine stages no longer
          fan out over host domains (host parallelism lives only in the
          job server, sized by [max_inflight]), so nothing reads them.
          They remain so record literals naming every field keep
          compiling; {!default} sets [1]. *)
  merge_shards : int;  (** Inert; {!default} sets [1]. *)
  pool_kind : Privateer_support.Domain_pool.kind;  (** Inert. *)
  host_controller : Host_controller.mode;  (** Inert. *)
  schedule : Schedule.t;  (** iteration-assignment policy *)
  checkpoint_period : int option;
      (** [None]: auto (aim ~6 checkpoints per invocation) *)
  adaptive_period : bool;
      (** shrink the period after a misspeculated interval, grow it
          back after clean ones *)
  throttle : int option;
      (** [Some n]: demote a loop to sequential execution after [n]
          misspeculations in one invocation *)
  pool_cap : int;
      (** Inert, and kept like [host_domains] so record literals
          compile: the shadow-page pool it sized is gone, because the
          interval reset fills fully-timestamped pages in place.
          {!default} sets [Page_pool.unbounded]. *)
  costs : Cost_model.t;
  inject : (int -> bool) option;
      (** injected misspeculation, by iteration *)
  validate : bool;
      (** [false]: disable validation (ablation); workers still stamp
          their private writes, so checkpoints commit them *)
  validation : validation;
      (** what a misspeculation stops: {!Commit} (nothing before the
          merge, the default) or {!Eager} (the interval's sweep, at a
          worker's own first misspeculation).  {!default} sets
          [Commit]. *)
  serial_commit : bool;
      (** model an STMLite-style central serial commit (ablation) *)
  max_inflight : int;
      (** job server: maximum concurrently-running jobs in [\[1, 64\]],
          further clamped to the host core count at serve time (on a
          1-core host jobs run effectively sequentially).  The server
          spawns one domain fewer than the clamped value; a domain
          awaiting a job fills the last slot.  Host-only —
          per-job results are byte-identical at any setting.
          {!default} sets 4. *)
  queue_cap : int;
      (** Inert, and kept like [pool_cap] so record literals compile:
          the job server's queue is unbounded.  {!default} sets [0]. *)
  profilers : string list;
      (** Inert, and kept like [host_domains] so record literals
          compile: every training run profiles with all five
          profilers, because classification needs every profiler's
          facts.  {!default} sets [["all"]]. *)
}

val default : t
(** Every field at its documented default: 4 workers, cyclic schedule,
    auto checkpoint period, [Commit] validation and [max_inflight] 4. *)

(** [Error msg] names the first field that would fail deep inside an
    invocation (a non-positive worker count, checkpoint period,
    throttle or chunk size, an out-of-range server bound). *)
val check : t -> (unit, string) result

(** {!check}, raising.
    @raise Invalid_argument naming the offending field. *)
val validate : t -> unit

(** {2 CLI flag bindings}

    One entry per string-expressible tunable.  A CLI derives one
    optional string argument per entry ([b_flag_like] entries accept
    the bare flag as "true") and folds the passed values over a base
    config with {!apply_bindings}; adding a knob to the table is the
    whole CLI change. *)

type binding = {
  b_flags : string list;  (** Cmdliner-style names, e.g. ["max-inflight"] *)
  b_docv : string;
  b_doc : string;
  b_flag_like : bool;
  b_apply : t -> string -> (t, string) result;
}

val cli_bindings : binding list

(** Fold (binding, passed value) pairs over [base]; [None] values
    leave their field untouched; the first parse error wins, and a
    folded config that fails {!check} is an [Error] with its
    message. *)
val apply_bindings :
  t -> (binding * string option) list -> (t, string) result
