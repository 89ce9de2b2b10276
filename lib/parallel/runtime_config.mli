(** The unified runtime-tuning surface of the speculation engine.

    One validated record holds every knob: simulated worker count,
    checkpoint period (fixed or adaptive), misspeculation throttle,
    iteration schedule, validation mode, job-server admission, cost
    model, and the ablation switches.  {!make} is the validating builder, this module is the
    only reader of the [PRIVATEER_*] environment defaults, and
    {!cli_bindings} is the single table the CLI derives its tuning
    flags from. *)

(** When misspeculation is detected.  [Commit]: only at the checkpoint
    merge (the paper's two-phase validation).  [Eager]: additionally
    in-flight, through {!Privateer_runtime.Conflict_board} — the first
    observed violation squashes the interval immediately and feeds the
    adaptive checkpoint period.  Final outputs, results and violation
    verdicts are byte-identical in both modes (commit mode is the
    differential oracle); the eager-only counters are listed in the
    determinism-contract table of [docs/RUNTIME.md]. *)
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
  validate : bool;  (** [false]: disable all validation (ablation) *)
  validation : validation;
      (** misspeculation-detection mode: {!Commit} (merge-time only,
          the default) or {!Eager} (in-flight conflict board with
          mid-interval squash; the merge stays on as the backstop).
          Default: [PRIVATEER_VALIDATION] or [Commit]. *)
  serial_commit : bool;
      (** model an STMLite-style central serial commit (ablation) *)
  max_inflight : int;
      (** job server: maximum concurrently-running jobs in [\[1, 64\]],
          further clamped to the host core count at serve time (on a
          1-core host jobs run effectively sequentially).  The server
          spawns one domain fewer than the clamped value; a domain
          awaiting a job fills the last slot.  Host-only —
          per-job results are byte-identical at any setting.  Default:
          [PRIVATEER_MAX_INFLIGHT] or 4. *)
  queue_cap : int;
      (** job server: admission-control bound ([>= 0]) on the
          queued-but-not-running backlog; a full queue blocks [submit]
          and rejects [try_submit].  [0] means unbounded.  Default:
          [PRIVATEER_QUEUE_CAP] or 0. *)
  profilers : string list;
      (** Inert, and kept like [host_domains] so record literals
          compile: every training run profiles with all five
          profilers, because classification needs every profiler's
          facts.  {!default} sets [["all"]]. *)
}

val default_validation : validation
(** The [PRIVATEER_VALIDATION] environment default ([Commit] when
    unset or unparseable). *)

val default : t
(** Every field at its documented default (environment-sensitive for
    [validation], [max_inflight] and [queue_cap]). *)

(** [Error msg] names the first field that would fail deep inside an
    invocation (a non-positive worker count, checkpoint period,
    throttle or chunk size, an out-of-range server bound). *)
val check : t -> (unit, string) result

(** {!check}, raising.
    @raise Invalid_argument naming the offending field. *)
val validate : t -> unit

(** Builder: {!default} with the given fields replaced, validated.
    @raise Invalid_argument on an invalid combination. *)
val make :
  ?workers:int ->
  ?schedule:Schedule.t ->
  ?checkpoint_period:int option ->
  ?adaptive_period:bool ->
  ?throttle:int option ->
  ?costs:Cost_model.t ->
  ?inject:(int -> bool) option ->
  ?validate:bool ->
  ?validation:validation ->
  ?serial_commit:bool ->
  ?max_inflight:int ->
  ?queue_cap:int ->
  unit ->
  t

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
