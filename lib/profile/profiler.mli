(** The Privateer profilers (paper section 4.1): pointer-to-object,
    object lifetime, cross-iteration memory flow dependence,
    value-prediction, branch-bias, and per-loop execution time.

    This is a typed query facade over the shared event frontend
    ({!Frontend}) and its independently registered per-profiler
    consumers.  The original monolithic profiler survives in the test
    library as the differential-testing oracle for these queries. *)

type const_status = Profile_types.const_status =
  | Const of Privateer_interp.Value.t
  | Varying

(** Per cross-iteration flow dependence: occurrence count, whether the
    flowing value was one constant, and whether it flowed through a
    single address — constant single-address dependences are
    value-prediction candidates. *)
type dep_info = Profile_types.dep_info = {
  mutable dep_count : int;
  mutable dep_value : const_status;
  mutable dep_addr : [ `Addr of int | `Many ];
}

type t

(** [create ~profilers ()] builds a profiler running only the named
    profilers (see {!available}); ["all"] (the default) enables every
    registered one.
    @raise Invalid_argument on an unknown profiler name. *)
val create : ?profilers:string list -> unit -> t

(** Registered profiler names, in registration order
    (["ptr"; "lifetime"; "flow"; "value"; "exec"]). *)
val available : unit -> string list

(** The profiler names this instance runs. *)
val enabled : t -> string list

(** Register the program's globals and install the profiling hooks on
    an interpreter (call before [Interp.run_entry]). *)
val attach : t -> Privateer_interp.Interp.t -> unit

(** Convenience: create an interpreter, attach, run the program. *)
val profile_run :
  ?profilers:string list -> Privateer_ir.Ast.program -> t * Privateer_interp.Interp.t

(** Wall-clock nanoseconds the training run spent profiling, stamped
    by [Pipeline.profile]; 0 until set.  Reporting only — exempt from
    the determinism contract. *)
val wall_ns : t -> float

val set_wall_ns : t -> float -> unit

(** {1 Post-run queries}

    Queries owned by a profiler that was not enabled return the
    empty answer ([Objname.Set.empty], [false], [[]], [None],
    [(0, 0)]). *)

(** Objects a load/store site was observed to touch
    (the paper's [mapPointerToObjects]). *)
val objects_at_site : t -> int -> Objname.Set.t

(** Object names created by an allocation site (one per dynamic
    context). *)
val alloc_names : t -> int -> Objname.Set.t

(** Was every instance of this object allocated and freed within a
    single iteration of [loop]? *)
val is_short_lived : t -> Objname.t -> loop:int -> bool

(** Cross-iteration (loop-carried) flow dependences of [loop]:
    [(writer site, reader site, info)], sorted by (writer, reader). *)
val flow_deps : t -> loop:int -> (int * int * dep_info) list

(** The constant every observation of this load produced, if any. *)
val const_load_value : t -> int -> Privateer_interp.Value.t option

(** [Some true]: branch always taken; [Some false]: never taken;
    [None]: mixed or never executed. *)
val branch_bias : t -> int -> bool option

(** Raw (taken, not-taken) counts. *)
val branch_counts : t -> int -> int * int

type loop_summary = Profile_types.loop_summary = {
  loop_invocations : int;
  loop_trips : int;
  loop_cycles : int;
}

val loop_summary : t -> int -> loop_summary option

(** Every object name observed during the run. *)
val all_objects : t -> Objname.Set.t

(** Largest observed size of the named object. *)
val object_size : t -> Objname.t -> int option

(** The live object containing [addr] (post-run: globals and leaks),
    with its base address. *)
val object_at_addr : t -> int -> (Objname.t * int) option

(** Loops by total profiled cycles, heaviest first; ties break on the
    loop id (the execution-time profiler's hot-loop ranking). *)
val loops_by_weight : t -> (int * int) list
