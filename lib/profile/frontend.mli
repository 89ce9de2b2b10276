(** The shared profiling frontend (PROMPT's shape): one fast event
    producer fed by the interpreter hooks, fanned out to independent
    per-profiler consumers.

    The frontend owns the work every profiler shares — object naming
    (live-range interval map behind a last-object cache and a
    direct-mapped page cache) and one shared {!Loop_ctx} loop-context
    stack — and calls per-kind consumer handlers directly from the
    hooks; no event is ever materialized. *)

(** Extended by each profiler module with its own state constructor,
    so callers can recover typed state from {!consumer_state}. *)
type state = ..

(** Per-kind handlers; operand order follows the {!Event} layout.
    [c_load site addr size id value], [c_store site addr size id],
    [c_alloc site addr size id], [c_free addr size id],
    [c_enter loop cycles], [c_iter loop iteration],
    [c_exit loop trips cycles], [c_branch id taken]. *)
type consumer = {
  c_state : state;
  c_load : int -> int -> int -> int -> Privateer_interp.Value.t -> unit;
  c_store : int -> int -> int -> int -> unit;
  c_alloc : int -> int -> int -> int -> unit;
  c_free : int -> int -> int -> unit;
  c_enter : int -> int -> unit;
  c_iter : int -> int -> unit;
  c_exit : int -> int -> int -> unit;
  c_branch : int -> int -> unit;
}

(** All-no-op handler table around a state; consumers override the
    kinds they declare in [d_kinds]. *)
val null_consumer : state -> consumer

type descriptor = {
  d_name : string;  (** unique profiler name (the [--profilers] token) *)
  d_doc : string;
  d_needs_objects : bool;
      (** resolve an object name per load/store for this consumer? *)
  d_needs_ctx : bool;
      (** maintain a (loop, invocation, iteration) stack for it? *)
  d_kinds : int;
      (** {!Event.mask_of} of the kinds it handles; the frontend never
          generates kinds no enabled consumer wants *)
  d_create : ctx:Loop_ctx.t -> consumer;
      (** [ctx] is the frontend's shared context stack, for consumers
          that read it *)
}

(** Register a profiler.  Called by each profiler module at init.
    @raise Invalid_argument on a duplicate name. *)
val register : descriptor -> unit

(** Registered profiler names, in registration order. *)
val registered : unit -> string list

val find : string -> descriptor option

type t

(** [create ~profilers ()] instantiates the named profilers (["all"]
    anywhere in the list enables every registered one; duplicates are
    dropped).  @raise Invalid_argument on an unknown name. *)
val create : ?profilers:string list -> unit -> t

(** Instantiated profiler names. *)
val enabled : t -> string list

(** Cycle source for Enter/Exit event stamps (the interpreter's cycle
    counter). *)
val set_get_cycles : t -> (unit -> int) -> unit

(** Mask ({!Event.bit}) of the event kinds whose hooks do any work for
    the enabled consumer set.  Callers may install no-op interpreter
    hooks for every other kind, so a restricted profiler set pays
    nothing at all for the kinds it ignores.  Allocation and free are
    always included (they maintain the frontend's object naming), and
    the loop kinds whenever some consumer needs the context stack. *)
val hook_mask : t -> int

(** {1 Hook bodies} *)

val on_load : t -> int -> addr:int -> size:int -> value:Privateer_interp.Value.t -> unit
val on_store : t -> int -> addr:int -> size:int -> unit
val on_alloc : t -> int -> ctx:int list -> addr:int -> size:int -> unit
val on_free : t -> addr:int -> size:int -> unit
val on_loop_enter : t -> int -> unit
val on_loop_iter : t -> int -> iter:int -> unit
val on_loop_exit : t -> int -> trips:int -> unit
val on_branch : t -> int -> taken:bool -> unit

(** Register a program global as a named live object (no event:
    globals are allocated before hooks can observe them). *)
val register_global : t -> string -> addr:int -> bytes:int -> unit

(** {1 Queries} *)

(** [consumer_state t name] is the named consumer's state ([None] if
    that profiler is not enabled). *)
val consumer_state : t -> string -> state option

(** Interned object name for an event's name id (id 0 = [Unknown]). *)
val name_of : t -> int -> Objname.t

val id_of_name : t -> Objname.t -> int option
val all_objects : t -> Objname.Set.t
val object_size : t -> Objname.t -> int option
val object_at_addr : t -> int -> (Objname.t * int) option
