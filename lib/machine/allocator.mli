(** Per-heap allocator: bump pointer plus exact-size free lists.

    Every address carries its heap's tag (paper section 5.1); freed
    ranges are recycled same-size-first, which exercises the
    profiler's interval-map eviction. *)

type t

val create : Privateer_ir.Heap.kind -> t

(** Deep copy; the copy evolves independently.  It costs what [t]
    holds (its live objects and free-list sizes), not the capacity its
    tables have grown to.  [Machine] shares allocators copy-on-write:
    allocator state changes only through [Machine.alloc], [Machine.free]
    and [Machine.commit_allocators], which copy a shared allocator
    before they change it, so nothing mutates a shared allocator.  Call
    [alloc], [free] and [raise_bump] directly only on an allocator no
    machine holds. *)
val copy : t -> t

(** Allocate at least [size] bytes (16-byte aligned and rounded);
    the address lies within the heap's tagged range.
    @raise Invalid_argument on negative size
    @raise Failure when the heap's 16 TB range is exhausted. *)
val alloc : t -> int -> int

(** Free a live allocation, returning its (rounded) size.
    @raise Failure on double free or foreign pointers. *)
val free : t -> int -> int

val live_count : t -> int
val is_live : t -> int -> bool

(** Highest bump offset reached (allocator commit support). *)
val bump : t -> int

(** Raise the bump pointer to at least [b] (never lowers it). *)
val raise_bump : t -> int -> unit
