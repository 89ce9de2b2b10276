(** A small fixed pool of OCaml 5 domains for host-side parallelism.

    The simulated runtime is deterministic and single-threaded; the
    pool's one client is the job server, which runs whole speculative
    pipelines concurrently as futures ({!submit}/{!await}).  Nothing
    below the job server fans out: every engine stage runs on the
    domain that runs its job.

    The pool is safe for concurrent clients: any number of domains may
    call {!submit} at once, and a pool task may itself submit and
    await — an awaiter helps drain the pool before it sleeps, so the
    waits-for graph stays acyclic.

    A pool of size 1 degrades to plain sequential execution in the
    calling domain, with no domains spawned and no synchronization. *)

type t

(** The scheduler: one deque per domain, owners pop LIFO, idle domains
    steal FIFO from the others.  The single constructor remains so
    existing callers of {!shared} that name it keep compiling. *)
type kind = Work_stealing

(** [create ~domains ()] makes a pool of total parallelism
    [domains]: the awaiting domain helps run tasks, so [domains - 1]
    worker domains are spawned.  [domains <= 1] spawns nothing.
    @raise Invalid_argument if [domains < 1] or [domains > 64]. *)
val create : domains:int -> unit -> t

(** Parallelism of the pool as requested by its creator (or the last
    {!shared} caller). *)
val size : t -> int

(** A one-shot handle to a task submitted with {!submit}. *)
type 'a future

(** [submit t f] schedules [f] to run on the pool and returns a future
    for its result, without blocking.  On a pool of size 1 (or after
    [shutdown]) [f] runs inline on the calling domain and the returned
    future is already settled.  [f]'s exception, if any, is captured
    and re-raised by {!await}. *)
val submit : t -> (unit -> 'a) -> 'a future

(** [await fu] blocks until [fu] settles, returning the task's result
    or re-raising its exception.  While the future is pending the
    awaiting domain {e helps}: it drains other pool tasks instead of
    idling, so awaiting from inside a pool task cannot deadlock the
    pool. *)
val await : 'a future -> 'a

(** [poll fu] is [Some (Ok v)] / [Some (Error e)] once the future has
    settled, [None] while it is pending.  Never blocks and never
    re-raises. *)
val poll : 'a future -> ('a, exn) result option

(** Stop and join the worker domains.  Idempotent.  Subsequent
    {!submit}s run inline. *)
val shutdown : t -> unit

(** [shared ?kind ~domains ()] returns a process-wide pool of at least
    [domains] total parallelism, creating or replacing it on demand (a
    previous smaller pool is shut down) — OCaml caps live domains at a
    small fixed number, so per-client pools would exhaust it.  The
    returned pool {e reports} the requested [domains] through {!size}
    even when the underlying pool has more spawned domains. *)
val shared : ?kind:kind -> domains:int -> unit -> t
