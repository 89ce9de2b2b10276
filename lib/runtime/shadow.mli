(** The shadow-heap metadata state machine (paper Table 2).

    Each private byte has one metadata byte in the shadow heap at
    [Heap.shadow_of_private addr].  Codes: {ul
    {- [0] live-in (initial; shadow pages read as zero);}
    {- [1] old-write (written before the last checkpoint);}
    {- [2] read-live-in (confirmed at the next checkpoint's phase-2
       validation);}
    {- [3 + (i - i0)] timestamp of a write at iteration [i], where
       [i0] starts the current checkpoint interval.}} *)

val live_in : int
(** Code [0]: untouched this invocation. *)

val old_write : int
(** Code [1]: written before the last checkpoint. *)

val read_live_in : int
(** Code [2]: read before any write this invocation — a phase-2
    obligation. *)

val first_timestamp : int
(** Code [3]: the timestamp of the interval's first iteration. *)

(** Maximum iterations per checkpoint interval (253) so timestamps fit
    one byte — the paper's "at least every 253 iterations". *)
val max_interval : int

(** The timestamp byte for iteration [iter] in the interval starting
    at [interval_start]. *)
val timestamp : iter:int -> interval_start:int -> int

val is_timestamp : int -> bool
(** Whether a metadata byte encodes a write timestamp
    ([first_timestamp] or above). *)

(** The two private-access kinds Table 2 distinguishes. *)
type op = Read | Write

type verdict =
  | Keep  (** metadata unchanged *)
  | Update of int  (** new metadata byte *)
  | Fail of (addr:int -> Misspec.reason)  (** privacy violation *)

(** The pure transition function of the paper's Table 2;
    exhaustively unit-tested against an independent transcription. *)
val transition : op -> current:int -> beta:int -> verdict

(** Apply the transition to every metadata byte covering a private
    access on the given worker machine.  An aligned 8-byte access whose
    eight metadata bytes share one state is decided on the metadata
    word (one read, at most one write); any other is range-granular:
    one page resolution per contiguous run, metadata transitioned
    directly on the page bytes.  Both keep the exact per-page
    timestamp and read-live-in counts the checkpoint and reset scans
    read.  Byte-for-byte
    equivalent to the per-byte reference oracle kept in the test
    library (property-tested).
    @raise Misspec.Misspeculation on a violation. *)
val access :
  Privateer_machine.Machine.t -> op -> addr:int -> size:int -> beta:int -> unit

(** Checkpoint-time reset: every timestamp becomes old-write (code 1);
    read-live-in marks are preserved.  Returns the number of mapped
    shadow pages — the unchanged simulated cost charge — while host
    work visits only pages whose exact timestamp count is nonzero.
    A fully-timestamped page (exact count equal to [Memory.page_size])
    takes one in-place fill of [old_write]; a partial page takes the
    word-wise scan-rewrite, which stops once it has rewritten the
    page's exact timestamp count.  Shared copy-on-write pages are cloned
    before either, so a snapshot's parent never sees the reset. *)
val reset_interval : Privateer_machine.Machine.t -> int
