(** Byte-addressable memory with 4 KiB pages, copy-on-write snapshots,
    and per-heap page indexes — the stand-in for the paper's POSIX
    shm/mmap substrate.

    Pages are bucketed by the 3-bit heap tag in address bits 44–46
    ([Heap.tag_shift]), so bulk operations (checkpoint extraction,
    metadata resets) visit exactly one logical heap's pages instead of
    filtering the whole page table.  Each page additionally carries
    summary flags maintained by the shadow-metadata layer
    ([any_timestamp], [any_live_in_read]) plus a [written_this_interval]
    mark maintained by the dirty tracking, letting scans skip pages
    with nothing to find.

    Unmapped pages read as zero (so shadow metadata starts at code 0,
    live-in, with no initialization).  Each 8-byte-aligned word carries
    a float tag so the dynamically-typed interpreter can round-trip
    floats; partial (byte) stores clear the tag. *)

val page_shift : int
(** log2 of the page size (12). *)

val page_size : int
(** Bytes per page (4096). *)

val words_per_page : int
(** 8-byte words per page (512). *)

(** A paged memory. *)
type t

(** A mapped page.  [page_bytes] is the live backing store: callers
    holding a page obtained from {!touch_page} may mutate it directly
    (this is what makes range-granular metadata transitions one page
    resolution per run, not per byte).  Pages from {!find_page} must be
    treated as read-only — they may be shared copy-on-write. *)
type page

val page_bytes : page -> Bytes.t
(** The page's backing store (see {!type-page} for the mutation
    rules). *)

(** Summary flags.  The [any_timestamp] / [any_live_in_read] flags are
    set by the shadow layer when it writes the corresponding metadata
    codes and let [fold_pages] consumers skip pages wholesale; they
    over-approximate page content (a set flag means "may contain"),
    and [clear_timestamp_flag] re-arms the approximation after a
    metadata reset.  [written_this_interval] mirrors membership in the
    dirty set and is cleared by {!clear_dirty}. *)

val any_timestamp : page -> bool
val any_live_in_read : page -> bool
val written_this_interval : page -> bool

val flag_timestamp : page -> unit
val flag_live_in_read : page -> unit

val clear_timestamp_flag : page -> unit
(** Clears the timestamp flag {i and} zeroes {!timestamp_bytes}: the
    caller asserts the page holds no timestamps, so the exact count
    falls with the hint. *)

val timestamp_bytes : page -> int
(** Exact count of shadow timestamp bytes (metadata [>= 3]) on this
    page.  Unlike the [any_*] flags this is a count, not a hint: it is
    maintained solely by the shadow layer ([Shadow.access] adds,
    interval reset zeroes via {!clear_timestamp_flag}) and survives
    copy-on-write cloning.  [timestamp_bytes p = page_size] proves the
    page is fully timestamped, so the interval reset fills it in one
    memset instead of scanning it. *)

val add_timestamp_bytes : page -> int -> unit
(** Add a (possibly negative) delta to {!timestamp_bytes}.  Shadow
    layer only. *)

val live_in_bytes : page -> int
(** Exact count of read-live-in marks (metadata [= 2]) on this page —
    the read-side mirror of {!timestamp_bytes}.  Maintained solely by
    the shadow layer ([Shadow.access] adds on the live-in → read-live-in
    transition) and inherited across copy-on-write cloning.  Live-in
    marks accumulate across the whole cohort (the interval reset
    preserves them), so this count is never bulk-zeroed.  Together with
    {!timestamp_bytes} it bounds the marked bytes on a page, letting
    checkpoint extraction stop a page scan once every mark has been
    found. *)

val add_live_in_bytes : page -> int -> unit
(** Add a (possibly negative) delta to {!live_in_bytes}.  Shadow layer
    only. *)

val create : unit -> t
(** An empty memory (every read sees zero). *)

(** Copy-on-write child sharing every current page with the parent;
    either side's first write to a shared page clones it. *)
val snapshot : t -> t

val page_of_addr : int -> int
(** The page number containing an address. *)

val offset_of_addr : int -> int
(** The in-page byte offset of an address. *)

(** Base address of a page number. *)
val base_of_page : int -> int

(** The page containing [addr], for reading; [None] means all-zero.
    Never allocates or clones. *)
val find_page : t -> int -> page option

(** The page containing [addr], for writing: allocates or clones
    (copy-on-write) as needed and marks the page dirty.  Resolving the
    page once and then mutating [page_bytes] is the sanctioned bulk
    write path. *)
val touch_page : t -> int -> page

(** Read one byte (0 for unmapped memory). *)
val read_byte : t -> int -> int

(** Write one byte (low 8 bits of [v]); clears the containing word's
    float tag. *)
val write_byte : t -> int -> int -> unit

(** Raw 8-byte little-endian read: [(bits, is_float)].  The float tag
    is only meaningful for aligned, same-page access. *)
val read_word : t -> int -> int64 * bool

val write_word : t -> int -> int64 -> bool -> unit
(** Raw 8-byte little-endian write of [(bits, is_float)]; the
    counterpart of {!read_word}. *)

(** {2 Bulk API}

    These are the only sanctioned ways to walk pages; no caller should
    resolve a page per byte. *)

(** Fold over the mapped pages of one logical heap (its bank of the
    page index).  Do not map or unmap pages of the same heap from
    inside [f]; collect keys first if mutation is needed. *)
val fold_pages :
  t -> heap:Privateer_ir.Heap.kind -> init:'a -> f:(key:int -> page -> 'a -> 'a) -> 'a

(** Number of mapped pages in one heap's bank (O(1)). *)
val mapped_page_count : t -> heap:Privateer_ir.Heap.kind -> int

(** Call [f] once per page-sized chunk of [\[lo, hi)]: [f ~base ~lo ~hi
    page] where [base] is the chunk's page base address and [lo]/[hi]
    are in-page offsets.  The page is resolved once per chunk. *)
val iter_range :
  t -> lo:int -> hi:int -> f:(base:int -> lo:int -> hi:int -> page option -> unit) -> unit

(** Fill [words] 8-byte words starting at [addr] with [bits], setting
    the float tags to [is_float] — one page resolution per page
    touched.  Falls back to word stores if [addr] is unaligned. *)
val fill_words : t -> int -> words:int -> int64 -> bool -> unit

(** Word-level bulk copy of [len] bytes between memories, preserving
    float tags when [src_addr], [dst_addr] and [len] are all 8-byte
    aligned (byte-wise fallback otherwise).  Unmapped source ranges
    copy as zeros. *)
val blit : src:t -> src_addr:int -> dst:t -> dst_addr:int -> len:int -> unit

(** Pages written since the last [clear_dirty] (page numbers), across
    all heaps or restricted to one heap's bank. *)
val dirty_pages : ?heap:Privateer_ir.Heap.kind -> t -> int list

val clear_dirty : t -> unit
(** Empty the dirty set (checkpoint interval boundary). *)

val dirty_count : t -> int
(** Size of the dirty set — the checkpoint copy-cost charge. *)

(** Deep-copy [src]'s page [key] into [dst] (checkpoint restore). *)
val copy_page_into : dst:t -> src:t -> int -> unit

(** All mapped page numbers, across every heap bank. *)
val mapped_pages : t -> int list

(** Byte-for-byte equality over [\[lo, hi)]; unmapped reads as zero.
    Word-wise and stack-safe (constant stack, 8 bytes per step). *)
val equal_range : t -> t -> int -> int -> bool

(** Equality over the union of both memories' mapped pages. *)
val equal_footprint : t -> t -> bool
