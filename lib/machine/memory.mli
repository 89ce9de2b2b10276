(** Byte-addressable memory with 4 KiB pages and copy-on-write
    snapshots — the stand-in for the paper's POSIX shm/mmap substrate.

    Each memory keeps one page table and one dirty set.  Bulk interval
    work (checkpoint extraction, the metadata reset) walks one logical
    heap's dirty pages ({!dirty_pages}); the heap is the 3-bit tag in
    address bits 44–46 ([Heap.tag_shift]).  Each page carries the exact
    count of its shadow timestamp bytes, maintained by the
    shadow-metadata layer, and a [written_this_interval] mark
    maintained by the dirty tracking, so scans skip pages with nothing
    to find.  One flag per memory records whether the shadow layer
    made a read-live-in mark in it ({!has_live_in_marks}).

    Unmapped pages read as zero (so shadow metadata starts at code 0,
    live-in, with no initialization).  Each 8-byte-aligned word carries
    a float tag so the dynamically-typed interpreter can round-trip
    floats; partial (byte) stores clear the tag.

    Each memory resolves pages through its own small page cache (a
    software TLB in front of the page tables), so even a read writes
    the memory it reads.  A memory must therefore be used by one domain
    at a time: the domain running its job.

    A memory from {!create} and every snapshot descended from it share
    one list of spare pages: {!release} fills it with a retired
    memory's pages and {!touch_page} takes from it before it
    allocates.  The list never leaves the run that made it. *)

val page_shift : int
(** log2 of the page size (12). *)

val page_size : int
(** Bytes per page (4096). *)

val words_per_page : int
(** 8-byte words per page (512). *)

val int_tag : char
(** The float tag (['\000']) of a word whose last full store was an
    int, or which a byte store has touched since. *)

val float_tag : char
(** The float tag (['\001']) of a word whose last full store was a
    float.  These two bytes, with the word little-endian in a page's
    [bytes], are the page word format: the interpreter's aligned loads
    and stores read and write it on the page, mirroring the aligned
    branch of {!read_word} and {!write_word}. *)

(** A paged memory. *)
type t

(** A mapped page, as a [private] record: any module may read its
    fields, none may build one or assign a field.
    - [bytes] is the live backing store and [ftags] the float tag of
      each 8-byte word ({!int_tag} or {!float_tag}).  A caller holding
      a page from {!touch_page} may write both in place: that is the
      sanctioned bulk write path (the interpreter's aligned 8-byte
      stores, the shadow layer's metadata transitions, one page
      resolution per run).  A page from {!page_for_read} is read-only:
      it may be shared copy-on-write, or be the all-zero page that
      stands for every unmapped one.
    - The exact count changes only through {!clear_timestamp_bytes}
      and {!add_timestamp_bytes}; [shared] and [written_this_interval]
      only inside this module.  [written_this_interval] mirrors
      membership in the dirty set and is cleared by {!clear_dirty}.
    - [timestamp_bytes] is the exact count of shadow timestamp bytes
      (metadata [>= 3]): [Shadow.access] adds to it, the interval
      reset zeroes it through {!clear_timestamp_bytes}, and it
      survives copy-on-write cloning.  A page with none is one the
      reset and checkpoint extraction skip, and both stop a page scan
      once they have found that many; [timestamp_bytes = page_size]
      proves the page fully timestamped, so the reset fills it in one
      memset instead of scanning it. *)
type page = private {
  bytes : Bytes.t;
  ftags : Bytes.t;
  mutable shared : bool;  (** may be referenced by another page table *)
  mutable written_this_interval : bool;
  mutable timestamp_bytes : int;
}

val clear_timestamp_bytes : page -> unit
(** Zeroes [timestamp_bytes]: the caller asserts the page holds no
    timestamps any more. *)

val add_timestamp_bytes : page -> int -> unit
(** Add a (possibly negative) delta to [timestamp_bytes].  Shadow
    layer only. *)

val note_live_in_mark : t -> unit
(** Record that the shadow layer made a read-live-in mark (metadata
    [2]) in this memory.  Shadow layer only. *)

val has_live_in_marks : t -> bool
(** Whether {!note_live_in_mark} was called on this memory, or on the
    memory it was snapshot from before the snapshot.  Marks are never
    erased within a cohort, so a memory without the flag holds none:
    phase 2 probes only the shadow words of memories with it. *)

val create : unit -> t
(** An empty memory (every read sees zero), with a new, empty list of
    spare pages. *)

(** Copy-on-write child sharing every current page with the parent;
    either side's first write to a shared page clones it.  The child
    starts with an empty page cache and an empty dirty set, and keeps
    the parent's per-heap page counts, live-in flag and spare list. *)
val snapshot : t -> t

(** Retire a memory: hand its unshared pages ([shared = false]) to the
    spare list, then empty its page table, dirty set and page cache,
    so it reads as zero everywhere.  Only the memory's own table maps
    an unshared page, so no other memory sees the change; a page
    returned earlier by {!touch_page} or {!page_for_read} on this
    memory must not be used again. *)
val release : t -> unit

val page_of_addr : int -> int
(** The page number containing an address. *)

val offset_of_addr : int -> int
(** The in-page byte offset of an address. *)

(** Base address of a page number. *)
val base_of_page : int -> int

(** The page containing [addr], for reading.  An unmapped address gets
    one shared all-zero page, with a timestamp count of 0,
    so a read of it sees what an unmapped read sees.  Read-only, like
    every page not from {!touch_page}.  Never maps a page or clones
    one; it only refills the memory's page cache on a miss.  Every
    read-side page lookup goes through it (the interpreter's aligned
    8-byte path, [Shadow.access], checkpoint extraction,
    {!equal_range}): one call, no allocation. *)
val page_for_read : t -> int -> page

(** Whether the page containing [addr] is mapped (has been written
    through {!touch_page}, here or in a memory this one was snapshot
    from).  Reads never need it: {!page_for_read} answers an unmapped
    page with zeros. *)
val is_mapped : t -> int -> bool

(** The page containing [addr], for writing: maps a fresh page or
    clones a shared one (copy-on-write) as needed, taking a spare
    page before allocating one, marks the page dirty and caches it.
    A spare page gets what a new page would hold: zeros and int tags
    for a fresh page, the source's bytes, tags and timestamp count for
    a clone.  A page already written this interval and not shared is
    returned without touching the dirty set.  Resolving the page once
    and then writing its [bytes] (and [ftags]) is the sanctioned bulk
    write path. *)
val touch_page : t -> int -> page

(** Read one byte (0 for unmapped memory). *)
val read_byte : t -> int -> int

(** Write one byte (low 8 bits of [v]); clears the containing word's
    float tag. *)
val write_byte : t -> int -> int -> unit

(** Raw 8-byte little-endian read: [(bits, is_float)].  The float tag
    is only meaningful for aligned, same-page access.  The interpreter
    calls it (and {!write_word}) for unaligned addresses only; its
    aligned accesses read and write the page. *)
val read_word : t -> int -> int64 * bool

val write_word : t -> int -> int64 -> bool -> unit
(** Raw 8-byte little-endian write of [(bits, is_float)]; the
    counterpart of {!read_word}. *)

(** {2 Bulk API}

    These are the only sanctioned ways to walk pages; no caller should
    resolve a page per byte. *)

(** Number of mapped pages of one logical heap (O(1): a count kept
    per heap). *)
val mapped_page_count : t -> heap:Privateer_ir.Heap.kind -> int

(** Fill [words] 8-byte words starting at [addr] with [bits], setting
    the float tags to [is_float] — one page resolution per page
    touched.  Falls back to word stores if [addr] is unaligned. *)
val fill_words : t -> int -> words:int -> int64 -> bool -> unit

(** Copy [words] 8-byte words starting at [addr] into [dst]: their
    little-endian bytes at [dst.[bits_pos]] onward and their float tags,
    one byte each ({!float_tag} or {!int_tag}), at [dst.[tags_pos]]
    onward.  The counterpart of {!fill_words}: one page resolution per
    page touched, and unmapped memory reads as zero.  Falls back to
    {!read_word} per word if [addr] is unaligned, so every copied word
    and tag equals what {!read_word} returns. *)
val read_words : t -> int -> words:int -> Bytes.t -> bits_pos:int -> tags_pos:int -> unit

(** The page numbers of one logical heap written since the last
    {!clear_dirty}, in no particular order. *)
val dirty_pages : t -> heap:Privateer_ir.Heap.kind -> int list

val clear_dirty : t -> unit
(** Empty the dirty set (checkpoint interval boundary). *)

val dirty_count : t -> int
(** Size of the dirty set — the checkpoint copy-cost charge. *)

(** All mapped page numbers, across every heap. *)
val mapped_pages : t -> int list

(** Byte-for-byte equality over [\[lo, hi)]; unmapped reads as zero.
    Word-wise and stack-safe (constant stack, 8 bytes per step). *)
val equal_range : t -> t -> int -> int -> bool

(** Equality over the union of both memories' mapped pages. *)
val equal_footprint : t -> t -> bool
