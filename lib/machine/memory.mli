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
    floats; partial (byte) stores clear the tag.

    Each memory resolves pages through its own small page cache (a
    software TLB in front of the page tables), so even a read writes
    the memory it reads.  A memory must therefore be used by one domain
    at a time: the domain running its job. *)

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
    - The summary flags and exact counts change only through
      {!flag_timestamp}, {!flag_live_in_read}, {!clear_timestamp_flag},
      {!add_timestamp_bytes} and {!add_live_in_bytes}; [shared] and
      [written_this_interval] only inside this module.
    - [any_timestamp] and [any_live_in_read] are set by the shadow
      layer when it writes the matching metadata codes, and let
      {!fold_pages} consumers skip pages wholesale.  They
      over-approximate content (set means "may contain").
      [written_this_interval] mirrors membership in the dirty set and
      is cleared by {!clear_dirty}.
    - [timestamp_bytes] is the exact count of shadow timestamp bytes
      (metadata [>= 3]).  Unlike the flags it is a count, not a hint:
      [Shadow.access] adds to it, the interval reset zeroes it through
      {!clear_timestamp_flag}, and it survives copy-on-write cloning.
      [timestamp_bytes = page_size] proves the page fully timestamped,
      so the reset fills it in one memset instead of scanning it.
    - [live_in_bytes] is the exact count of read-live-in marks
      (metadata [= 2]), the read-side mirror.  Live-in marks
      accumulate across a cohort (the interval reset keeps them), so it
      is never bulk-zeroed.  With [timestamp_bytes] it bounds the
      marked bytes on a page, so checkpoint extraction stops a page
      scan once every mark has been found. *)
type page = private {
  bytes : Bytes.t;
  ftags : Bytes.t;
  mutable shared : bool;  (** may be referenced by another page table *)
  mutable any_timestamp : bool;
  mutable any_live_in_read : bool;
  mutable written_this_interval : bool;
  mutable timestamp_bytes : int;
  mutable live_in_bytes : int;
}

val flag_timestamp : page -> unit
val flag_live_in_read : page -> unit

val clear_timestamp_flag : page -> unit
(** Clears the timestamp flag {i and} zeroes [timestamp_bytes]: the
    caller asserts the page holds no timestamps, so the exact count
    falls with the hint. *)

val add_timestamp_bytes : page -> int -> unit
(** Add a (possibly negative) delta to [timestamp_bytes].  Shadow
    layer only. *)

val add_live_in_bytes : page -> int -> unit
(** Add a (possibly negative) delta to [live_in_bytes].  Shadow layer
    only. *)

val create : unit -> t
(** An empty memory (every read sees zero). *)

(** Copy-on-write child sharing every current page with the parent;
    either side's first write to a shared page clones it.  The child
    starts with an empty page cache. *)
val snapshot : t -> t

val page_of_addr : int -> int
(** The page number containing an address. *)

val offset_of_addr : int -> int
(** The in-page byte offset of an address. *)

(** Base address of a page number. *)
val base_of_page : int -> int

(** The page containing [addr], for reading.  An unmapped address gets
    one shared all-zero page, with every flag clear and both counts 0,
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

(** The page containing [addr], for writing: allocates or clones
    (copy-on-write) as needed, marks the page dirty and caches it.  A
    page already written this interval and not shared is returned
    without touching the dirty set.  Resolving the page once and then
    writing its [bytes] (and [ftags]) is the sanctioned bulk write
    path. *)
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

(** Fold over the mapped pages of one logical heap (its bank of the
    page index).  Do not map or unmap pages of the same heap from
    inside [f]; collect keys first if mutation is needed. *)
val fold_pages :
  t -> heap:Privateer_ir.Heap.kind -> init:'a -> f:(key:int -> page -> 'a -> 'a) -> 'a

(** Number of mapped pages in one heap's bank (O(1)). *)
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

(** Pages written since the last [clear_dirty] (page numbers), across
    all heaps or restricted to one heap's bank. *)
val dirty_pages : ?heap:Privateer_ir.Heap.kind -> t -> int list

val clear_dirty : t -> unit
(** Empty the dirty set (checkpoint interval boundary). *)

val dirty_count : t -> int
(** Size of the dirty set — the checkpoint copy-cost charge. *)

(** All mapped page numbers, across every heap bank. *)
val mapped_pages : t -> int list

(** Byte-for-byte equality over [\[lo, hi)]; unmapped reads as zero.
    Word-wise and stack-safe (constant stack, 8 bytes per step). *)
val equal_range : t -> t -> int -> int -> bool

(** Equality over the union of both memories' mapped pages. *)
val equal_footprint : t -> t -> bool
