(* Byte-addressable memory with 4 KiB pages and copy-on-write
   snapshots.

   This stands in for the paper's POSIX shm/mmap substrate: each
   simulated worker process owns a page table; [snapshot] gives a
   child the parent's pages with copy-on-write semantics, exactly the
   mechanism the Privateer runtime uses to replicate a logical heap's
   storage without changing virtual addresses (paper section 5.1).

   Each memory keeps one page table, one dirty set and, per logical
   heap (the 3-bit tag in address bits 44-46), a count of its mapped
   pages.  The interval's bulk work walks the dirty set: checkpoint
   extraction and the metadata reset visit only the shadow pages
   written this interval ([dirty_pages ~heap]), because those hold
   every timestamp.  Each page carries the exact count of its
   timestamp bytes, which the shadow layer maintains, so both stop a
   page scan once its timestamps are found.  One flag per memory
   records whether the shadow layer ever made a read-live-in mark in
   it, so phase 2 probes only the workers that read something live-in.

   Unmapped pages read as zero, so the shadow heap's metadata starts
   at code 0 (live-in) with no explicit initialization, as in the
   paper.

   In front of the page table sits a 64-slot direct-mapped page cache
   (a software TLB): each slot holds one (page number, page) pair, so
   a load, store or shadow access whose page is cached costs one array
   probe instead of a hashtable lookup.  An unmapped page is cached
   as [absent], a shared all-zero page that nothing writes; only
   [page_for_read] returns it, so a reader can take a word from any
   address's page with no [option] to unwrap.  Coherence rests on
   three facts:
   - only [touch_page] maps or replaces a page in a memory's own
     table (a fresh page or a copy-on-write clone), and it refills
     the page's slot when it does;
   - only [release] removes pages from a table, on a retired memory,
     and it empties that memory's cache with them;
   - [snapshot] gives the child an empty cache, and the parent's
     cached entries stay valid because copy-on-write state lives on
     the page ([shared]), so the parent's next write still clones.
   A read therefore writes the memory's own cache.  That is safe
   because a memory is used only by the domain running its job.

   A run recycles its pages, as the paper's kernel takes back an
   exited worker's (section 5.1).  [create] makes one list of spare
   pages and every [snapshot] shares it, so the list stays inside
   one run, as a memory stays inside the domain running its job.
   [release] hands a retired memory's unshared pages to the list:
   only that memory's table maps an unshared page, because
   [snapshot] flags every page it shares and nothing else hands a
   page to another memory (checkpoints and commits copy bytes).
   [touch_page] takes a spare page before it allocates one and blits
   into it what a new page would hold, so a recycled page is byte for
   byte the page it stands in for.

   [written_this_interval] mirrors dirty-set membership: an unshared
   page is flagged only by its own memory's [touch_page], which adds
   it to the dirty set, and unflagged only by that memory's
   [clear_dirty], which empties the set.  So [touch_page] returns an
   unshared, flagged page as it is, with no dirty-set insert.  A
   shared page always takes the slow path: its flag may have been set
   by another memory.

   Because the interpreter is dynamically typed, each 8-byte-aligned
   word carries a one-byte "float tag" recording whether the last full
   word store was a float; partial (byte) stores clear the tag.  The
   word is little-endian in [bytes] and its tag is [int_tag] or
   [float_tag] in [ftags]; the interpreter reads and writes aligned
   words on the page in this format, so both tags are defined here
   only.

   [page] is a private record outside this module: anyone may read its
   fields, and the bytes of a page from [touch_page] may be written in
   place (the interpreter's aligned stores, the shadow layer's
   metadata), but its count changes only through [add_timestamp_bytes]
   and [clear_timestamp_bytes], and [shared] and
   [written_this_interval] only inside this module. *)

open Privateer_ir

let page_shift = 12
let page_size = 1 lsl page_shift
let words_per_page = page_size / 8
let int_tag = '\000'
let float_tag = '\001'

(* Address bits [tag_shift, tag_shift + tag_bits) select the logical
   heap; in a page number (addr lsr page_shift) the same tag sits
   [page_shift] bits lower. *)
let heap_shift = Heap.tag_shift - page_shift
let n_heaps = 1 lsl Heap.tag_bits
let[@inline] tag_of_key key = (key lsr heap_shift) land (n_heaps - 1)

type page = {
  bytes : Bytes.t;
  ftags : Bytes.t;
  mutable shared : bool;
      (* true when this page object may be referenced by another page
         table; a write must clone first (copy-on-write). *)
  mutable written_this_interval : bool; (* mirrors the dirty set *)
  mutable timestamp_bytes : int;
      (* exact count of shadow timestamp bytes (metadata >= 3) on this
         page, maintained by the shadow layer (Shadow.access adds,
         reset zeroes).  A page with none is skipped by the reset and
         by checkpoint extraction, and both stop scanning a page once
         they have found this many; [timestamp_bytes = page_size]
         proves the page fully timestamped, so the reset can fill it in
         one memset.  Only the shadow layer may write metadata on
         counted pages. *)
}

(* What the page cache holds for an unmapped page: reads of it see
   zeros, [is_mapped] answers false for it and [touch_page] replaces
   it with a copy of it, which is a fresh page. *)
let absent =
  { bytes = Bytes.make page_size '\000'; ftags = Bytes.make words_per_page int_tag;
    shared = false; written_this_interval = false; timestamp_bytes = 0 }

let cache_slots = 64

(* Mixing in the heap tag keeps a private page and its shadow twin,
   whose page numbers differ only in the tag, out of each other's
   slot. *)
let[@inline] slot_of_key key = (key + (9 * tag_of_key key)) land (cache_slots - 1)

type t = {
  pages : (int, page) Hashtbl.t; (* page number -> page *)
  dirty : (int, unit) Hashtbl.t; (* page numbers written since [clear_dirty] *)
  mapped : int array; (* heap tag -> its mapped pages *)
  mutable live_in_marks : bool; (* the shadow layer made a read-live-in mark *)
  cache_keys : int array; (* slot -> cached page number, -1 when empty *)
  cache_pages : page array; (* slot -> its page, or [absent] *)
  spares : page list ref; (* the run's released pages, one list per run *)
}

(* A memory over [pages], with an empty dirty set and page cache. *)
let of_pages pages ~mapped ~live_in_marks ~spares =
  { pages; dirty = Hashtbl.create 16; mapped; live_in_marks;
    cache_keys = Array.make cache_slots (-1);
    cache_pages = Array.make cache_slots absent; spares }

let create () =
  of_pages (Hashtbl.create 16) ~mapped:(Array.make n_heaps 0) ~live_in_marks:false
    ~spares:(ref [])

(* An unshared copy of [src] ([absent] for a fresh page): a spare page
   with [src] blitted in, or a new one.  The copy inherits the exact
   timestamp count: it describes page content, which the copy shares
   at clone time. *)
let copy_page t src =
  match !(t.spares) with
  | p :: rest ->
    t.spares := rest;
    Bytes.blit src.bytes 0 p.bytes 0 page_size;
    Bytes.blit src.ftags 0 p.ftags 0 words_per_page;
    p.shared <- false;
    p.written_this_interval <- src.written_this_interval;
    p.timestamp_bytes <- src.timestamp_bytes;
    p
  | [] ->
    { bytes = Bytes.copy src.bytes; ftags = Bytes.copy src.ftags; shared = false;
      written_this_interval = src.written_this_interval;
      timestamp_bytes = src.timestamp_bytes }

(* Copy-on-write child: shares every current page with the parent.
   Both sides will clone a shared page on first write.  The child's
   dirty set starts empty. *)
let snapshot t =
  Hashtbl.iter (fun _ page -> page.shared <- true) t.pages;
  of_pages (Hashtbl.copy t.pages) ~mapped:(Array.copy t.mapped)
    ~live_in_marks:t.live_in_marks ~spares:t.spares

(* Retire [t]: its unshared pages become the run's spares, and [t] an
   empty memory. *)
let release t =
  Hashtbl.iter (fun _ p -> if not p.shared then t.spares := p :: !(t.spares)) t.pages;
  Hashtbl.reset t.pages;
  Hashtbl.reset t.dirty;
  Array.fill t.mapped 0 n_heaps 0;
  t.live_in_marks <- false;
  Array.fill t.cache_keys 0 cache_slots (-1);
  Array.fill t.cache_pages 0 cache_slots absent

let page_of_addr addr = addr lsr page_shift
let offset_of_addr addr = addr land (page_size - 1)
let base_of_page key = key lsl page_shift

let clear_timestamp_bytes p = p.timestamp_bytes <- 0

let add_timestamp_bytes p n = p.timestamp_bytes <- p.timestamp_bytes + n
let note_live_in_mark t = t.live_in_marks <- true
let has_live_in_marks t = t.live_in_marks

(* A cache miss: one table lookup and a slot refill. *)
let[@inline never] refill t key slot =
  let p =
    match Hashtbl.find_opt t.pages key with
    | Some p -> p
    | None -> absent
  in
  t.cache_keys.(slot) <- key;
  t.cache_pages.(slot) <- p;
  p

(* The page numbered [key], or [absent]: one probe on a cache hit, the
   slot computed in line. *)
let[@inline] lookup t key =
  let slot = slot_of_key key in
  if Array.unsafe_get t.cache_keys slot = key then Array.unsafe_get t.cache_pages slot
  else refill t key slot

(* Pages for reading: neither maps nor clones. *)
let page_for_read t addr = lookup t (page_of_addr addr)
let is_mapped t addr = lookup t (page_of_addr addr) != absent

(* Page for writing: maps a fresh page or clones a shared one as
   needed, a spare one when the run has one, and marks it dirty.  A
   page already dirty this interval and not shared is returned as is
   (see the header). *)
let touch_page t addr =
  let key = page_of_addr addr in
  let p = lookup t key in
  if p.written_this_interval && not p.shared then p
  else begin
    Hashtbl.replace t.dirty key ();
    let p =
      if p == absent || p.shared then begin
        if p == absent then begin
          let tag = tag_of_key key in
          t.mapped.(tag) <- t.mapped.(tag) + 1
        end;
        let p' = copy_page t p in
        Hashtbl.replace t.pages key p';
        (* [lookup] left [key] in its slot. *)
        t.cache_pages.(slot_of_key key) <- p';
        p'
      end
      else p
    in
    p.written_this_interval <- true;
    p
  end

let read_byte t addr =
  Char.code (Bytes.get (lookup t (page_of_addr addr)).bytes (offset_of_addr addr))

let write_byte t addr v =
  let p = touch_page t addr in
  let off = offset_of_addr addr in
  Bytes.set p.bytes off (Char.chr (v land 0xff));
  (* A partial store invalidates the word's float tag. *)
  Bytes.set p.ftags (off lsr 3) int_tag

(* Raw 8-byte little-endian read; [is_float] is the word's float tag
   (only meaningful for aligned access within one page). *)
let read_word t addr =
  let off = offset_of_addr addr in
  if off land 7 = 0 then
    let p = lookup t (page_of_addr addr) in
    (Bytes.get_int64_le p.bytes off, Bytes.get p.ftags (off lsr 3) <> int_tag)
  else begin
    (* Unaligned (possibly page-crossing): assemble byte by byte. *)
    let v = ref 0L in
    for i = 7 downto 0 do
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (read_byte t (addr + i)))
    done;
    (!v, false)
  end

let write_word t addr bits is_float =
  let off = offset_of_addr addr in
  if off land 7 = 0 then begin
    let p = touch_page t addr in
    Bytes.set_int64_le p.bytes off bits;
    Bytes.set p.ftags (off lsr 3) (if is_float then float_tag else int_tag)
  end
  else
    for i = 0 to 7 do
      write_byte t (addr + i)
        (Int64.to_int (Int64.shift_right_logical bits (8 * i)) land 0xff)
    done

(* ---- bulk API --------------------------------------------------------- *)

let mapped_page_count t ~heap = t.mapped.(Heap.tag heap)

let fill_words t addr ~words bits is_float =
  if addr land 7 <> 0 then
    for w = 0 to words - 1 do
      write_word t (addr + (8 * w)) bits is_float
    done
  else begin
    let ftag = if is_float then float_tag else int_tag in
    let pos = ref addr in
    let remaining = ref words in
    while !remaining > 0 do
      let off = offset_of_addr !pos in
      let n = min !remaining ((page_size - off) / 8) in
      let p = touch_page t !pos in
      for w = 0 to n - 1 do
        Bytes.set_int64_le p.bytes (off + (8 * w)) bits
      done;
      Bytes.fill p.ftags (off lsr 3) n ftag;
      pos := !pos + (8 * n);
      remaining := !remaining - n
    done
  end

(* The counterpart of [fill_words]: copy [words] words from [addr] into
   [dst], their bytes at [bits_pos] and their float tags, one byte each,
   at [tags_pos].  An aligned range costs one page resolution and two
   blits per page; an unmapped page copies [absent]'s zeros. *)
let read_words t addr ~words dst ~bits_pos ~tags_pos =
  if addr land 7 <> 0 then
    for w = 0 to words - 1 do
      let bits, is_float = read_word t (addr + (8 * w)) in
      Bytes.set_int64_le dst (bits_pos + (8 * w)) bits;
      Bytes.set dst (tags_pos + w) (if is_float then float_tag else int_tag)
    done
  else begin
    let pos = ref addr in
    let copied = ref 0 in
    while !copied < words do
      let off = offset_of_addr !pos in
      let n = min (words - !copied) ((page_size - off) / 8) in
      let p = lookup t (page_of_addr !pos) in
      Bytes.blit p.bytes off dst (bits_pos + (8 * !copied)) (8 * n);
      Bytes.blit p.ftags (off lsr 3) dst (tags_pos + !copied) n;
      pos := !pos + (8 * n);
      copied := !copied + n
    done
  end

(* ---- dirty tracking --------------------------------------------------- *)

let dirty_pages t ~heap =
  let tag = Heap.tag heap in
  Hashtbl.fold (fun k () acc -> if tag_of_key k = tag then k :: acc else acc) t.dirty []

let clear_dirty t =
  if Hashtbl.length t.dirty > 0 then begin
    Hashtbl.iter (fun key () -> (Hashtbl.find t.pages key).written_this_interval <- false) t.dirty;
    Hashtbl.reset t.dirty
  end

let dirty_count t = Hashtbl.length t.dirty

(* All page numbers mapped in [t] (zero pages excluded). *)
let mapped_pages t = Hashtbl.fold (fun k _ acc -> k :: acc) t.pages []

(* ---- comparison ------------------------------------------------------- *)

let equal_chunk ba bb lo hi =
  let ok = ref true in
  let i = ref lo in
  while !ok && !i < hi do
    if !i land 7 = 0 && hi - !i >= 8 then begin
      if Bytes.get_int64_le ba !i <> Bytes.get_int64_le bb !i then ok := false;
      i := !i + 8
    end
    else begin
      if Bytes.get ba !i <> Bytes.get bb !i then ok := false;
      incr i
    end
  done;
  !ok

(* Byte-for-byte equality of an address range across two memories;
   unmapped pages compare as zero (they read as [absent]).  One page
   resolution per page and word-granular comparison: stack-safe and ~8x
   fewer steps than the old byte recursion. *)
let equal_range a b lo hi =
  let ok = ref true in
  let addr = ref lo in
  while !ok && !addr < hi do
    let off = offset_of_addr !addr in
    let chunk = min (hi - !addr) (page_size - off) in
    let p = page_for_read a !addr and q = page_for_read b !addr in
    (* Shared COW pages, and two unmapped ones, are physically equal. *)
    if p != q then
      if off = 0 && chunk = page_size then begin
        if not (Bytes.equal p.bytes q.bytes) then ok := false
      end
      else if not (equal_chunk p.bytes q.bytes off (off + chunk)) then ok := false;
    addr := !addr + chunk
  done;
  !ok

(* Compare the full mapped footprint of two memories. *)
let equal_footprint a b =
  let keys = List.sort_uniq compare (mapped_pages a @ mapped_pages b) in
  List.for_all
    (fun key ->
      let lo = base_of_page key in
      equal_range a b lo (lo + page_size))
    keys
