(* Byte-addressable memory with 4 KiB pages, copy-on-write snapshots,
   and per-heap page indexes.

   This stands in for the paper's POSIX shm/mmap substrate: each
   simulated worker process owns a page table; [snapshot] gives a
   child the parent's pages with copy-on-write semantics, exactly the
   mechanism the Privateer runtime uses to replicate a logical heap's
   storage without changing virtual addresses (paper section 5.1).

   The page table is bucketed by the 3-bit heap tag in address bits
   44-46: one bank (hashtable) and one dirty set per logical heap.
   Bulk consumers (checkpoint extraction, shadow metadata reset) walk
   exactly one bank instead of filtering a global table, and each page
   carries exact mark counts the shadow layer maintains, so scans skip
   a page with no marks wholesale and stop on another once its marks
   are found.

   Unmapped pages read as zero, so the shadow heap's metadata starts
   at code 0 (live-in) with no explicit initialization, as in the
   paper.

   In front of the banks sits a 64-slot direct-mapped page cache (a
   software TLB): each slot holds one (page number, page) pair, so a
   load, store or shadow access whose page is cached costs one array
   probe instead of a hashtable lookup.  An unmapped page is cached
   as [absent], a shared all-zero page that nothing writes; only
   [page_for_read] returns it, so a reader can take a word from any
   address's page with no [option] to unwrap.  Coherence rests on
   three facts:
   - only [touch_page] maps or replaces a page in a memory's own
     banks (a fresh page or a copy-on-write clone), and it refills
     the page's slot when it does;
   - nothing removes a page from a bank;
   - [snapshot] gives the child an empty cache, and the parent's
     cached entries stay valid because copy-on-write state lives on
     the page ([shared]), so the parent's next write still clones.
   A read therefore writes the memory's own cache.  That is safe
   because a memory is used only by the domain running its job.

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
   metadata), but its counts change only through the functions below
   ([add_*], [clear_timestamp_bytes]), and [shared] and
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
         reset zeroes).  A page with none is skipped by the reset and,
         with no read-live-in marks either, by checkpoint extraction;
         [timestamp_bytes = page_size] proves the page fully
         timestamped, so the reset can fill it in one memset.  Only the
         shadow layer may write metadata on counted pages. *)
  mutable live_in_bytes : int;
      (* exact count of read-live-in marks (metadata = 2) on this
         page, the read-side mirror of [timestamp_bytes].  Together
         the two counts bound the marked bytes on a page, letting
         checkpoint extraction stop a page scan as soon as all marks
         have been found.  Marks survive the interval reset (live-in
         reads accumulate across the cohort), so unlike
         [timestamp_bytes] this count is never bulk-zeroed. *)
}

let fresh_page () =
  { bytes = Bytes.make page_size '\000'; ftags = Bytes.make words_per_page int_tag;
    shared = false; written_this_interval = false; timestamp_bytes = 0;
    live_in_bytes = 0 }

(* What the page cache holds for an unmapped page: reads of it see
   zeros, [is_mapped] answers false for it and [touch_page] replaces
   it. *)
let absent = fresh_page ()

let cache_slots = 64

(* Mixing in the heap tag keeps a private page and its shadow twin,
   whose page numbers differ only in the tag, out of each other's
   slot. *)
let[@inline] slot_of_key key = (key + (9 * tag_of_key key)) land (cache_slots - 1)

type t = {
  banks : (int, page) Hashtbl.t array; (* heap tag -> page number -> page *)
  dirty : (int, unit) Hashtbl.t array; (* heap tag -> dirty page numbers *)
  cache_keys : int array; (* slot -> cached page number, -1 when empty *)
  cache_pages : page array; (* slot -> its page, or [absent] *)
}

let create () =
  { banks = Array.init n_heaps (fun _ -> Hashtbl.create 16);
    dirty = Array.init n_heaps (fun _ -> Hashtbl.create 8);
    cache_keys = Array.make cache_slots (-1);
    cache_pages = Array.make cache_slots absent }

(* The clone inherits the exact mark counts: they describe page
   content, which the copy shares at clone time. *)
let clone_page p =
  { bytes = Bytes.copy p.bytes; ftags = Bytes.copy p.ftags; shared = false;
    written_this_interval = p.written_this_interval;
    timestamp_bytes = p.timestamp_bytes; live_in_bytes = p.live_in_bytes }

(* Copy-on-write child: shares every current page with the parent.
   Both sides will clone a shared page on first write. *)
let snapshot t =
  let child = create () in
  Array.iteri
    (fun tag bank ->
      let cbank = child.banks.(tag) in
      Hashtbl.iter
        (fun key page ->
          page.shared <- true;
          Hashtbl.replace cbank key page)
        bank)
    t.banks;
  child

let page_of_addr addr = addr lsr page_shift
let offset_of_addr addr = addr land (page_size - 1)
let base_of_page key = key lsl page_shift

let clear_timestamp_bytes p = p.timestamp_bytes <- 0

let add_timestamp_bytes p n = p.timestamp_bytes <- p.timestamp_bytes + n
let add_live_in_bytes p n = p.live_in_bytes <- p.live_in_bytes + n

(* A cache miss: one bank lookup and a slot refill. *)
let[@inline never] refill t key slot =
  let p =
    match Hashtbl.find_opt t.banks.(tag_of_key key) key with
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

(* Page for writing: allocates or clones as needed, marks dirty.  A
   page already dirty this interval and not shared is returned as is
   (see the header). *)
let touch_page t addr =
  let key = page_of_addr addr in
  let p = lookup t key in
  if p.written_this_interval && not p.shared then p
  else begin
    let tag = tag_of_key key in
    Hashtbl.replace t.dirty.(tag) key ();
    let p =
      if p == absent || p.shared then begin
        let p' = if p == absent then fresh_page () else clone_page p in
        Hashtbl.replace t.banks.(tag) key p';
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

let fold_pages t ~heap ~init ~f =
  Hashtbl.fold (fun key page acc -> f ~key page acc) t.banks.(Heap.tag heap) init

let mapped_page_count t ~heap = Hashtbl.length t.banks.(Heap.tag heap)

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

let dirty_pages ?heap t =
  match heap with
  | Some h -> Hashtbl.fold (fun k () acc -> k :: acc) t.dirty.(Heap.tag h) []
  | None ->
    Array.fold_left
      (fun acc d -> Hashtbl.fold (fun k () a -> k :: a) d acc)
      [] t.dirty

let clear_dirty t =
  Array.iteri
    (fun tag d ->
      if Hashtbl.length d > 0 then begin
        let bank = t.banks.(tag) in
        Hashtbl.iter
          (fun key () ->
            match Hashtbl.find_opt bank key with
            | Some p -> p.written_this_interval <- false
            | None -> ())
          d;
        Hashtbl.reset d
      end)
    t.dirty

let dirty_count t = Array.fold_left (fun acc d -> acc + Hashtbl.length d) 0 t.dirty

(* All page numbers mapped in [t] (zero pages excluded). *)
let mapped_pages t =
  Array.fold_left
    (fun acc bank -> Hashtbl.fold (fun k _ a -> k :: a) bank acc)
    [] t.banks

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
