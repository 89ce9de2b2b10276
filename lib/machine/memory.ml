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
   carries summary flags the shadow layer maintains so scans can skip
   pages wholesale.  The flags over-approximate content ("may
   contain"); a clear flag is a proof of absence, a set flag only an
   invitation to scan.

   Unmapped pages read as zero, so the shadow heap's metadata starts
   at code 0 (live-in) with no explicit initialization, as in the
   paper.

   Because the interpreter is dynamically typed, each 8-byte-aligned
   word carries a one-byte "float tag" recording whether the last full
   word store was a float; partial (byte) stores clear the tag. *)

open Privateer_ir

let page_shift = 12
let page_size = 1 lsl page_shift
let words_per_page = page_size / 8

(* Address bits [tag_shift, tag_shift + tag_bits) select the logical
   heap; in a page number (addr lsr page_shift) the same tag sits
   [page_shift] bits lower. *)
let heap_shift = Heap.tag_shift - page_shift
let n_heaps = 1 lsl Heap.tag_bits
let tag_of_key key = (key lsr heap_shift) land (n_heaps - 1)

type page = {
  bytes : Bytes.t;
  ftags : Bytes.t;
  mutable shared : bool;
      (* true when this page object may be referenced by another page
         table; a write must clone first (copy-on-write). *)
  mutable any_timestamp : bool; (* may hold shadow timestamps (>= 3) *)
  mutable any_live_in_read : bool; (* may hold read-live-in marks (2) *)
  mutable written_this_interval : bool; (* mirrors the dirty set *)
  mutable timestamp_bytes : int;
      (* exact count of shadow timestamp bytes (metadata >= 3) on this
         page, maintained by the shadow layer (Shadow.access adds,
         reset zeroes).  [timestamp_bytes = page_size] proves the page
         is fully timestamped, so the reset can fill it in one memset;
         unlike the [any_*] flags this is a count, not a hint, so only
         the shadow layer may write metadata on counted pages. *)
  mutable live_in_bytes : int;
      (* exact count of read-live-in marks (metadata = 2) on this
         page, the read-side mirror of [timestamp_bytes].  Together
         the two counts bound the marked bytes on a page, letting
         checkpoint extraction stop a page scan as soon as all marks
         have been found.  Marks survive the interval reset (live-in
         reads accumulate across the cohort), so unlike
         [timestamp_bytes] this count is never bulk-zeroed. *)
}

type t = {
  banks : (int, page) Hashtbl.t array; (* heap tag -> page number -> page *)
  dirty : (int, unit) Hashtbl.t array; (* heap tag -> dirty page numbers *)
}

let create () =
  { banks = Array.init n_heaps (fun _ -> Hashtbl.create 16);
    dirty = Array.init n_heaps (fun _ -> Hashtbl.create 8) }

let fresh_page () =
  { bytes = Bytes.make page_size '\000'; ftags = Bytes.make words_per_page '\000';
    shared = false; any_timestamp = false; any_live_in_read = false;
    written_this_interval = false; timestamp_bytes = 0; live_in_bytes = 0 }

(* The clone inherits the summary flags and the exact mark counts:
   they describe page content, which the copy shares at clone time. *)
let clone_page p =
  { bytes = Bytes.copy p.bytes; ftags = Bytes.copy p.ftags; shared = false;
    any_timestamp = p.any_timestamp; any_live_in_read = p.any_live_in_read;
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

let page_bytes p = p.bytes
let any_timestamp p = p.any_timestamp
let any_live_in_read p = p.any_live_in_read
let written_this_interval p = p.written_this_interval
let flag_timestamp p = p.any_timestamp <- true
let flag_live_in_read p = p.any_live_in_read <- true

(* Clearing the timestamp flag is a proof of absence, so the exact
   count falls to zero with it. *)
let clear_timestamp_flag p =
  p.any_timestamp <- false;
  p.timestamp_bytes <- 0

let timestamp_bytes p = p.timestamp_bytes
let add_timestamp_bytes p n = p.timestamp_bytes <- p.timestamp_bytes + n
let live_in_bytes p = p.live_in_bytes
let add_live_in_bytes p n = p.live_in_bytes <- p.live_in_bytes + n

(* Page for reading: never allocates; None means all-zero. *)
let find_page t addr =
  let key = page_of_addr addr in
  Hashtbl.find_opt t.banks.(tag_of_key key) key

(* Page for writing: allocates or clones as needed, marks dirty. *)
let touch_page t addr =
  let key = page_of_addr addr in
  let tag = tag_of_key key in
  Hashtbl.replace t.dirty.(tag) key ();
  let bank = t.banks.(tag) in
  match Hashtbl.find_opt bank key with
  | None ->
    let p = fresh_page () in
    p.written_this_interval <- true;
    Hashtbl.replace bank key p;
    p
  | Some p when p.shared ->
    let p' = clone_page p in
    p'.written_this_interval <- true;
    Hashtbl.replace bank key p';
    p'
  | Some p ->
    p.written_this_interval <- true;
    p

let read_byte t addr =
  match find_page t addr with
  | None -> 0
  | Some p -> Char.code (Bytes.get p.bytes (offset_of_addr addr))

let write_byte t addr v =
  let p = touch_page t addr in
  let off = offset_of_addr addr in
  Bytes.set p.bytes off (Char.chr (v land 0xff));
  (* A partial store invalidates the word's float tag. *)
  Bytes.set p.ftags (off lsr 3) '\000'

(* Raw 8-byte little-endian read; [is_float] is the word's float tag
   (only meaningful for aligned access within one page). *)
let read_word t addr =
  let off = offset_of_addr addr in
  if off land 7 = 0 then
    match find_page t addr with
    | None -> (0L, false)
    | Some p ->
      (Bytes.get_int64_le p.bytes off, Bytes.get p.ftags (off lsr 3) <> '\000')
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
    Bytes.set p.ftags (off lsr 3) (if is_float then '\001' else '\000')
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

let iter_range t ~lo ~hi ~f =
  let addr = ref lo in
  while !addr < hi do
    let off = offset_of_addr !addr in
    let chunk = min (hi - !addr) (page_size - off) in
    f ~base:(!addr - off) ~lo:off ~hi:(off + chunk) (find_page t !addr);
    addr := !addr + chunk
  done

let fill_words t addr ~words bits is_float =
  if addr land 7 <> 0 then
    for w = 0 to words - 1 do
      write_word t (addr + (8 * w)) bits is_float
    done
  else begin
    let ftag = if is_float then '\001' else '\000' in
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

let blit ~src ~src_addr ~dst ~dst_addr ~len =
  if len > 0 then
    if (src_addr lor dst_addr lor len) land 7 <> 0 then
      (* Unaligned: byte-wise fallback (loses float tags, as any
         partial store does). *)
      for i = 0 to len - 1 do
        write_byte dst (dst_addr + i) (read_byte src (src_addr + i))
      done
    else begin
      let copied = ref 0 in
      while !copied < len do
        let sa = src_addr + !copied and da = dst_addr + !copied in
        let soff = offset_of_addr sa and doff = offset_of_addr da in
        let n = min (len - !copied) (min (page_size - soff) (page_size - doff)) in
        let dp = touch_page dst da in
        (match find_page src sa with
        | Some sp ->
          Bytes.blit sp.bytes soff dp.bytes doff n;
          Bytes.blit sp.ftags (soff lsr 3) dp.ftags (doff lsr 3) (n lsr 3)
        | None ->
          Bytes.fill dp.bytes doff n '\000';
          Bytes.fill dp.ftags (doff lsr 3) (n lsr 3) '\000');
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

(* Install [src]'s page [key] into [dst] (used by checkpoint commit and
   recovery).  The page is copied so later writes don't alias. *)
let copy_page_into ~dst ~src key =
  let tag = tag_of_key key in
  (match Hashtbl.find_opt src.banks.(tag) key with
  | None -> Hashtbl.remove dst.banks.(tag) key
  | Some p -> Hashtbl.replace dst.banks.(tag) key (clone_page p));
  Hashtbl.replace dst.dirty.(tag) key ()

(* All page numbers mapped in [t] (zero pages excluded). *)
let mapped_pages t =
  Array.fold_left
    (fun acc bank -> Hashtbl.fold (fun k _ a -> k :: a) bank acc)
    [] t.banks

(* ---- comparison ------------------------------------------------------- *)

(* All-zero check of [lo, hi) within one page, word-wise. *)
let zero_chunk bytes lo hi =
  let ok = ref true in
  let i = ref lo in
  while !ok && !i < hi do
    if !i land 7 = 0 && hi - !i >= 8 then begin
      if Bytes.get_int64_le bytes !i <> 0L then ok := false;
      i := !i + 8
    end
    else begin
      if Bytes.get bytes !i <> '\000' then ok := false;
      incr i
    end
  done;
  !ok

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
   unmapped pages compare as zero.  One page resolution per page and
   word-granular comparison: stack-safe and ~8x fewer steps than the
   old byte recursion. *)
let equal_range a b lo hi =
  let ok = ref true in
  let addr = ref lo in
  while !ok && !addr < hi do
    let off = offset_of_addr !addr in
    let chunk = min (hi - !addr) (page_size - off) in
    (match (find_page a !addr, find_page b !addr) with
    | None, None -> ()
    | Some p, None | None, Some p -> if not (zero_chunk p.bytes off (off + chunk)) then ok := false
    | Some p, Some q ->
      (* Shared COW pages are physically equal. *)
      if p != q then
        if off = 0 && chunk = page_size then begin
          if not (Bytes.equal p.bytes q.bytes) then ok := false
        end
        else if not (equal_chunk p.bytes q.bytes off (off + chunk)) then ok := false);
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
