(* The shadow-heap metadata state machine (paper Table 2).

   Each byte of private data has one byte of metadata in the shadow
   heap, at the address obtained by OR-ing the private/shadow tag bit.
   Codes:

     0                live-in (initial state; shadow pages read as 0)
     1                old-write (written before the last checkpoint)
     2                read-live-in (read, believed live-in; confirmed
                      at the next checkpoint's phase-2 validation)
     3 + (i - i0)     timestamp: written at iteration i, where i0 is
                      the first iteration after the last checkpoint

   Checkpoints fire at least every [max_interval] iterations so
   timestamps cannot overflow one byte.

   [access] decides an aligned 8-byte access whose eight metadata bytes
   share one state (all live-in, old-write, read-live-in or the current
   timestamp) on the metadata word: one 8-byte read and at most one
   8-byte write, as the paper's few bit operations per private access.
   Any other access, a mixed word included, runs the range-granular
   per-byte loop, and the two agree byte for byte, count for count. *)

open Privateer_ir
open Privateer_machine

let live_in = 0
let old_write = 1
let read_live_in = 2
let first_timestamp = 3

(* 253 iterations: timestamps 3 .. 255. *)
let max_interval = 256 - first_timestamp

let timestamp ~iter ~interval_start = first_timestamp + (iter - interval_start)

let is_timestamp m = m >= first_timestamp

type op = Read | Write

type verdict = Keep | Update of int | Fail of (addr:int -> Misspec.reason)

(* The pure transition function; exhaustively unit-tested against the
   paper's table. [beta] is the current iteration's timestamp. *)
let transition op ~current ~beta : verdict =
  match op with
  | Read ->
    if current = live_in then Update read_live_in
    else if current = old_write then Fail (fun ~addr -> Misspec.Privacy_flow { addr })
    else if current = read_live_in then Keep
    else if current < beta then Fail (fun ~addr -> Misspec.Privacy_flow { addr })
    else Keep (* current = beta: intra-iteration flow *)
  | Write ->
    if current = live_in || current = old_write then Update beta
    else if current = read_live_in then
      Fail (fun ~addr -> Misspec.Privacy_conservative { addr })
    else Update beta (* overwrite of this interval's earlier/current write *)

(* The word whose eight bytes are all [b]. *)
let[@inline] splat b = Int64.mul (Int64.of_int b) 0x0101010101010101L

let all_live_in = splat live_in
let all_old_write = splat old_write
let all_read_live_in = splat read_live_in

(* Table 2 on the aligned metadata word of an 8-byte access whose eight
   bytes share one state: one word read and at most one word write.
   Each case is what [range_access] does to such a word, down to the
   page promotion and the exact counts, except that a write over an
   all-beta word skips the promotion: the current iteration's
   timestamps sit only on a page this machine promoted this interval
   (the reset rewrites every timestamp at each checkpoint), which is
   already dirty and unshared.  beta >= 3, so the four patterns never
   overlap.  Returns false, having changed nothing, on any other
   word.  The word is read through
   [page_for_read], whose unmapped page reads as all live-in, so the
   read allocates nothing. *)
let word_access mem op ~addr ~beta =
  let shadow = Heap.shadow_of_private addr in
  let off = Memory.offset_of_addr shadow in
  let w = Bytes.get_int64_le (Memory.page_for_read mem shadow).bytes off in
  match op with
  | Read ->
    if Int64.equal w all_read_live_in || Int64.equal w (splat beta) then true
    else if Int64.equal w all_live_in then begin
      let p = Memory.touch_page mem shadow in
      Bytes.set_int64_le p.bytes off all_read_live_in;
      Memory.add_live_in_bytes p 8;
      true
    end
    else false
  | Write ->
    if Int64.equal w (splat beta) then true
    else if Int64.equal w all_live_in || Int64.equal w all_old_write then begin
      let p = Memory.touch_page mem shadow in
      Bytes.set_int64_le p.bytes off (splat beta);
      Memory.add_timestamp_bytes p 8;
      true
    end
    else false

(* Apply the transition to every metadata byte covering a private
   access.  Raises Misspec.Misspeculation on a violation.

   Range-granular: each shadow page is resolved once per contiguous
   run (not once per byte) and the metadata bytes are transitioned
   directly on the page's backing store.  The page is promoted to a
   writable (copy-on-write-cloned, dirty-marked) page lazily, at the
   first byte that actually needs an update.  Updates maintain the
   page's exact mark counts — timestamp bytes on writes (a byte
   entering the >= first_timestamp range from below) and read-live-in
   bytes on reads (the live-in -> read-live-in transition) — which is
   what lets checkpoint extraction and metadata reset skip unmarked
   pages wholesale, the reset fill fully-timestamped pages instead of
   scanning them, and extraction stop a page scan once every mark is
   found; both counts are flushed to the page before any raise so
   partial updates stay consistent.
   Byte-for-byte equivalent to the per-byte reference oracle in the
   test library (asserted by a qcheck property): same final metadata,
   same verdict at the same byte, same partial updates before a
   failing byte. *)
let range_access mem op ~addr ~size ~beta =
  let pos = ref addr in
  let remaining = ref size in
  while !remaining > 0 do
    let private_base = !pos in
    let shadow_base = Heap.shadow_of_private private_base in
    let off = Memory.offset_of_addr shadow_base in
    let chunk = min !remaining (Memory.page_size - off) in
    (* Read-only (an unmapped page reads as all live-in) until the
       first update promotes it; the counts go to the promoted page. *)
    let page = ref (Memory.page_for_read mem shadow_base) in
    let writable = ref false in
    let added = ref 0 in
    let li_added = ref 0 in
    let promote () =
      page := Memory.touch_page mem shadow_base;
      writable := true
    in
    let flush_count () =
      if !added > 0 then Memory.add_timestamp_bytes !page !added;
      if !li_added > 0 then Memory.add_live_in_bytes !page !li_added;
      added := 0;
      li_added := 0
    in
    for i = 0 to chunk - 1 do
      let current = Char.code (Bytes.unsafe_get !page.Memory.bytes (off + i)) in
      match transition op ~current ~beta with
      | Keep -> ()
      | Update m ->
        if not !writable then promote ();
        if m >= first_timestamp && current < first_timestamp then incr added
        (* The only transition into read-live-in is from live-in, so
           every such update is a fresh mark. *)
        else if m = read_live_in then incr li_added;
        Bytes.unsafe_set !page.bytes (off + i) (Char.unsafe_chr m)
      | Fail mk ->
        flush_count ();
        raise (Misspec.Misspeculation (mk ~addr:(private_base + i)))
    done;
    flush_count ();
    pos := !pos + chunk;
    remaining := !remaining - chunk
  done

let access machine op ~addr ~size ~beta =
  let mem = machine.Machine.mem in
  if not (size = 8 && addr land 7 = 0 && word_access mem op ~addr ~beta) then
    range_access mem op ~addr ~size ~beta

(* In-place rewrite of one page's buffer: timestamps become old-write,
   everything else is preserved.  [timestamps] is the page's exact
   count, so the scan stops once it has rewritten that many: the rest
   of the page provably holds none (the early exit
   [Checkpoint.scan_page] takes). *)
let scan_rewrite bytes ~timestamps =
  let remaining = ref timestamps in
  let off = ref 0 in
  while !remaining > 0 && !off < Memory.page_size do
    (* Word-wise skip: an all-zero word is all live-in. *)
    if Bytes.get_int64_le bytes !off = 0L then off := !off + 8
    else begin
      let fin = !off + 8 in
      while !off < fin do
        if Char.code (Bytes.unsafe_get bytes !off) >= first_timestamp then begin
          Bytes.unsafe_set bytes !off (Char.unsafe_chr old_write);
          decr remaining
        end;
        incr off
      done
    end
  done

(* Checkpoint-time metadata reset: all timestamps become old-write.
   Returns the number of shadow pages in the cost model's sense — every
   mapped shadow page, exactly as before the page-index refactor, so
   simulated cycle charges are unchanged.  Host work is proportional
   only to pages whose exact timestamp count is nonzero: the rest
   provably hold no timestamps and are skipped without a scan.

   A page whose exact timestamp count equals the page size resets to
   a constant, so it takes one memset instead of the read-check-write
   scan; any other counted page is scanned only until its counted
   timestamps are rewritten.  [touch_page] has already cloned a
   copy-on-write shared page, so the fill never writes through a buffer
   another machine sees. *)
let reset_interval machine =
  let mem = machine.Machine.mem in
  let mapped = Memory.mapped_page_count mem ~heap:Heap.Shadow in
  (* Collect first: resetting clones shared pages, which mutates the
     bank being folded over. *)
  let stamped =
    Memory.fold_pages mem ~heap:Heap.Shadow ~init:[] ~f:(fun ~key page acc ->
        if page.Memory.timestamp_bytes > 0 then key :: acc else acc)
  in
  List.iter
    (fun key ->
      let p = Memory.touch_page mem (Memory.base_of_page key) in
      let bytes = p.Memory.bytes in
      let timestamps = p.timestamp_bytes in
      if timestamps = Memory.page_size then
        Bytes.fill bytes 0 Memory.page_size (Char.unsafe_chr old_write)
      else scan_rewrite bytes ~timestamps;
      Memory.clear_timestamp_bytes p)
    stamped;
  mapped
