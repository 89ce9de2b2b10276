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
   timestamps cannot overflow one byte. *)

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

let iteration_of_timestamp ~interval_start m =
  if not (is_timestamp m) then invalid_arg "Shadow.iteration_of_timestamp";
  interval_start + m - first_timestamp

(* Read-only metadata probe for the eager conflict board: the current
   metadata byte of one private address on one worker machine, plus
   whether its shadow page is dirty this interval.  The dirty bit is
   what scopes a probe to the current interval's obligations: marks on
   clean pages are earlier intervals' business (already validated, or
   carried by the checkpoint merge's writer index), exactly as in
   checkpoint extraction, which also scans dirty pages only. *)
let probe machine ~addr =
  let mem = machine.Machine.mem in
  match Memory.find_page mem (Heap.shadow_of_private addr) with
  | None -> (live_in, false)
  | Some p ->
    ( Char.code (Bytes.get (Memory.page_bytes p) (Memory.offset_of_addr addr)),
      Memory.written_this_interval p )

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

(* Apply the transition to every metadata byte covering a private
   access.  Raises Misspec.Misspeculation on a violation.

   Range-granular: each shadow page is resolved once per contiguous
   run (not once per byte) and the metadata bytes are transitioned
   directly on the page's backing store.  The page is promoted to a
   writable (copy-on-write-cloned, dirty-marked) page lazily, at the
   first byte that actually needs an update, and the page summary flag
   matching the operation (timestamps for writes, read-live-in marks
   for reads) is raised at the same moment — so checkpoint extraction
   and metadata reset can skip unflagged pages wholesale.  Promotions
   additionally maintain the page's exact mark counts — timestamp
   bytes on writes (a byte entering the >= first_timestamp range from
   below, which is what lets the reset fill fully-timestamped pages
   instead of scanning them) and read-live-in bytes on reads
   (the live-in -> read-live-in transition, which is what lets
   checkpoint extraction stop a page scan once every mark is found);
   both counts are flushed to the page before any raise so partial
   updates stay consistent.
   Byte-for-byte equivalent to the per-byte reference oracle in the
   test library (asserted by a qcheck property): same final metadata,
   same verdict at the same byte, same partial updates before a
   failing byte. *)
let access machine op ~addr ~size ~beta =
  let mem = machine.Machine.mem in
  let pos = ref addr in
  let remaining = ref size in
  while !remaining > 0 do
    let private_base = !pos in
    let shadow_base = Heap.shadow_of_private private_base in
    let off = Memory.offset_of_addr shadow_base in
    let chunk = min !remaining (Memory.page_size - off) in
    let bytes =
      ref
        (match Memory.find_page mem shadow_base with
        | Some p -> Some (Memory.page_bytes p)
        | None -> None)
    in
    let page = ref None in
    let writable = ref false in
    let added = ref 0 in
    let li_added = ref 0 in
    let promote () =
      let p = Memory.touch_page mem shadow_base in
      (match op with
      | Write -> Memory.flag_timestamp p
      | Read -> Memory.flag_live_in_read p);
      writable := true;
      page := Some p;
      let b = Memory.page_bytes p in
      bytes := Some b;
      b
    in
    let flush_count () =
      if !added > 0 || !li_added > 0 then begin
        (match !page with
        | Some p ->
          if !added > 0 then Memory.add_timestamp_bytes p !added;
          if !li_added > 0 then Memory.add_live_in_bytes p !li_added
        | None -> assert false (* counted bytes were written via promote *));
        added := 0;
        li_added := 0
      end
    in
    for i = 0 to chunk - 1 do
      let current =
        match !bytes with
        | None -> live_in
        | Some b -> Char.code (Bytes.unsafe_get b (off + i))
      in
      match transition op ~current ~beta with
      | Keep -> ()
      | Update m ->
        let b = match !bytes with Some b when !writable -> b | _ -> promote () in
        if m >= first_timestamp && current < first_timestamp then incr added
        (* The only transition into read-live-in is from live-in, so
           every such update is a fresh mark. *)
        else if m = read_live_in then incr li_added;
        Bytes.unsafe_set b (off + i) (Char.unsafe_chr m)
      | Fail mk ->
        flush_count ();
        raise (Misspec.Misspeculation (mk ~addr:(private_base + i)))
    done;
    flush_count ();
    pos := !pos + chunk;
    remaining := !remaining - chunk
  done

(* In-place rewrite of one page's buffer: timestamps become old-write,
   everything else is preserved. *)
let scan_rewrite bytes =
  let off = ref 0 in
  while !off < Memory.page_size do
    (* Word-wise skip: an all-zero word is all live-in. *)
    if Bytes.get_int64_le bytes !off = 0L then off := !off + 8
    else begin
      let fin = !off + 8 in
      while !off < fin do
        if Char.code (Bytes.unsafe_get bytes !off) >= first_timestamp then
          Bytes.unsafe_set bytes !off (Char.unsafe_chr old_write);
        incr off
      done
    end
  done

(* Checkpoint-time metadata reset: all timestamps become old-write.
   Returns the number of shadow pages in the cost model's sense — every
   mapped shadow page, exactly as before the page-index refactor, so
   simulated cycle charges are unchanged.  Host work is proportional
   only to pages whose [any_timestamp] summary flag is set: the rest
   provably hold no timestamps and are skipped without a scan.

   A page whose exact timestamp count equals the page size resets to
   a constant, so it takes one memset instead of the read-check-write
   scan.  [touch_page] has already cloned a copy-on-write shared page,
   so the fill never writes through a buffer another machine sees. *)
let reset_interval machine =
  let mem = machine.Machine.mem in
  let mapped = Memory.mapped_page_count mem ~heap:Heap.Shadow in
  (* Collect first: resetting clones shared pages, which mutates the
     bank being folded over. *)
  let flagged =
    Memory.fold_pages mem ~heap:Heap.Shadow ~init:[] ~f:(fun ~key page acc ->
        if Memory.any_timestamp page then key :: acc else acc)
  in
  List.iter
    (fun key ->
      let p = Memory.touch_page mem (Memory.base_of_page key) in
      let bytes = Memory.page_bytes p in
      if Memory.timestamp_bytes p = Memory.page_size then
        Bytes.fill bytes 0 Memory.page_size (Char.unsafe_chr old_write)
      else scan_rewrite bytes;
      Memory.clear_timestamp_flag p)
    flagged;
  mapped
