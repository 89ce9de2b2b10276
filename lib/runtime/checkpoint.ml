(* Checkpoint objects and the two-phase privacy validation
   (paper sections 5.1-5.2).

   Per checkpoint interval, each worker contributes its speculative
   state: the private bytes it wrote (with the writing iteration
   decoded from shadow timestamps), the bytes it read as live-in, a
   snapshot of its reduction partials, its register-reduction
   partials, and its deferred output.  Merging performs:

   - phase-2 privacy validation: a byte one worker read as live-in
     must not have been written by another worker (conservatively, at
     any earlier point);
   - last-writer-wins combination of private bytes across workers by
     iteration number, yielding the overlay to commit onto the main
     process's heaps. *)

open Privateer_ir
open Privateer_machine
open Privateer_interp
module Clock = Privateer_support.Clock

type word_write = { iter : int; bits : int64; is_float : bool }

(* The 8-byte word containing a byte address.  Writes are tracked at
   word granularity (to preserve float tags); this is the one mask
   that maps a byte-granular shadow mark onto that index, used by both
   the extraction scan and the phase-2 probe. *)
let word_base addr = addr land lnot 7

type contribution = {
  worker : int;
  (* private word address -> latest write this interval.  Word
     granularity preserves the float tags of the simulated memory; the
     iteration is the latest timestamp among the word's bytes. *)
  writes : (int, word_write) Hashtbl.t;
  (* byte addresses this worker read as live-in (metadata 2) *)
  live_in_reads : (int, unit) Hashtbl.t;
  (* snapshot of the worker's reduction-heap partials *)
  redux_words : (int * int64 * bool) list;
  (* register-reduction partials *)
  reg_partials : (string * Value.t) list;
  pages_touched : int; (* for checkpoint copy cost accounting *)
}

(* Scan one flagged shadow page into the given tables.  [interval_start]
   decodes shadow timestamps into iteration numbers.  Pages whose
   summary flags show neither timestamps nor read-live-in marks are
   skipped without a scan; flagged pages are scanned word-wise directly
   on the page bytes (an all-zero metadata word is all live-in).

   The scan is bounded by the page's exact mark counts: once
   [timestamp_bytes + live_in_bytes] marked bytes have been found, the
   rest of the page is provably unmarked (live-in or old-write) and
   the scan stops — O(marked bytes) on sparse pages instead of
   O(page).  Machines driven through the per-byte reference oracle
   (test code) never reach this loop: its pages carry no summary
   flags, so the [any_*] guard filters them out before the counts
   matter. *)
let scan_page ~interval_start mem key writes live_in_reads =
  match Memory.find_page mem (Memory.base_of_page key) with
  | None -> ()
  | Some page ->
    if Memory.any_timestamp page || Memory.any_live_in_read page then begin
      let bytes = Memory.page_bytes page in
      let base = Memory.base_of_page key in
      let remaining =
        ref (Memory.timestamp_bytes page + Memory.live_in_bytes page)
      in
      let off = ref 0 in
      while !remaining > 0 && !off < Memory.page_size do
        if Bytes.get_int64_le bytes !off = 0L then off := !off + 8
        else begin
          let fin = !off + 8 in
          while !off < fin do
            let m = Char.code (Bytes.unsafe_get bytes !off) in
            if Shadow.is_timestamp m then begin
              decr remaining;
              let private_addr = Heap.private_of_shadow (base + !off) in
              let word_addr = word_base private_addr in
              let iter = Shadow.iteration_of_timestamp ~interval_start m in
              let keep =
                match Hashtbl.find_opt writes word_addr with
                | Some prev -> iter > prev.iter
                | None -> true
              in
              if keep then begin
                let bits, is_float = Memory.read_word mem word_addr in
                Hashtbl.replace writes word_addr { iter; bits; is_float }
              end
            end
            else if m = Shadow.read_live_in then begin
              decr remaining;
              Hashtbl.replace live_in_reads
                (Heap.private_of_shadow (base + !off))
                ()
            end;
            incr off
          done
        end
      done
    end

type extract_request = {
  req_worker : int;
  req_machine : Machine.t;
  req_redux_ranges : (int * int * Privateer_ir.Ast.binop) list;
  req_reg_partials : (string * Value.t) list;
}

(* Extract every worker's interval contribution: one scan per worker
   over the shadow pages it dirtied this interval, plus a snapshot of
   its reduction words. *)
let extract ~interval_start (reqs : extract_request list) =
  List.map
    (fun req ->
      let mem = req.req_machine.Machine.mem in
      let writes = Hashtbl.create 256 in
      let live_in_reads = Hashtbl.create 16 in
      List.iter
        (fun key -> scan_page ~interval_start mem key writes live_in_reads)
        (Memory.dirty_pages ~heap:Heap.Shadow mem);
      let redux_words =
        List.concat_map
          (fun (base, size, _op) ->
            List.init ((size + 7) / 8) (fun w ->
                let addr = base + (8 * w) in
                let bits, is_float = Memory.read_word mem addr in
                (addr, bits, is_float)))
          req.req_redux_ranges
      in
      { worker = req.req_worker; writes; live_in_reads; redux_words;
        reg_partials = req.req_reg_partials; pages_touched = Memory.dirty_count mem })
    reqs

(* Extract a single worker's contribution. *)
let contribution_of_worker ~worker ~interval_start (machine : Machine.t)
    ~redux_ranges ~reg_partials =
  match
    extract ~interval_start
      [ { req_worker = worker; req_machine = machine;
          req_redux_ranges = redux_ranges; req_reg_partials = reg_partials } ]
  with
  | [ c ] -> c
  | _ -> assert false

type merged = {
  (* winning (latest-iteration) write per word *)
  overlay : (int, word_write) Hashtbl.t;
  (* per-worker redux snapshots and register partials, kept for
     recovery and final commit *)
  contributions : contribution list;
  violation : Misspec.reason option;
  total_pages : int;
}

(* The word -> writer index carried across a worker cohort's
   intervals.  Contributions are per-interval deltas (extraction visits
   only pages dirtied since the last checkpoint), so the index holds
   exactly one interval's entries while a merge is validating and is
   swept back to empty before the merge returns: the table (and its
   grown bucket array) persists, the content is per-interval.
   [ms_index_ops] counts every insert/update/remove so tests can assert
   that clean intervals do no index work at all; the [ms_*_ns]
   accumulators attribute host wall time per merge phase
   (instrumentation only — host time never feeds back into simulated
   state). *)
type merge_state = {
  ms_writers : (int, int) Hashtbl.t; (* word -> sole writer, or -1 *)
  mutable ms_index_ops : int;
  mutable ms_fill_ns : float;
  mutable ms_validate_ns : float;
  mutable ms_sweep_ns : float;
}

let create_merge_state () =
  { ms_writers = Hashtbl.create 256; ms_index_ops = 0; ms_fill_ns = 0.0;
    ms_validate_ns = 0.0; ms_sweep_ns = 0.0 }

let index_ops state = state.ms_index_ops

type phase_ns = { fill_ns : float; validate_ns : float; sweep_ns : float }

let phase_timings state =
  { fill_ns = state.ms_fill_ns; validate_ns = state.ms_validate_ns;
    sweep_ns = state.ms_sweep_ns }

(* Phase-2 validation + last-writer-wins merge, in three passes:

   1. index fill: build the overlay last-writer-wins by iteration and
      record every written word's sole writer ([-1] = more than one
      distinct worker) in the writer index;
   2. validate: for every live-in byte, one O(1) probe of the index —
      a write by a different worker is a phase-2 privacy violation
      (conservative: regardless of iteration order, as in the paper's
      one-byte-metadata design).  The verdict is pinned to the
      smallest conflicting byte address, so it cannot depend on hash
      iteration order;
   3. sweep: remove this interval's inserted delta so the carried
      index is empty again.

   With [?state], the index is the carried one: merge cost is
   proportional to this interval's entries (insert the delta, sweep it
   out again), and an interval with no new writes short-circuits all
   three passes outright — no allocation, no hashing, no read
   iteration. *)
let merge ?state (contribs : contribution list) =
  let st = match state with Some s -> s | None -> create_merge_state () in
  let have_writes =
    List.exists (fun c -> Hashtbl.length c.writes > 0) contribs
  in
  let overlay = Hashtbl.create (if have_writes then 64 else 1) in
  let violation = ref None in
  if have_writes then begin
    let writers = st.ms_writers in
    let inserted = ref [] in
    let t0 = Clock.now_ns () in
    (* Pass 1: index fill. *)
    List.iter
      (fun c ->
        Hashtbl.iter
          (fun addr (w : word_write) ->
            (match Hashtbl.find_opt writers addr with
            | None ->
              Hashtbl.replace writers addr c.worker;
              inserted := addr :: !inserted;
              st.ms_index_ops <- st.ms_index_ops + 1
            | Some id when id = c.worker || id = -1 -> ()
            | Some _ ->
              Hashtbl.replace writers addr (-1);
              st.ms_index_ops <- st.ms_index_ops + 1);
            match Hashtbl.find_opt overlay addr with
            | Some prev when prev.iter >= w.iter -> ()
            | Some _ | None -> Hashtbl.replace overlay addr w)
          c.writes)
      contribs;
    let t1 = Clock.now_ns () in
    (* Pass 2: validate — one probe of the word owning each live-in
       byte. *)
    List.iter
      (fun reader ->
        Hashtbl.iter
          (fun addr () ->
            match Hashtbl.find_opt writers (word_base addr) with
            | Some id when id <> reader.worker -> (
              match !violation with
              | Some a when a <= addr -> ()
              | Some _ | None -> violation := Some addr)
            | Some _ | None -> ())
          reader.live_in_reads)
      contribs;
    let t2 = Clock.now_ns () in
    (* Pass 3: sweep this interval's delta back out so the carried
       index is empty again (content is per-interval; only the
       allocation is carried). *)
    List.iter (Hashtbl.remove writers) !inserted;
    st.ms_index_ops <- st.ms_index_ops + List.length !inserted;
    let t3 = Clock.now_ns () in
    st.ms_fill_ns <- st.ms_fill_ns +. (t1 -. t0);
    st.ms_validate_ns <- st.ms_validate_ns +. (t2 -. t1);
    st.ms_sweep_ns <- st.ms_sweep_ns +. (t3 -. t2)
  end;
  let total_pages = List.fold_left (fun acc c -> acc + c.pages_touched) 0 contribs in
  { overlay; contributions = contribs;
    violation = Option.map (fun addr -> Misspec.Phase2 { addr }) !violation;
    total_pages }

(* Install a merged overlay into the main process's memory (the
   paper's "replaces its heaps with those from the last valid
   checkpoint" uses mmap; we write the bytes).  Overlay words are
   disjoint, so the write order cannot matter. *)
let apply_overlay (machine : Machine.t) merged =
  Hashtbl.iter
    (fun addr (w : word_write) ->
      Memory.write_word machine.Machine.mem addr w.bits w.is_float)
    merged.overlay

(* Combine worker reduction partials over the base (pre-interval)
   values: final = base op partial_1 op ... op partial_n. *)
let merge_redux ~(redux_ranges : (int * int * Privateer_ir.Ast.binop) list)
    ~(base : (int * Value.t) list) (contribs : contribution list) =
  let op_of addr =
    List.find_map
      (fun (b, s, op) -> if addr >= b && addr < b + s then Some op else None)
      redux_ranges
  in
  List.map
    (fun (addr, base_v) ->
      let op = match op_of addr with Some op -> op | None -> assert false in
      let v =
        List.fold_left
          (fun acc c ->
            match List.find_opt (fun (a, _, _) -> a = addr) c.redux_words with
            | Some (_, bits, is_float) ->
              Privateer_analysis.Reduction.merge_values op acc
                (Value.of_bits bits is_float)
            | None -> acc)
          base_v contribs
      in
      (addr, v))
    base

(* Combine register-reduction partials similarly. *)
let merge_reg_partials ~(ops : (string * Privateer_ir.Ast.binop) list)
    ~(base : (string * Value.t) list) (contribs : contribution list) =
  List.map
    (fun (name, base_v) ->
      let op = List.assoc name ops in
      let v =
        List.fold_left
          (fun acc c ->
            match List.assoc_opt name c.reg_partials with
            | Some p -> Privateer_analysis.Reduction.merge_values op acc p
            | None -> acc)
          base_v contribs
      in
      (name, v))
    base
