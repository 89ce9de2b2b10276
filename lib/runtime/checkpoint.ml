(* Checkpoint objects and the two-phase privacy validation
   (paper sections 5.1-5.2).

   Per checkpoint interval, each worker contributes its speculative
   state: the private bytes it wrote (with the writing iteration
   decoded from shadow timestamps), the bytes it read as live-in, a
   snapshot of its reduction partials, its register-reduction
   partials, and its deferred output.  Merging performs:

   - phase-2 privacy validation: a byte one worker read as live-in
     in this interval must not have been written by another worker in
     this interval (conservatively, at any iteration of it).  Writes
     of earlier intervals are not in the index, so a read of a word
     another worker wrote in an earlier interval of the cohort goes
     unchecked (ROADMAP item 7);
   - last-writer-wins combination of private bytes across workers by
     iteration number, yielding the overlay to commit onto the main
     process's heaps. *)

open Privateer_ir
open Privateer_machine
open Privateer_interp
module Clock = Privateer_support.Clock

type word_write = { iter : int; bits : int64; is_float : bool }

(* The 8-byte word containing a byte address.  Writes are tracked at
   word granularity (to preserve float tags); this is the mask that
   maps a byte-granular live-in mark onto that index in the phase-2
   probe. *)
let word_base addr = addr land lnot 7

type contribution = {
  worker : int;
  (* private word address -> latest write this interval.  Word
     granularity preserves the float tags of the simulated memory; the
     iteration is the latest timestamp among the word's bytes. *)
  writes : (int, word_write) Hashtbl.t;
  (* byte addresses this worker read as live-in (metadata 2) *)
  live_in_reads : (int, unit) Hashtbl.t;
  (* snapshot of the worker's reduction-heap partials, flat: for the
     n words of the reduction ranges in range order, n 8-byte
     little-endian words, then n float-tag bytes *)
  redux_words : Bytes.t;
  (* register-reduction partials *)
  reg_partials : (string * Value.t) list;
  pages_touched : int; (* for checkpoint copy cost accounting *)
}

(* Scan one shadow page into the given tables.  [interval_start]
   decodes shadow timestamps into iteration numbers.  The page is
   scanned word-wise directly on its bytes (an all-zero metadata word
   is all live-in).

   Each nonzero metadata word is decided once: its read-live-in bytes
   go into [live_in_reads] one by one, and its largest timestamp makes
   its one [writes] entry.  That equals keeping, byte by byte, each
   later iteration than the word's entry so far, because [writes]
   holds no entry for the word when its scan starts: a word's eight
   metadata bytes sit on one shadow page, and extraction visits each
   dirty page once.

   The scan is bounded by the page's exact mark counts: once
   [timestamp_bytes + live_in_bytes] marked bytes have been found, the
   rest of the page is provably unmarked (live-in or old-write) and
   the scan stops — O(marked bytes) on sparse pages instead of
   O(page), and nothing on a page with no marks.  Machines driven
   through the per-byte reference oracle (test code) never reach the
   loop: its pages keep no counts. *)
let scan_page ~interval_start mem key writes live_in_reads =
  let page = Memory.page_for_read mem (Memory.base_of_page key) in
  let bytes = page.Memory.bytes in
  let base = Memory.base_of_page key in
  let remaining = ref (page.timestamp_bytes + page.live_in_bytes) in
  let off = ref 0 in
  while !remaining > 0 && !off < Memory.page_size do
    let word = !off in
    if Bytes.get_int64_le bytes word <> 0L then begin
      let latest = ref 0 in
      for i = word to word + 7 do
        let m = Char.code (Bytes.unsafe_get bytes i) in
        if Shadow.is_timestamp m then begin
          decr remaining;
          if m > !latest then latest := m
        end
        else if m = Shadow.read_live_in then begin
          decr remaining;
          Hashtbl.replace live_in_reads (Heap.private_of_shadow (base + i)) ()
        end
      done;
      if !latest > 0 then begin
        let word_addr = Heap.private_of_shadow (base + word) in
        let iter = Shadow.iteration_of_timestamp ~interval_start !latest in
        let bits, is_float = Memory.read_word mem word_addr in
        Hashtbl.replace writes word_addr { iter; bits; is_float }
      end
    end;
    off := word + 8
  done

type extract_request = {
  req_worker : int;
  req_machine : Machine.t;
  req_redux_ranges : (int * int * Privateer_ir.Ast.binop) list;
  req_reg_partials : (string * Value.t) list;
}

let range_words (_, size, _) = (size + 7) / 8

(* A worker's reduction words in [redux_words]' flat layout, copied
   page by page. *)
let read_redux mem ranges =
  let n = List.fold_left (fun n r -> n + range_words r) 0 ranges in
  let buf = Bytes.create (9 * n) in
  ignore
    (List.fold_left
       (fun k ((base, _, _) as r) ->
         let words = range_words r in
         Memory.read_words mem base ~words buf ~bits_pos:(8 * k) ~tags_pos:((8 * n) + k);
         k + words)
       0 ranges);
  buf

(* Extract every worker's interval contribution: one scan per worker
   over the shadow pages it dirtied this interval, plus a copy of its
   reduction words.  The tables start at the smallest size and grow
   with what the worker wrote and read. *)
let extract ~interval_start (reqs : extract_request list) =
  List.map
    (fun req ->
      let mem = req.req_machine.Machine.mem in
      let writes = Hashtbl.create 16 in
      let live_in_reads = Hashtbl.create 16 in
      List.iter
        (fun key -> scan_page ~interval_start mem key writes live_in_reads)
        (Memory.dirty_pages ~heap:Heap.Shadow mem);
      { worker = req.req_worker; writes; live_in_reads;
        redux_words = read_redux mem req.req_redux_ranges;
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
  (* host wall time of the three passes; 0 on an interval with no
     writes, which reads no clock *)
  fill_ns : float;
  validate_ns : float;
  sweep_ns : float;
}

(* The word -> writer index kept across a worker cohort's
   intervals.  Contributions are per-interval deltas (extraction visits
   only pages dirtied since the last checkpoint), so the index holds
   exactly one interval's entries while a merge is validating and is
   swept back to empty before the merge returns: the table (and its
   grown bucket array) persists, the content is per-interval.
   [ms_index_ops] counts every insert/update/remove so tests can assert
   that clean intervals do no index work at all. *)
type merge_state = {
  ms_writers : (int, int) Hashtbl.t; (* word -> sole writer, or -1 *)
  mutable ms_index_ops : int;
}

let create_merge_state () = { ms_writers = Hashtbl.create 16; ms_index_ops = 0 }

let index_ops state = state.ms_index_ops

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
   iteration, no clock read.  Each pass's host wall time is returned
   in [merged] (instrumentation only — host time never feeds back into
   simulated state). *)
let merge ?state (contribs : contribution list) =
  let st = match state with Some s -> s | None -> create_merge_state () in
  let have_writes =
    List.exists (fun c -> Hashtbl.length c.writes > 0) contribs
  in
  let overlay = Hashtbl.create (if have_writes then 64 else 1) in
  let violation = ref None in
  let fill_ns, validate_ns, sweep_ns =
    if not have_writes then (0.0, 0.0, 0.0)
    else begin
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
      (t1 -. t0, t2 -. t1, t3 -. t2)
    end
  in
  let total_pages = List.fold_left (fun acc c -> acc + c.pages_touched) 0 contribs in
  { overlay; contributions = contribs;
    violation = Option.map (fun addr -> Misspec.Phase2 { addr }) !violation;
    total_pages; fill_ns; validate_ns; sweep_ns }

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
   values: final = base op partial_1 op ... op partial_n.  [base] and
   every contribution's [redux_words] list the words of [redux_ranges]
   in range order, so one pass over the contributions folds each
   word's partials into its accumulator in contribution order: the
   per-word left fold, floats included, in O(words x workers).

   The accumulators are unboxed, an int array for the int operators
   and a float array for [Fadd]/[Fmul], and each step computes what
   [Reduction.merge_values] computes on the boxed values: a float
   operator widens an int with [float_of_int].  A step the unboxed
   lanes cannot take, an int operator meeting a float (the base before
   the first contribution, or a partial) or a non-reduction operator,
   calls [merge_values] itself, so it raises what [merge_values]
   raises, at the same (contribution, word). *)
let merge_redux ~(redux_ranges : (int * int * Privateer_ir.Ast.binop) list)
    ~(base : (int * Value.t) list) (contribs : contribution list) =
  match contribs with
  | [] -> base
  | _ :: _ ->
    let ops =
      Array.concat (List.map (fun ((_, _, op) as r) -> Array.make (range_words r) op) redux_ranges)
    in
    let base_v = Array.of_list (List.map snd base) in
    let n = Array.length base_v in
    let ints = Array.make n 0 in
    let floats = Array.make n 0.0 in
    Array.iteri
      (fun i (v : Value.t) ->
        match v with
        | VInt x ->
          ints.(i) <- x;
          floats.(i) <- float_of_int x
        | VFloat f -> floats.(i) <- f)
      base_v;
    (* Only [Fadd]/[Fmul] accumulate floats, and they never take this
       path, so an accumulator past the base is an int. *)
    let boxed ~first i bits is_float =
      let acc = if first then base_v.(i) else Value.VInt ints.(i) in
      ints.(i) <-
        Value.as_int
          (Privateer_analysis.Reduction.merge_values ops.(i) acc (Value.of_bits bits is_float))
    in
    List.iteri
      (fun c contrib ->
        let buf = contrib.redux_words in
        let first = c = 0 in
        for i = 0 to n - 1 do
          let bits = Bytes.get_int64_le buf (8 * i) in
          let is_float = Bytes.get buf ((8 * n) + i) <> Memory.int_tag in
          (* An int step needs an int partial over an int accumulator;
             only the base, before the first contribution, can be a
             float. *)
          let int_ok =
            (not is_float)
            && ((not first) || match base_v.(i) with VInt _ -> true | VFloat _ -> false)
          in
          match ops.(i) with
          | Fadd ->
            floats.(i) <-
              floats.(i)
              +. (if is_float then Int64.float_of_bits bits
                  else float_of_int (Int64.to_int bits))
          | Fmul ->
            floats.(i) <-
              floats.(i)
              *. (if is_float then Int64.float_of_bits bits
                  else float_of_int (Int64.to_int bits))
          | Add when int_ok -> ints.(i) <- ints.(i) + Int64.to_int bits
          | Mul when int_ok -> ints.(i) <- ints.(i) * Int64.to_int bits
          | Band when int_ok -> ints.(i) <- ints.(i) land Int64.to_int bits
          | Bor when int_ok -> ints.(i) <- ints.(i) lor Int64.to_int bits
          | Bxor when int_ok -> ints.(i) <- ints.(i) lxor Int64.to_int bits
          | _ -> boxed ~first i bits is_float
        done)
      contribs;
    List.mapi
      (fun i (addr, _) ->
        ( addr,
          match ops.(i) with
          | Ast.Fadd | Fmul -> Value.VFloat floats.(i)
          | _ -> Value.VInt ints.(i) ))
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
