(* Checkpoint objects and the two-phase privacy validation
   (paper sections 5.1-5.2).

   Each checkpoint interval builds one table, the checkpoint object
   every worker adds its state to.  Extraction scans each worker's
   marked shadow pages once: it folds the words the worker wrote into
   the table and lists the bytes it read as live-in.  Per word the
   table keeps, byte by byte, the latest timestamp any worker wrote
   and the byte that write left, plus the float tag and the sole
   writer.  One merge's timestamps share the interval's start, so raw
   metadata bytes compare in iteration order.

   Phase 2 probes the same table with every worker's live-in bytes: a
   byte one worker read as live-in conflicts with another worker's
   write to its word (conservatively, at any iteration).  Live-in marks
   outlive the interval reset, so phase 2 sees every mark of the
   cohort; but the table holds one interval's writes, so a read of a
   word another worker wrote in an earlier interval of the cohort goes
   unchecked (ROADMAP item 7).

   A clean interval's table is installed into the main process's
   heaps. *)

open Privateer_ir
open Privateer_machine
open Privateer_interp

(* The 8-byte word containing a byte address: phase 2 is word-granular
   while live-in marks are per byte. *)
let word_base addr = addr land lnot 7

type word = {
  stamps : Bytes.t;
      (* per byte: the latest timestamp a worker wrote it at this
         interval, '\000' where none did *)
  bits : Bytes.t; (* per stamped byte: the byte that write left; '\000' elsewhere *)
  mutable float_tag : bool;
      (* the word's tag if its eight bytes all come from one worker *)
  mutable writer : int; (* the one worker that wrote the word, or -1 *)
}

type contribution = {
  worker : int;
  live_in : int list;
      (* the first read-live-in byte of each private word holding one:
         phase 2 decides a word at once and pins its first byte *)
  (* snapshot of the worker's reduction-heap partials, flat: for the
     n words of the reduction ranges in range order, n 8-byte
     little-endian words, then n float-tag bytes *)
  redux_words : Bytes.t;
  (* register-reduction partials *)
  reg_partials : (string * Value.t) list;
  pages_touched : int; (* for checkpoint copy cost accounting *)
}

type t = {
  words : (int, word) Hashtbl.t;
  contributions : contribution list;
  total_pages : int;
}

(* Fold one worker's word into the table.  Each byte the worker wrote
   this interval at a later iteration than the table holds takes the
   worker's timestamp and byte.  A word is taken whole, with its float
   tag, only from a worker that supplies all eight bytes; a word built
   from several workers, or with bytes nobody wrote this interval, is
   int-tagged, as [Memory.write_byte] leaves it. *)
let fold_word words ~worker ~meta ~(data : Memory.page) off addr =
  let tag = Bytes.get data.ftags (off lsr 3) <> Memory.int_tag in
  match Hashtbl.find_opt words addr with
  | None ->
    let stamps = Bytes.sub meta off 8 and bits = Bytes.sub data.bytes off 8 in
    let whole = ref true in
    for i = 0 to 7 do
      if not (Shadow.is_timestamp (Char.code (Bytes.get stamps i))) then begin
        Bytes.set stamps i '\000';
        Bytes.set bits i '\000';
        whole := false
      end
    done;
    Hashtbl.add words addr { stamps; bits; float_tag = !whole && tag; writer = worker }
  | Some w ->
    if w.writer <> worker then w.writer <- -1;
    let taken = ref 0 in
    for i = 0 to 7 do
      let m = Char.code (Bytes.get meta (off + i)) in
      if Shadow.is_timestamp m && m > Char.code (Bytes.get w.stamps i) then begin
        Bytes.set w.stamps i (Char.chr m);
        Bytes.set w.bits i (Bytes.get data.bytes (off + i));
        incr taken
      end
    done;
    if !taken = 8 then w.float_tag <- tag else if !taken > 0 then w.float_tag <- false

(* Scan one shadow page of a worker: fold its timestamped words into
   the table and return [live_in] with the page's live-in words added.
   The scan is word-wise on the page's bytes (an all-zero metadata
   word is all live-in) and bounded by the page's exact mark counts:
   once [timestamp_bytes + live_in_bytes] marked bytes have been found,
   the rest of the page is provably unmarked and the scan stops —
   O(marked bytes) on sparse pages, nothing on a page with no marks. *)
let scan_page words ~worker mem ~key (page : Memory.page) live_in =
  let marks = ref (page.timestamp_bytes + page.live_in_bytes) in
  if !marks = 0 then live_in
  else begin
    let meta = page.bytes in
    let base = Heap.private_of_shadow (Memory.base_of_page key) in
    let data = Memory.page_for_read mem base in
    let live_in = ref live_in in
    let off = ref 0 in
    while !marks > 0 && !off < Memory.page_size do
      let word = !off in
      if Bytes.get_int64_le meta word <> 0L then begin
        let stamped = ref false and first_live_in = ref (-1) in
        for i = word to word + 7 do
          let m = Char.code (Bytes.unsafe_get meta i) in
          if Shadow.is_timestamp m then begin
            decr marks;
            stamped := true
          end
          else if m = Shadow.read_live_in then begin
            decr marks;
            if !first_live_in < 0 then first_live_in := i
          end
        done;
        if !first_live_in >= 0 then live_in := (base + !first_live_in) :: !live_in;
        if !stamped then fold_word words ~worker ~meta ~data word (base + word)
      end;
      off := word + 8
    done;
    !live_in
  end

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

(* Build the interval's table: one scan per worker over every shadow
   page holding marks, plus a copy of its reduction words.  Timestamps
   sit only on pages written this interval, but read-live-in marks
   accumulate over the cohort, and re-reading a marked byte does not
   touch its page, so the scan covers the whole bank, not only the
   dirty pages.  The table starts at the smallest size and grows with
   the words written. *)
let extract (reqs : extract_request list) =
  let words = Hashtbl.create 16 in
  let contributions =
    List.map
      (fun req ->
        let mem = req.req_machine.Machine.mem in
        let worker = req.req_worker in
        { worker;
          live_in = Memory.fold_pages mem ~heap:Heap.Shadow ~init:[] ~f:(scan_page words ~worker mem);
          redux_words = read_redux mem req.req_redux_ranges;
          reg_partials = req.req_reg_partials; pages_touched = Memory.dirty_count mem })
      reqs
  in
  { words; contributions;
    total_pages = List.fold_left (fun acc c -> acc + c.pages_touched) 0 contributions }

(* Phase 2: each worker's live-in words probe the table once each.  A
   word another worker wrote (or two workers did) convicts the read,
   regardless of iteration order, as in the paper's one-byte-metadata
   design.  The verdict is the smallest conflicting byte, so it cannot
   depend on the order of pages, workers or the table. *)
let validate t =
  let first = ref max_int in
  List.iter
    (fun c ->
      List.iter
        (fun addr ->
          if addr < !first then
            match Hashtbl.find_opt t.words (word_base addr) with
            | Some w when w.writer <> c.worker -> first := addr
            | Some _ | None -> ())
        c.live_in)
    t.contributions;
  if !first = max_int then None else Some (Misspec.Phase2 { addr = !first })

(* Install a clean interval's table into the main process's memory
   (the paper's "replaces its heaps with those from the last valid
   checkpoint" uses mmap; we write the bytes).  A word stamped in all
   eight bytes is written whole; any other word byte by byte, so a byte
   no worker wrote this interval keeps the main process's value.  Table
   words are disjoint, so the write order cannot matter. *)
let apply_overlay (machine : Machine.t) t =
  let mem = machine.Machine.mem in
  Hashtbl.iter
    (fun addr w ->
      if Bytes.for_all (fun c -> c <> '\000') w.stamps then
        Memory.write_word mem addr (Bytes.get_int64_le w.bits 0) w.float_tag
      else
        for i = 0 to 7 do
          if Bytes.get w.stamps i <> '\000' then
            Memory.write_byte mem (addr + i) (Char.code (Bytes.get w.bits i))
        done)
    t.words

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
