(* The checkpoint path's host fast paths, each against a simpler
   oracle:

   - qcheck: the interval's one table equals a byte-wise scan oracle
     that ignores the mark counts and reads every byte of every mapped
     shadow page: per word, each byte's latest timestamp and its byte,
     the float tag, the sole writer, and each worker's live-in words.
     Workers write partial words at different iterations, in a second
     interval after a reset, so live-in marks also sit on pages the
     interval never dirtied;
   - qcheck: installing the table and phase 2's verdict equal a
     nested-scan oracle with no table at all;
   - qcheck: the table and the verdict do not depend on worker order;
   - regression: a write-free interval builds an empty table and reads
     no clock; a violation is pinned to the smallest conflicting byte;
     a partially written word takes each byte from its latest writer
     and keeps the main process's other bytes, and a float tag survives
     only on a word one worker supplied whole;
   - unit: a page's [live_in_bytes] stays exact under overlapping
     [Shadow.access] ranges and across the interval reset;
   - qcheck: the interval reset, full-page fill included, equals the
     per-byte reference reset; units: the fill never writes through a
     copy-on-write shared page, takes only exactly-full pages, the
     reset neither clones nor dirties a page with no timestamps, and it
     charges every mapped shadow page as the oracle does. *)

open Privateer_ir
open Privateer_machine
open Privateer_runtime

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---- random cohorts ------------------------------------------------------ *)

(* Ops that let one metadata word hold bytes written at different
   iterations: (page, offset, kind, iter, value, size).  Kind 0 writes
   an aligned word (as a float when [value] is odd), kinds 1-2 write
   [size] (1-8) bytes at any offset, page-crossing included, kind 3
   reads [size] bytes as live-in.  Offsets cluster at the head and the
   tail of a page so that ranges overlap and cross pages.  Illegal
   sequences (e.g. a write over a live-in mark) raise Misspeculation
   and are skipped: the surviving shadow state is still a valid worker
   interval state. *)
let mixed_op_gen =
  QCheck.Gen.(
    int_bound 7 >>= fun page ->
    oneof
      [ int_bound 63;
        map (fun k -> Memory.page_size - 16 + k) (int_bound 15);
        int_bound (Memory.page_size - 1) ]
    >>= fun off ->
    int_bound 3 >>= fun kind ->
    int_bound 20 >>= fun iter ->
    int_range 1 8 >>= fun size ->
    map (fun value -> (page, off, kind, iter, value, size)) (int_bound 1_000_000))

let max_workers = 4

(* Worker [worker] runs iteration [iter] of the interval as the cyclic
   schedule numbers it, so no two workers share a timestamp. *)
let apply_mixed_op m ~worker ~interval_start (page, off, kind, iter, value, size) =
  let addr = Heap.base Heap.Private + (page * Memory.page_size) + off in
  let iter = interval_start + (iter * max_workers) + worker in
  let beta = Shadow.timestamp ~iter ~interval_start in
  try
    if kind = 0 then begin
      let addr = Checkpoint.word_base addr in
      Shadow.access m Shadow.Write ~addr ~size:8 ~beta;
      if value land 1 = 1 then Machine.set_float m addr (float_of_int value)
      else Machine.set_int m addr value
    end
    else if kind < 3 then begin
      Shadow.access m Shadow.Write ~addr ~size ~beta;
      for i = 0 to size - 1 do
        Machine.write_byte m (addr + i) (value lsr (8 * i))
      done
    end
    else Shadow.access m Shadow.Read ~addr ~size ~beta
  with Misspec.Misspeculation _ -> ()

(* Interval length in iterations, with room for every worker's
   numbering. *)
let interval = 21 * max_workers

(* A worker machine in its second interval: the first phase's ops,
   the commit's interval reset and [clear_dirty], then the second
   phase's ops. *)
let build_two_phase_machine ~worker ~start (phase1, phase2) =
  let m = Machine.create () in
  Memory.clear_dirty m.Machine.mem;
  List.iter (apply_mixed_op m ~worker ~interval_start:start) phase1;
  ignore (Shadow.reset_interval m);
  Memory.clear_dirty m.Machine.mem;
  List.iter (apply_mixed_op m ~worker ~interval_start:(start + interval)) phase2;
  m

let ops_print ops = string_of_int (List.length ops) ^ " ops"

let two_phase_arb =
  QCheck.make
    ~print:(fun (start, ws) ->
      Printf.sprintf "start %d, %s" start
        (String.concat "+"
           (List.map (fun (a, b) -> ops_print a ^ "/" ^ ops_print b) ws)))
    QCheck.Gen.(
      pair (int_bound 10_000)
        (list_size (int_range 1 max_workers)
           (pair (list_size (int_bound 60) mixed_op_gen)
              (list_size (int_bound 60) mixed_op_gen))))

let cohort (start, workers) =
  List.mapi (fun worker phases -> build_two_phase_machine ~worker ~start phases) workers

let reqs_of machines =
  List.mapi
    (fun i m ->
      { Checkpoint.req_worker = i; req_machine = m; req_redux_ranges = [];
        req_reg_partials = [] })
    machines

(* ---- byte-wise scan oracle ---------------------------------------------- *)

(* Every mark of one worker, read byte by byte through [read_byte] from
   every mapped shadow page, dirty or not: its timestamped private bytes
   (address -> timestamp, the byte it left) and its read-live-in bytes.
   It ignores the pages' mark counts, so a short count, or a page the
   scan skipped, would show. *)
let marks (m : Machine.t) =
  let mem = m.Machine.mem in
  let stamped = Hashtbl.create 64 in
  let live_in =
    Memory.fold_pages mem ~heap:Heap.Shadow ~init:[] ~f:(fun ~key _ acc ->
        let base = Memory.base_of_page key in
        let acc = ref acc in
        for off = 0 to Memory.page_size - 1 do
          let md = Memory.read_byte mem (base + off) in
          let addr = Heap.private_of_shadow (base + off) in
          if Shadow.is_timestamp md then
            Hashtbl.replace stamped addr (md, Memory.read_byte mem addr)
          else if md = Shadow.read_live_in then acc := addr :: !acc
        done;
        !acc)
  in
  (stamped, live_in)

(* Per written private byte, its latest timestamp across workers, the
   byte that write left and the writing worker. *)
let latest_bytes workers_marks =
  let latest = Hashtbl.create 64 in
  List.iteri
    (fun worker (stamped, _) ->
      Hashtbl.iter
        (fun addr (stamp, byte) ->
          match Hashtbl.find_opt latest addr with
          | Some (s, _, _) when s >= stamp -> ()
          | Some _ | None -> Hashtbl.replace latest addr (stamp, byte, worker))
        stamped)
    workers_marks;
  latest

(* The worker that supplied all eight bytes of [word], if one did. *)
let sole_source latest word =
  match List.init 8 (fun i -> Hashtbl.find_opt latest (word + i)) with
  | Some (_, _, k) :: rest when List.for_all (function Some (_, _, j) -> j = k | None -> false) rest
    -> Some k
  | _ -> None

let float_tag machines k word = snd (Memory.read_word (List.nth machines k).Machine.mem word)

(* The table and live-in lists the byte-wise scan implies. *)
let prop_table_matches_bytewise arg =
  let machines = cohort arg in
  let cp = Checkpoint.extract (reqs_of machines) in
  let all_marks = List.map marks machines in
  let latest = latest_bytes all_marks in
  let writers = Hashtbl.create 64 in
  List.iteri
    (fun worker (stamped, _) ->
      Hashtbl.iter
        (fun addr _ ->
          let word = Checkpoint.word_base addr in
          let ws = Option.value (Hashtbl.find_opt writers word) ~default:[] in
          if not (List.mem worker ws) then Hashtbl.replace writers word (worker :: ws))
        stamped)
    all_marks;
  let word_ok word ws =
    match Hashtbl.find_opt cp.words word with
    | None -> false
    | Some (w : Checkpoint.word) ->
      List.for_all
        (fun i ->
          match Hashtbl.find_opt latest (word + i) with
          | Some (stamp, byte, _) ->
            Char.code (Bytes.get w.stamps i) = stamp && Char.code (Bytes.get w.bits i) = byte
          | None -> Bytes.get w.stamps i = '\000' && Bytes.get w.bits i = '\000')
        (List.init 8 Fun.id)
      && w.float_tag
         = (match sole_source latest word with
           | Some k -> float_tag machines k word
           | None -> false)
      && w.writer = (match ws with [ k ] -> k | _ -> -1)
  in
  let first_live_in_per_word live_in =
    let firsts = Hashtbl.create 16 in
    List.iter
      (fun addr ->
        let word = Checkpoint.word_base addr in
        match Hashtbl.find_opt firsts word with
        | Some a when a <= addr -> ()
        | Some _ | None -> Hashtbl.replace firsts word addr)
      live_in;
    List.sort compare (Hashtbl.fold (fun _ a acc -> a :: acc) firsts [])
  in
  Hashtbl.length cp.words = Hashtbl.length writers
  && Hashtbl.fold (fun word ws ok -> ok && word_ok word ws) writers true
  && List.for_all2
       (fun (c : Checkpoint.contribution) (_, live_in) ->
         List.sort compare c.live_in = first_live_in_per_word live_in)
       cp.contributions all_marks

(* ---- nested-scan oracle ------------------------------------------------- *)

(* Phase 2 and the install with no table at all.  The verdict is the
   smallest live-in byte whose word any other worker wrote any byte of.
   The main process, pre-filled with float-tagged 0xa5 bytes, ends with
   each written byte from its latest writer, each other byte as it was,
   and a float tag only on a word whose eight bytes one worker supplied
   with its word float-tagged. *)
let prop_install_and_verdict_match_nested_scan arg =
  let machines = cohort arg in
  let cp = Checkpoint.extract (reqs_of machines) in
  let all_marks = List.map marks machines in
  let wrote_word worker word =
    let stamped, _ = List.nth all_marks worker in
    List.exists (fun i -> Hashtbl.mem stamped (word + i)) (List.init 8 Fun.id)
  in
  let verdict =
    List.fold_left min max_int
      (List.concat
         (List.mapi
            (fun reader (_, live_in) ->
              List.filter
                (fun addr ->
                  List.exists
                    (fun w -> w <> reader && wrote_word w (Checkpoint.word_base addr))
                    (List.init (List.length machines) Fun.id))
                live_in)
            all_marks))
  in
  let expected_verdict =
    if verdict = max_int then None else Some (Misspec.Phase2 { addr = verdict })
  in
  let latest = latest_bytes all_marks in
  let words =
    List.sort_uniq compare
      (Hashtbl.fold (fun addr _ acc -> Checkpoint.word_base addr :: acc) latest [])
  in
  let fill = 0xa5a5a5a5a5a5a5a5L in
  let main = Machine.create () in
  List.iter (fun word -> Memory.write_word main.Machine.mem word fill true) words;
  Checkpoint.apply_overlay main cp;
  let installed_ok word =
    let bits, is_float = Memory.read_word main.Machine.mem word in
    let expected_bits =
      List.fold_left
        (fun acc i ->
          let byte =
            match Hashtbl.find_opt latest (word + i) with Some (_, b, _) -> b | None -> 0xa5
          in
          Int64.logor acc (Int64.shift_left (Int64.of_int byte) (8 * i)))
        0L (List.init 8 Fun.id)
    in
    let expected_float =
      match sole_source latest word with Some k -> float_tag machines k word | None -> false
    in
    Int64.equal bits expected_bits && is_float = expected_float
  in
  Checkpoint.validate cp = expected_verdict && List.for_all installed_ok words

(* The table is a fold with no order: the cohort extracted in reverse
   request order gives the same words and the same verdict. *)
let prop_table_order_free arg =
  let machines = cohort arg in
  let forward = Checkpoint.extract (reqs_of machines) in
  let backward = Checkpoint.extract (List.rev (reqs_of machines)) in
  Hashtbl.length forward.words = Hashtbl.length backward.words
  && Hashtbl.fold
       (fun addr w ok -> ok && Hashtbl.find_opt backward.words addr = Some w)
       forward.words true
  && Checkpoint.validate forward = Checkpoint.validate backward

(* ---- write-free intervals and the verdict's pin (regression) ------------ *)

let reader_only addr =
  let m = Machine.create () in
  Memory.clear_dirty m.Machine.mem;
  Shadow.access m Shadow.Read ~addr ~size:8 ~beta:3;
  m

(* Minor words [f] allocates beyond an empty call.  Reading the clock
   boxes a float, so zero words means [f] read no clock. *)
let allocated_by f =
  let words g =
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (g ()));
    Gc.minor_words () -. w0
  in
  words f -. words (fun () -> None)

let test_write_free_interval () =
  let base = Heap.base Heap.Private in
  let cp = Checkpoint.extract (reqs_of [ reader_only (base + 8); reader_only (base + 64) ]) in
  check_int "write-free interval: empty table" 0 (Hashtbl.length cp.words);
  check "write-free interval: no violation" true (Checkpoint.validate cp = None);
  let module P = Privateer_parallel in
  let ctx =
    { P.Commit.env =
        { P.Worker.cm = P.Runtime_config.default.costs; stats = Stats.create ();
          sites = { check_tags = [||]; redux_sites = [||]; cold_sides = [||] };
          validate = true; inject = None };
      ranges = []; reg_ops = []; redux_base = []; reg_base = [];
      io = Deferred_io.create (); emit_main = ignore; serial_commit = false }
  in
  check "write-free interval: phase 2 reads no clock" true
    (allocated_by (fun () -> P.Commit.merge ctx cp) = 0.0)

let test_violation_reports_smallest_addr () =
  let base = Heap.base Heap.Private in
  (* Two distinct conflicts on different pages; the reported address
     must be the smaller one whatever order the table and the pages
     yield the live-in bytes in. *)
  let w =
    let m = Machine.create () in
    Memory.clear_dirty m.Machine.mem;
    List.iter
      (fun a ->
        Shadow.access m Shadow.Write ~addr:a ~size:8
          ~beta:(Shadow.timestamp ~iter:1 ~interval_start:0);
        Machine.set_int m a 9)
      [ base + 8; base + 4096 + 16 ];
    m
  in
  let r =
    let m = reader_only (base + 8) in
    Shadow.access m Shadow.Read ~addr:(base + 4096 + 16) ~size:8 ~beta:3;
    m
  in
  List.iter
    (fun (machines, label) ->
      match Checkpoint.validate (Checkpoint.extract (reqs_of machines)) with
      | Some (Misspec.Phase2 { addr }) ->
        check_int (Printf.sprintf "smallest conflict (%s)" label) (base + 8) addr
      | _ -> Alcotest.fail (Printf.sprintf "expected a phase-2 violation (%s)" label))
    [ ([ r; w ], "reader first"); ([ w; r ], "writer first") ]

(* ---- partial words (regression) ------------------------------------------ *)

let write_at m ~iter addr size =
  Shadow.access m Shadow.Write ~addr ~size ~beta:(Shadow.timestamp ~iter ~interval_start:0)

let write_float m ~iter addr x =
  write_at m ~iter addr 8;
  Machine.set_float m addr x

let write_byte m ~iter addr byte =
  write_at m ~iter addr 1;
  Machine.write_byte m addr byte

let worker_doing f =
  let m = Machine.create () in
  Memory.clear_dirty m.Machine.mem;
  f m;
  m

(* The table's entry for [word] and what a main process whose [word]
   held float-tagged 0xa5 bytes reads there after the install; both
   request orders must give the same. *)
let install_over_fill machines word =
  let result reqs =
    let cp = Checkpoint.extract reqs in
    let main = Machine.create () in
    Memory.write_word main.Machine.mem word 0xa5a5a5a5a5a5a5a5L true;
    Checkpoint.apply_overlay main cp;
    match Hashtbl.find_opt cp.words word with
    | Some w -> (w, Memory.read_word main.Machine.mem word)
    | None -> Alcotest.fail "written word missing from the table"
  in
  let forward = result (reqs_of machines) in
  check "same table and install in either request order" true
    (forward = result (List.rev (reqs_of machines)));
  forward

let check_bits = Alcotest.(check int64)

(* A float tag survives only on a word whose eight bytes one worker
   supplied: alone, or over another worker's earlier byte.  A later
   byte from another worker makes the word int-tagged, installed byte
   by byte. *)
let test_float_tag_needs_one_whole_word () =
  let word = Heap.base Heap.Private + 64 in
  let x = 2.5 in
  let bits = Int64.bits_of_float x in
  let w, (installed, is_float) =
    install_over_fill [ worker_doing (fun m -> write_float m ~iter:2 word x) ] word
  in
  check "sole writer: float tag" true (w.float_tag && is_float);
  check_int "sole writer: recorded" 0 w.writer;
  check_bits "sole writer: the float" bits installed;
  let w, (installed, is_float) =
    install_over_fill
      [ worker_doing (fun m -> write_float m ~iter:4 word x);
        worker_doing (fun m -> write_byte m ~iter:1 word 0x11) ]
      word
  in
  check "earlier byte overwritten: float tag" true (w.float_tag && is_float);
  check_int "earlier byte overwritten: two writers" (-1) w.writer;
  check_bits "earlier byte overwritten: the float" bits installed;
  let w, (installed, is_float) =
    install_over_fill
      [ worker_doing (fun m -> write_float m ~iter:4 word x);
        worker_doing (fun m -> write_byte m ~iter:5 word 0x11) ]
      word
  in
  check "later byte: int-tagged" false (w.float_tag || is_float);
  check_bits "later byte: the float's other seven bytes"
    (Int64.logor (Int64.logand bits (Int64.lognot 0xffL)) 0x11L)
    installed

(* Each byte of a partially written word takes its latest writer across
   workers; a byte no worker wrote this interval keeps the main
   process's value, and the word is int-tagged. *)
let test_partial_word_bytewise () =
  let word = Heap.base Heap.Private + 64 in
  let w, (installed, is_float) =
    install_over_fill
      [ worker_doing (fun m ->
            write_byte m ~iter:2 word 0x10;
            write_byte m ~iter:2 (word + 1) 0x11);
        worker_doing (fun m ->
            write_byte m ~iter:1 (word + 3) 0x23;
            write_byte m ~iter:3 (word + 1) 0x21) ]
      word
  in
  check "stamped: bytes 0, 1 and 3" true
    (List.init 8 (fun i -> Bytes.get w.stamps i <> '\000')
    = [ true; true; false; true; false; false; false; false ]);
  check_int "two writers" (-1) w.writer;
  check "int-tagged" false (w.float_tag || is_float);
  check_bits "latest byte each, the rest kept" 0xa5a5a5a523a52110L installed

(* ---- exact live-in counts ------------------------------------------------ *)

(* Recount read-live-in marks straight off a shadow page's bytes — the
   oracle for a page's [live_in_bytes]. *)
let recount_live_in (m : Machine.t) key =
  let bytes = (Memory.page_for_read m.Machine.mem (Memory.base_of_page key)).Memory.bytes in
  let n = ref 0 in
  for i = 0 to Memory.page_size - 1 do
    if Char.code (Bytes.get bytes i) = Shadow.read_live_in then incr n
  done;
  !n

let counted_live_in (m : Machine.t) key =
  (Memory.page_for_read m.Machine.mem (Memory.base_of_page key)).Memory.live_in_bytes

let test_live_in_count_exact () =
  let m = Machine.create () in
  Memory.clear_dirty m.Machine.mem;
  let base = Heap.base Heap.Private in
  let check_all msg =
    List.iter
      (fun key ->
        check_int
          (Printf.sprintf "%s: page %#x" msg key)
          (recount_live_in m key) (counted_live_in m key))
      (Memory.dirty_pages ~heap:Heap.Shadow m.Machine.mem)
  in
  (* Overlapping reads (the second re-covers already-marked bytes), a
     page-crossing read, and an unrelated write on the same page. *)
  Shadow.access m Shadow.Read ~addr:base ~size:100 ~beta:3;
  Shadow.access m Shadow.Read ~addr:(base + 50) ~size:100 ~beta:3;
  Shadow.access m Shadow.Read ~addr:(base + 4000) ~size:200 ~beta:3;
  Shadow.access m Shadow.Write ~addr:(base + 512) ~size:64 ~beta:5;
  check_all "after overlapping reads";
  (* Live-in marks survive the interval reset; so must the count. *)
  ignore (Shadow.reset_interval m);
  check_all "after reset";
  (* Partially-overlapping re-read: bytes 100-149 are already marked
     (Keep — no double count), 150-299 are fresh. *)
  Shadow.access m Shadow.Read ~addr:(base + 100) ~size:200 ~beta:3;
  check_all "after partially-overlapping re-read"

(* ---- interval reset vs the per-byte oracle ------------------------------- *)

(* Page-scale accesses so fully-timestamped shadow pages (the
   full-page fill path) actually occur: writes cover up to two whole
   pages, interleaved with resets.  The per-byte reference is the
   oracle: the reset must leave byte-identical metadata and
   verdicts. *)
let big_op_gen =
  QCheck.Gen.(
    let page = Memory.page_size in
    frequency
      [ ( 6,
          map2
            (fun (w, off) (size, beta) ->
              Test_props.Access { write = w; off; size; beta })
            (pair bool (map (fun p -> p * page) (int_bound 3)))
            (pair (oneofl [ page; 2 * page; 17; page + 9 ]) (int_range 3 250)) );
        (2, return Test_props.Reset) ])

let big_ops_arb =
  QCheck.make
    ~print:(fun ops -> string_of_int (List.length ops) ^ " page-scale ops")
    QCheck.Gen.(list_size (int_range 2 24) big_op_gen)

let prop_reset_matches_oracle ops =
  let m, f = Test_props.Run_shadow.run ops in
  let ref_m, ref_f = Test_props.Run_reference.run ops in
  f = ref_f && Memory.equal_footprint m.Machine.mem ref_m.Machine.mem

(* The full-page fill writes the page's buffer in place, so it must
   run on the child's private clone: after a snapshot the parent still
   shares that buffer and must keep its timestamps. *)
let test_full_page_reset_spares_snapshot_parent () =
  let parent = Machine.create () in
  Memory.clear_dirty parent.Machine.mem;
  let base = Heap.base Heap.Private in
  Shadow.access parent Shadow.Write ~addr:base ~size:Memory.page_size ~beta:5;
  let shadow = Heap.shadow_of_private base in
  let page_of m =
    if not (Memory.is_mapped m.Machine.mem shadow) then Alcotest.fail "shadow page not mapped";
    Memory.page_for_read m.Machine.mem shadow
  in
  check_int "page fully timestamped" Memory.page_size
    (page_of parent).Memory.timestamp_bytes;
  let before = Bytes.copy (page_of parent).Memory.bytes in
  let child = Machine.snapshot parent in
  ignore (Shadow.reset_interval child);
  let p = page_of child in
  check "child reads all old-write" true
    (Bytes.for_all (fun c -> Char.code c = Shadow.old_write) p.Memory.bytes);
  check_int "child timestamp count cleared" 0 p.Memory.timestamp_bytes;
  check "parent bytes unchanged" true
    (Bytes.equal before (page_of parent).Memory.bytes);
  check_int "parent count unchanged" Memory.page_size
    (page_of parent).Memory.timestamp_bytes

(* The fill is gated on the exact timestamp count.  A page one byte
   short of full takes the scan and keeps its read-live-in mark; a page
   covered by overlapping writes counts each byte once, so it is full
   and reads all old-write. *)
let test_reset_fills_only_full_pages () =
  let m = Machine.create () in
  Memory.clear_dirty m.Machine.mem;
  let page = Memory.page_size in
  let near = Heap.base Heap.Private in
  let full = near + page in
  Shadow.access m Shadow.Read ~addr:near ~size:1 ~beta:3;
  Shadow.access m Shadow.Write ~addr:(near + 1) ~size:(page - 1) ~beta:3;
  Shadow.access m Shadow.Write ~addr:full ~size:((page / 2) + 64) ~beta:3;
  Shadow.access m Shadow.Write ~addr:(full + (page / 2)) ~size:(page / 2) ~beta:4;
  let page_of addr =
    let shadow = Heap.shadow_of_private addr in
    if not (Memory.is_mapped m.Machine.mem shadow) then Alcotest.fail "shadow page not mapped";
    Memory.page_for_read m.Machine.mem shadow
  in
  check_int "one byte short of full" (page - 1) (page_of near).Memory.timestamp_bytes;
  check_int "overlapping writes counted once" page (page_of full).Memory.timestamp_bytes;
  ignore (Shadow.reset_interval m);
  let near_bytes = (page_of near).Memory.bytes in
  check_int "read-live-in mark kept" Shadow.read_live_in
    (Char.code (Bytes.get near_bytes 0));
  check "rest of the near-full page old-write" true
    (Bytes.for_all
       (fun c -> Char.code c = Shadow.old_write)
       (Bytes.sub near_bytes 1 (page - 1)));
  check_int "live-in count kept" 1 (page_of near).Memory.live_in_bytes;
  check "full page all old-write" true
    (Bytes.for_all
       (fun c -> Char.code c = Shadow.old_write)
       (page_of full).Memory.bytes);
  List.iter
    (fun addr ->
      check_int "timestamp count cleared" 0 (page_of addr).Memory.timestamp_bytes)
    [ near; full ]

(* The reset picks pages by their exact timestamp count.  On a snapshot
   child, a shadow page holding only read-live-in marks is neither
   cloned nor dirtied; the stamped page beside it is both. *)
let test_reset_skips_unstamped_pages () =
  let parent = Machine.create () in
  Memory.clear_dirty parent.Machine.mem;
  let base = Heap.base Heap.Private in
  let stamped = base + Memory.page_size in
  Shadow.access parent Shadow.Read ~addr:base ~size:8 ~beta:3;
  Shadow.access parent Shadow.Write ~addr:stamped ~size:8 ~beta:3;
  let child = Machine.snapshot parent in
  let page_of m addr = Memory.page_for_read m.Machine.mem (Heap.shadow_of_private addr) in
  check_int "both pages charged" 2 (Shadow.reset_interval child);
  check "live-in-only page still the parent's" true
    (page_of child base == page_of parent base);
  check_int "its marks are kept" 8 (page_of child base).Memory.live_in_bytes;
  check "stamped page cloned" true (page_of child stamped != page_of parent stamped);
  check_int "stamped page reset" 0 (page_of child stamped).Memory.timestamp_bytes;
  check "only the stamped page is dirty" true
    (Memory.dirty_pages ~heap:Heap.Shadow child.Machine.mem
    = [ Memory.page_of_addr (Heap.shadow_of_private stamped) ])

(* The reset's return value is the simulated charge: one [c_reset_page]
   per mapped shadow page.  Filled, scanned and skipped pages all
   count, as in the per-byte oracle, and a second reset with no access
   in between charges the same and leaves the metadata as it was. *)
let test_reset_charge_matches_oracle () =
  let module R = Privateer_oracle.Shadow_reference in
  let page = Memory.page_size in
  let drive access reset =
    let m = Machine.create () in
    let base = Heap.base Heap.Private in
    access m Shadow.Write ~addr:base ~size:page ~beta:3;
    access m Shadow.Write ~addr:(base + page) ~size:24 ~beta:3;
    access m Shadow.Read ~addr:(base + (2 * page)) ~size:8 ~beta:3;
    let first = reset m in
    let after_first = Machine.snapshot m in
    let second = reset m in
    check "second reset changes no byte" true
      (Memory.equal_footprint after_first.Machine.mem m.Machine.mem);
    (m, first, second)
  in
  let m, first, second = drive Shadow.access Shadow.reset_interval in
  let ref_m, ref_first, ref_second = drive R.access R.reset_interval in
  let mapped = Memory.mapped_page_count m.Machine.mem ~heap:Heap.Shadow in
  check "three shadow pages mapped" true (mapped >= 3);
  check_int "charge = mapped shadow pages" mapped first;
  check_int "idle reset charges the same" first second;
  check_int "charge = oracle's" ref_first first;
  check_int "idle charge = oracle's" ref_second second;
  check "metadata = oracle's" true (Memory.equal_footprint m.Machine.mem ref_m.Machine.mem)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ QCheck.Test.make ~count:100 ~name:"table = byte-wise scan oracle"
        two_phase_arb prop_table_matches_bytewise;
      QCheck.Test.make ~count:60 ~name:"install and verdict = nested-scan oracle"
        two_phase_arb prop_install_and_verdict_match_nested_scan;
      QCheck.Test.make ~count:60 ~name:"table and verdict free of worker order"
        two_phase_arb prop_table_order_free;
      QCheck.Test.make ~count:120 ~name:"reset = per-byte oracle"
        big_ops_arb prop_reset_matches_oracle ]
  @ [ Alcotest.test_case "write-free interval: empty table, no clock" `Quick
        test_write_free_interval;
      Alcotest.test_case "full-page reset spares the snapshot parent" `Quick
        test_full_page_reset_spares_snapshot_parent;
      Alcotest.test_case "reset fills only exactly-full pages" `Quick
        test_reset_fills_only_full_pages;
      Alcotest.test_case "reset skips pages without timestamps" `Quick
        test_reset_skips_unstamped_pages;
      Alcotest.test_case "reset charge = oracle's, every mapped page" `Quick
        test_reset_charge_matches_oracle;
      Alcotest.test_case "violation pinned to smallest address" `Quick
        test_violation_reports_smallest_addr;
      Alcotest.test_case "float tag only from one worker's whole word" `Quick
        test_float_tag_needs_one_whole_word;
      Alcotest.test_case "partial word: latest byte each, rest kept" `Quick
        test_partial_word_bytewise;
      Alcotest.test_case "live-in byte count stays exact" `Quick
        test_live_in_count_exact ]
