(* The checkpoint path's host fast paths and the job server's domain
   pool, each against a simpler oracle:

   - qcheck: cohort extraction equals the single-worker path run
     worker by worker;
   - qcheck: the early-exit page scan equals a byte-wise oracle that
     ignores the mark counts, so it can never under-read, on words
     whose bytes were written at different iterations, in a second
     interval after a reset;
   - qcheck: the merge equals a nested-scan oracle with no writer
     index at all, and re-merging through the carried [merge_state]
     is idempotent;
   - qcheck: merging through a carried [merge_state] gives the same
     overlay/violation/pages as rebuilding the index per interval,
     over random multi-interval sequences;
   - regression: a clean interval (no new writes) does zero index
     work; a writing interval sweeps its delta back out; a violation
     is pinned to the smallest conflicting byte;
   - unit: a page's [live_in_bytes] stays exact under overlapping
     [Shadow.access] ranges and across the interval reset;
   - qcheck: the interval reset, full-page fill included, equals the
     per-byte reference reset; units: the fill never writes through a
     copy-on-write shared page, takes only exactly-full pages, and the
     reset charges every mapped shadow page as the oracle does;
   - unit: the inert fields of [Runtime_config] change neither the
     plan nor any simulated figure, and the removed knobs are not
     bound;
   - unit and qcheck tests for the Domain_pool futures (ordering,
     completion order, exceptions, nested submit, concurrent awaiters,
     inline fallback, shutdown, concurrent submitters, [shared]). *)

open Privateer_ir
open Privateer_machine
open Privateer_runtime
module Domain_pool = Privateer_support.Domain_pool

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* The pool under test: the process-wide shared one. *)
let pool () = Domain_pool.shared ~domains:3 ()

(* ---- random shadow states ---------------------------------------------- *)

(* One op: (page, word, kind, iter, value); kind 0-2 writes a word,
   3 reads 1-8 bytes as live-in.  Illegal sequences (e.g. a write over
   a live-in mark) raise Misspeculation and are simply skipped — the
   surviving shadow state is still a valid worker interval state. *)
let op_gen =
  QCheck.Gen.(
    int_bound 15 >>= fun page ->
    int_bound 511 >>= fun word ->
    int_bound 3 >>= fun kind ->
    int_bound 20 >>= fun iter ->
    map (fun value -> (page, word, kind, iter, value)) (int_bound 1000))

let ops_print ops = string_of_int (List.length ops) ^ " ops"

let worker_ops_arb =
  QCheck.make
    ~print:(fun ws ->
      String.concat "+" (List.map ops_print ws) ^ " across workers")
    QCheck.Gen.(list_size (int_range 1 4) (list_size (int_bound 120) op_gen))

let build_machine ~interval_start ops =
  let m = Machine.create () in
  Memory.clear_dirty m.Machine.mem;
  List.iter
    (fun (page, word, kind, iter, value) ->
      let addr = Heap.base Heap.Private + (page * Memory.page_size) + (word * 8) in
      let beta = Shadow.timestamp ~iter ~interval_start in
      try
        if kind < 3 then begin
          Shadow.access m Shadow.Write ~addr ~size:8 ~beta;
          Machine.set_int m addr value
        end
        else Shadow.access m Shadow.Read ~addr ~size:(1 + (value mod 8)) ~beta
      with Misspec.Misspeculation _ -> ())
    ops;
  m

let reqs_of ~interval_start workerses =
  List.mapi
    (fun i ops ->
      { Checkpoint.req_worker = i;
        req_machine = build_machine ~interval_start ops;
        req_redux_ranges = []; req_reg_partials = [] })
    workerses

(* ---- extraction equality ------------------------------------------------ *)

let tbl_equal a b =
  Hashtbl.length a = Hashtbl.length b
  && Hashtbl.fold (fun k v acc -> acc && Hashtbl.find_opt b k = Some v) a true

let contribution_equal (a : Checkpoint.contribution) (b : Checkpoint.contribution) =
  a.worker = b.worker
  && tbl_equal a.writes b.writes
  && tbl_equal a.live_in_reads b.live_in_reads
  && a.redux_words = b.redux_words
  && a.reg_partials = b.reg_partials
  && a.pages_touched = b.pages_touched

(* A worker's contribution depends only on its own machine: extracting
   the whole cohort equals the single-worker path run worker by worker
   on identically built machines. *)
let prop_extraction_equals_per_worker workerses =
  let cohort = Checkpoint.extract ~interval_start:0 (reqs_of ~interval_start:0 workerses) in
  let alone =
    List.mapi
      (fun i ops ->
        Checkpoint.contribution_of_worker ~worker:i ~interval_start:0
          (build_machine ~interval_start:0 ops)
          ~redux_ranges:[] ~reg_partials:[])
      workerses
  in
  List.length cohort = List.length alone && List.for_all2 contribution_equal cohort alone

(* ---- early-exit scan vs byte-wise oracle -------------------------------- *)

(* Extraction oracle that ignores summary flags and mark counts: every
   byte of every dirty shadow page through [read_byte].  The real scan
   stops once [timestamp_bytes + live_in_bytes] marks are found; if a
   count were ever short, the early exit would drop marks and this
   property would catch it. *)
let naive_tables ~interval_start (m : Machine.t) =
  let mem = m.Machine.mem in
  let writes = Hashtbl.create 64 in
  let live_in_reads = Hashtbl.create 16 in
  List.iter
    (fun key ->
      let base = Memory.base_of_page key in
      for off = 0 to Memory.page_size - 1 do
        let md = Memory.read_byte mem (base + off) in
        if Shadow.is_timestamp md then begin
          let private_addr = Heap.private_of_shadow (base + off) in
          let word_addr = Checkpoint.word_base private_addr in
          let iter = Shadow.iteration_of_timestamp ~interval_start md in
          let keep =
            match Hashtbl.find_opt writes word_addr with
            | Some (prev : Checkpoint.word_write) -> iter > prev.iter
            | None -> true
          in
          if keep then begin
            let bits, is_float = Memory.read_word mem word_addr in
            Hashtbl.replace writes word_addr { Checkpoint.iter; bits; is_float }
          end
        end
        else if md = Shadow.read_live_in then
          Hashtbl.replace live_in_reads (Heap.private_of_shadow (base + off)) ()
      done)
    (Memory.dirty_pages ~heap:Heap.Shadow mem);
  (writes, live_in_reads)

(* Ops that let one metadata word hold bytes written at different
   iterations: (page, offset, kind, iter, value, size).  Kind 0 writes
   an aligned word, kinds 1-2 write [size] (1-8) bytes at any offset,
   page-crossing included, kind 3 reads [size] bytes as live-in.
   Offsets cluster at the head and the tail of a page so that ranges
   overlap and cross pages; [iter] counts from the interval start. *)
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

let apply_mixed_op m ~interval_start (page, off, kind, iter, value, size) =
  let addr = Heap.base Heap.Private + (page * Memory.page_size) + off in
  let beta = Shadow.timestamp ~iter:(interval_start + iter) ~interval_start in
  try
    if kind = 0 then begin
      let addr = Checkpoint.word_base addr in
      Shadow.access m Shadow.Write ~addr ~size:8 ~beta;
      Machine.set_int m addr value
    end
    else if kind < 3 then begin
      Shadow.access m Shadow.Write ~addr ~size ~beta;
      for i = 0 to size - 1 do
        Machine.write_byte m (addr + i) (value lsr (8 * i))
      done
    end
    else Shadow.access m Shadow.Read ~addr ~size ~beta
  with Misspec.Misspeculation _ -> ()

(* A worker machine in its second interval: the first phase's ops,
   the commit's interval reset and [clear_dirty], then the second
   phase's ops, 21 iterations later. *)
let build_two_phase_machine ~start (phase1, phase2) =
  let m = Machine.create () in
  Memory.clear_dirty m.Machine.mem;
  List.iter (apply_mixed_op m ~interval_start:start) phase1;
  ignore (Shadow.reset_interval m);
  Memory.clear_dirty m.Machine.mem;
  List.iter (apply_mixed_op m ~interval_start:(start + 21)) phase2;
  m

let two_phase_arb =
  QCheck.make
    ~print:(fun (start, ws) ->
      Printf.sprintf "start %d, %s" start
        (String.concat "+"
           (List.map (fun (a, b) -> ops_print a ^ "/" ^ ops_print b) ws)))
    QCheck.Gen.(
      pair (int_bound 10_000)
        (list_size (int_range 1 4)
           (pair (list_size (int_bound 60) mixed_op_gen)
              (list_size (int_bound 60) mixed_op_gen))))

let prop_early_exit_scan_matches_bytewise (start, workers) =
  let interval_start = start + 21 in
  let reqs =
    List.mapi
      (fun i phases ->
        { Checkpoint.req_worker = i; req_machine = build_two_phase_machine ~start phases;
          req_redux_ranges = []; req_reg_partials = [] })
      workers
  in
  let extracted = Checkpoint.extract ~interval_start reqs in
  List.for_all2
    (fun (req : Checkpoint.extract_request) (c : Checkpoint.contribution) ->
      let writes, live_in = naive_tables ~interval_start req.req_machine in
      tbl_equal writes c.writes && tbl_equal live_in c.live_in_reads)
    reqs extracted

(* ---- incremental merge equality ----------------------------------------- *)

let merged_equal (a : Checkpoint.merged) (b : Checkpoint.merged) =
  tbl_equal a.overlay b.overlay
  && a.violation = b.violation
  && a.total_pages = b.total_pages

let intervals_arb =
  QCheck.make
    ~print:(fun is -> string_of_int (List.length is) ^ " intervals")
    QCheck.Gen.(
      list_size (int_range 1 5)
        (list_size (int_range 1 3) (list_size (int_bound 60) op_gen)))

let prop_incremental_merge_equals_rebuilt intervals =
  let state = Checkpoint.create_merge_state () in
  List.for_all
    (fun workerses ->
      (* Fresh machines per interval: contributions are per-interval
         deltas by construction, exactly as after a commit's
         reset_interval + clear_dirty. *)
      let contribs = Checkpoint.extract ~interval_start:0 (reqs_of ~interval_start:0 workerses) in
      let incremental = Checkpoint.merge ~state contribs in
      let rebuilt = Checkpoint.merge contribs in
      merged_equal incremental rebuilt)
    intervals

(* ---- merge vs nested-scan oracle -------------------------------------- *)

(* The nested-scan oracle: merge semantics with no writer index at
   all.  Overlay is last-writer-wins by iteration; the violation is
   the smallest live-in byte whose containing word any other worker
   wrote. *)
let oracle_merge (contribs : Checkpoint.contribution list) =
  let overlay = Hashtbl.create 64 in
  List.iter
    (fun (c : Checkpoint.contribution) ->
      Hashtbl.iter
        (fun addr (w : Checkpoint.word_write) ->
          match Hashtbl.find_opt overlay addr with
          | Some (prev : Checkpoint.word_write) when prev.iter >= w.iter -> ()
          | Some _ | None -> Hashtbl.replace overlay addr w)
        c.writes)
    contribs;
  let violation = ref None in
  List.iter
    (fun (r : Checkpoint.contribution) ->
      Hashtbl.iter
        (fun addr () ->
          let conflict =
            List.exists
              (fun (w : Checkpoint.contribution) ->
                w.worker <> r.worker
                && Hashtbl.mem w.writes (Checkpoint.word_base addr))
              contribs
          in
          if conflict then
            match !violation with
            | Some a when a <= addr -> ()
            | Some _ | None -> violation := Some addr)
        r.live_in_reads)
    contribs;
  (overlay, Option.map (fun addr -> Misspec.Phase2 { addr }) !violation)

(* The merge must reproduce the oracle's overlay and verdict and —
   because the sweep must leave the carried index empty — re-merge the
   same contributions identically, at the same index-op cost. *)
let prop_merge_matches_oracle workerses =
  let contribs =
    Checkpoint.extract ~interval_start:0 (reqs_of ~interval_start:0 workerses)
  in
  let oracle_ov, oracle_v = oracle_merge contribs in
  let state = Checkpoint.create_merge_state () in
  let m = Checkpoint.merge ~state contribs in
  let ops = Checkpoint.index_ops state in
  let m2 = Checkpoint.merge ~state contribs in
  tbl_equal m.overlay oracle_ov
  && m.violation = oracle_v
  && merged_equal m m2
  && Checkpoint.index_ops state = 2 * ops

(* ---- clean-interval short-circuit (regression) -------------------------- *)

let reader_only worker addr =
  let m = Machine.create () in
  Memory.clear_dirty m.Machine.mem;
  Shadow.access m Shadow.Read ~addr ~size:8 ~beta:3;
  Checkpoint.contribution_of_worker ~worker ~interval_start:0 m ~redux_ranges:[]
    ~reg_partials:[]

let writer worker addr value iter =
  let m = Machine.create () in
  Memory.clear_dirty m.Machine.mem;
  Shadow.access m Shadow.Write ~addr ~size:8
    ~beta:(Shadow.timestamp ~iter ~interval_start:0);
  Machine.set_int m addr value;
  Checkpoint.contribution_of_worker ~worker ~interval_start:0 m ~redux_ranges:[]
    ~reg_partials:[]

let test_clean_interval_no_index_work () =
  let base = Heap.base Heap.Private in
  let state = Checkpoint.create_merge_state () in
  (* Live-in reads but no writes: merge must not touch the index. *)
  let m = Checkpoint.merge ~state [ reader_only 0 (base + 8); reader_only 1 (base + 64) ] in
  check "clean interval: no violation" true (m.violation = None);
  check_int "clean interval: zero index ops" 0 (Checkpoint.index_ops state);
  check_int "clean interval: empty overlay" 0 (Hashtbl.length m.overlay)

let test_writing_interval_sweeps_delta () =
  let base = Heap.base Heap.Private in
  let state = Checkpoint.create_merge_state () in
  (* Interval 1: worker 1 writes base+8. *)
  let m1 = Checkpoint.merge ~state [ writer 1 (base + 8) 42 0 ] in
  check "interval 1 clean" true (m1.violation = None);
  let ops_after_1 = Checkpoint.index_ops state in
  check "writing interval does index work" true (ops_after_1 > 0);
  (* Interval 2: worker 0 reads base+8 as live-in and worker 0 writes
     elsewhere.  A stale index entry from interval 1 (worker 1 wrote
     base+8) would flag a phase-2 conflict; the sweep must prevent
     that. *)
  let r =
    let m = Machine.create () in
    Memory.clear_dirty m.Machine.mem;
    Shadow.access m Shadow.Read ~addr:(base + 8) ~size:8 ~beta:3;
    Shadow.access m Shadow.Write ~addr:(base + 128) ~size:8
      ~beta:(Shadow.timestamp ~iter:4 ~interval_start:0);
    Machine.set_int m (base + 128) 7;
    Checkpoint.contribution_of_worker ~worker:0 ~interval_start:0 m ~redux_ranges:[]
      ~reg_partials:[]
  in
  let m2 = Checkpoint.merge ~state [ r ] in
  check "no stale cross-interval conflict" true (m2.violation = None)

let test_violation_reports_smallest_addr () =
  let base = Heap.base Heap.Private in
  (* Two distinct conflicts on different pages; the reported address
     must be the smaller one whatever order the hash tables yield the
     live-in bytes in. *)
  let w =
    let m = Machine.create () in
    Memory.clear_dirty m.Machine.mem;
    List.iter
      (fun a ->
        Shadow.access m Shadow.Write ~addr:a ~size:8
          ~beta:(Shadow.timestamp ~iter:1 ~interval_start:0);
        Machine.set_int m a 9)
      [ base + 8; base + 4096 + 16 ];
    Checkpoint.contribution_of_worker ~worker:1 ~interval_start:0 m ~redux_ranges:[]
      ~reg_partials:[]
  in
  let r =
    let m = Machine.create () in
    Memory.clear_dirty m.Machine.mem;
    Shadow.access m Shadow.Read ~addr:(base + 8) ~size:8 ~beta:3;
    Shadow.access m Shadow.Read ~addr:(base + 4096 + 16) ~size:8 ~beta:3;
    Checkpoint.contribution_of_worker ~worker:0 ~interval_start:0 m ~redux_ranges:[]
      ~reg_partials:[]
  in
  List.iter
    (fun (contribs, label) ->
      match (Checkpoint.merge contribs).violation with
      | Some (Misspec.Phase2 { addr }) ->
        check_int (Printf.sprintf "smallest conflict (%s)" label) (base + 8) addr
      | _ -> Alcotest.fail (Printf.sprintf "expected a phase-2 violation (%s)" label))
    [ ([ r; w ], "reader first"); ([ w; r ], "writer first") ]

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
  check "child timestamp flag cleared" false p.Memory.any_timestamp;
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
      check "timestamp flag cleared" false (page_of addr).Memory.any_timestamp;
      check_int "timestamp count cleared" 0 (page_of addr).Memory.timestamp_bytes)
    [ near; full ]

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

(* ---- merge-state isolation (regression) ---------------------------------- *)

(* [Checkpoint.index_ops] counts per merge state (reachable per-cohort
   as [Commit.index_ops ctx]), so two pipelines interleaving in one
   process cannot contaminate each other's zero-index-work baseline. *)
let test_merge_state_isolation () =
  let base = Heap.base Heap.Private in
  let s1 = Checkpoint.create_merge_state () in
  let s2 = Checkpoint.create_merge_state () in
  ignore (Checkpoint.merge ~state:s1 [ writer 1 (base + 8) 42 0 ]);
  let ops1 = Checkpoint.index_ops s1 in
  check "s1 did index work" true (ops1 > 0);
  (* A concurrent pipeline's clean interval stays at zero even though
     s1 wrote. *)
  let m2 = Checkpoint.merge ~state:s2 [ reader_only 0 (base + 64) ] in
  check "s2 clean merge" true (m2.violation = None);
  check_int "s2 unaffected by s1's work" 0 (Checkpoint.index_ops s2);
  check_int "s1 unaffected by s2's merge" ops1 (Checkpoint.index_ops s1)

(* ---- inert fields --------------------------------------------------------- *)

module RC = Privateer_parallel.Runtime_config

(* [host_domains], [merge_shards], [pool_cap] and [profilers] are
   documented as inert: setting them must change neither the plan nor
   a single simulated figure, nor must the engine reject values it no
   longer reads. *)
let test_inert_host_fields () =
  let src =
    {|global a[64];
global acc;
fn main() {
  acc = 0;
  for (i = 0; i < 64) { a[i] = i * 3; acc = acc + a[i]; }
  return acc;
}|}
  in
  let program = Privateer.Pipeline.parse src in
  let tr, _ = Privateer.Pipeline.compile program in
  let inert =
    { RC.default with host_domains = 7; merge_shards = 13; pool_cap = -5;
      profilers = [ "exec" ] }
  in
  let tr', _ = Privateer.Pipeline.compile ~config:inert program in
  check "same plan" true
    (String.equal (Pp.program_str tr.program) (Pp.program_str tr'.program));
  let run config tr =
    Privateer.Pipeline.run_parallel ~config:{ config with RC.workers = 4 } tr
  in
  let base = run RC.default tr in
  let tuned = run inert tr' in
  check "same output" true (String.equal base.par_output tuned.par_output);
  check "same result" true (Privateer_interp.Value.equal base.par_result tuned.par_result);
  check_int "same cycles" base.par_cycles tuned.par_cycles;
  check_int "same checkpoints" base.stats.checkpoints tuned.stats.checkpoints;
  check_int "same wall cycles" base.stats.wall_cycles tuned.stats.wall_cycles

(* The host-parallelism knobs, the shadow-page pool cap and the
   profiler set are gone from the flag table, so the CLI (derived from
   it) no longer offers them. *)
let test_removed_host_knobs () =
  let flags = List.concat_map (fun (b : RC.binding) -> b.b_flags) RC.cli_bindings in
  List.iter
    (fun flag -> check (flag ^ " is not a binding") false (List.mem flag flags))
    [ "host-domains"; "merge-shards"; "pool-kind"; "host-controller"; "shadow-pool-cap";
      "profilers" ];
  check "surviving knobs still bound" true
    (List.for_all (fun f -> List.mem f flags) [ "workers"; "validation"; "max-inflight" ])

(* ---- the pool itself ---------------------------------------------------- *)

exception Boom of int

let test_pool_size_validation () =
  check "rejects 0 domains" true
    (try ignore (Domain_pool.create ~domains:0 ()); false with Invalid_argument _ -> true);
  check "rejects 65 domains" true
    (try ignore (Domain_pool.create ~domains:65 ()); false with Invalid_argument _ -> true)

(* Regression: [shared] must report the REQUESTED size, not the
   spawned one — a smaller request reusing a larger pool's domains
   used to inherit the larger size, inflating every chunking
   heuristic. *)
let test_shared_reports_requested_size () =
  let p3 = pool () in
  check_int "shared 3 reports 3" 3 (Domain_pool.size p3);
  let p2 = Domain_pool.shared ~domains:2 () in
  check "smaller request reuses the spawned domains" true (p2 == p3);
  check_int "smaller request reports the requested size" 2 (Domain_pool.size p2);
  let p3' = Domain_pool.shared ~domains:3 () in
  check_int "re-request restores the size" 3 (Domain_pool.size p3')

(* ---- futures: submit / await -------------------------------------------- *)

let test_submit_await_basic () =
  let p = pool () in
  let fus = List.init 50 (fun i -> Domain_pool.submit p (fun () -> i * 3)) in
  let results = List.map Domain_pool.await fus in
  check "awaited results in submission order" true (results = List.init 50 (fun i -> i * 3));
  (* A settled future stays settled: poll and re-await agree. *)
  let fu = Domain_pool.submit p (fun () -> 41) in
  check_int "await" 41 (Domain_pool.await fu);
  check "poll after settle" true (Domain_pool.poll fu = Some (Ok 41));
  check_int "re-await" 41 (Domain_pool.await fu)

let test_submit_exception () =
  let p = pool () in
  let fu = Domain_pool.submit p (fun () -> raise (Boom 9)) in
  (match Domain_pool.await fu with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom 9 -> ());
  (* The failure is confined to its future: the pool survives. *)
  check_int "pool usable after failed future" 5
    (Domain_pool.await (Domain_pool.submit p (fun () -> 5)))

let test_submit_inline_fallback () =
  (* A pool of size 1 runs the task inline on the submitting domain:
     the future is settled before submit returns. *)
  let p = Domain_pool.create ~domains:1 () in
  let ran = ref false in
  let fu = Domain_pool.submit p (fun () -> ran := true; 13) in
  check "inline execution on size-1 pool" true !ran;
  check "inline future settled" true (Domain_pool.poll fu = Some (Ok 13));
  check_int "inline await" 13 (Domain_pool.await fu);
  Domain_pool.shutdown p;
  (* After shutdown, submit degrades the same way. *)
  let fu = Domain_pool.submit p (fun () -> 14) in
  check_int "inline await after shutdown" 14 (Domain_pool.await fu)

(* Spin until [flag] is set; loop back-edges are safepoints, so a
   spinning domain never stalls a collection. *)
let spin_until flag = while not (Atomic.get flag) do Domain.cpu_relax () done

(* [poll] never blocks and never helps: a gated task stays pending
   until its gate opens. *)
let test_poll_pending_then_settled () =
  let p = pool () in
  let gate = Atomic.make false in
  let fu = Domain_pool.submit p (fun () -> spin_until gate; 21) in
  check "pending while gated" true (Domain_pool.poll fu = None);
  Atomic.set gate true;
  check_int "await after the gate opens" 21 (Domain_pool.await fu);
  check "settled after await" true (Domain_pool.poll fu = Some (Ok 21))

(* Each future carries its own result even when the futures settle in
   the reverse of submission order: the first task waits until every
   later one has finished. *)
let test_results_independent_of_completion_order () =
  let p = pool () in
  let n = 12 in
  let later_done = Atomic.make 0 and all_later = Atomic.make false in
  let fus =
    List.init n (fun i ->
        Domain_pool.submit p (fun () ->
            if i = 0 then spin_until all_later
            else if Atomic.fetch_and_add later_done 1 = n - 2 then Atomic.set all_later true;
            i * 7))
  in
  check "results by future, not by completion" true
    (List.map Domain_pool.await fus = List.init n (fun i -> i * 7))

(* Regression for the exception contract: failing futures do not stop
   their neighbours, and each await re-raises exactly its own task's
   exception. *)
let test_mixed_failures_settle_per_future () =
  let p = pool () in
  let ran = Atomic.make 0 in
  let fus =
    List.init 10 (fun i ->
        Domain_pool.submit p (fun () ->
            Atomic.incr ran;
            if i mod 3 = 1 then raise (Boom i) else i))
  in
  List.iteri
    (fun i fu ->
      match Domain_pool.await fu with
      | v -> check (Printf.sprintf "future %d succeeds" i) true (i mod 3 <> 1 && v = i)
      | exception Boom b -> check (Printf.sprintf "future %d raises its own" i) true (b = i))
    fus;
  check_int "every task ran" 10 (Atomic.get ran);
  check_int "pool reusable after mixed failures" 8
    (Domain_pool.await (Domain_pool.submit p (fun () -> 8)))

(* A pool task may submit and await on its own pool: the awaiting task
   helps drain the deques instead of deadlocking. *)
let test_nested_submit_inside_future () =
  let p = pool () in
  let fus =
    List.init 6 (fun j ->
        Domain_pool.submit p (fun () ->
            List.init 8 (fun i -> Domain_pool.submit p (fun () -> (j * 8) + i))
            |> List.map Domain_pool.await
            |> List.fold_left ( + ) 0))
  in
  List.iteri
    (fun j fu ->
      let expected = List.init 8 (fun i -> (j * 8) + i) |> List.fold_left ( + ) 0 in
      check_int (Printf.sprintf "nested sum %d" j) expected (Domain_pool.await fu))
    fus

(* Several client domains awaiting one future all see its result. *)
let test_concurrent_awaiters () =
  let p = pool () in
  let gate = Atomic.make false in
  let fu = Domain_pool.submit p (fun () -> spin_until gate; 99) in
  let awaiters = List.init 3 (fun _ -> Domain.spawn (fun () -> Domain_pool.await fu)) in
  Atomic.set gate true;
  List.iteri
    (fun k d -> check_int (Printf.sprintf "awaiter %d" k) 99 (Domain.join d))
    awaiters

(* Futures still queued at [shutdown] are not lost: their awaiter
   helps, running them on its own domain. *)
let test_shutdown_with_queued_futures () =
  let p = Domain_pool.create ~domains:2 () in
  let fus = List.init 20 (fun i -> Domain_pool.submit p (fun () -> i + 1)) in
  Domain_pool.shutdown p;
  check "queued futures settle after shutdown" true
    (List.map Domain_pool.await fus = List.init 20 (fun i -> i + 1))

(* qcheck: interleaved submit/await from several client domains
   preserves per-client result order, and a failing task's exception
   surfaces at exactly its position. *)
let submitters_arb =
  QCheck.make
    ~print:(fun (clients, per, fail_mod) ->
      Printf.sprintf "%d clients x %d tasks, fail mod %d" clients per fail_mod)
    QCheck.Gen.(triple (int_range 2 4) (int_range 1 25) (int_range 0 7))

let prop_concurrent_submitters (clients, per, fail_mod) =
  let p = Domain_pool.create ~domains:3 () in
    Fun.protect ~finally:(fun () -> Domain_pool.shutdown p)
      (fun () ->
        let fails c i = fail_mod > 0 && (i + c) mod fail_mod = 1 in
        let client c =
          Domain.spawn (fun () ->
              (* Interleave: submit everything, then await in order. *)
              let fus =
                List.init per (fun i ->
                    Domain_pool.submit p (fun () ->
                        if fails c i then raise (Boom ((c * 1000) + i))
                        else (c * 1000) + i))
              in
              List.mapi
                (fun i fu ->
                  match Domain_pool.await fu with
                  | v -> (not (fails c i)) && v = (c * 1000) + i
                  | exception Boom b -> fails c i && b = (c * 1000) + i
                  | exception _ -> false)
                fus)
        in
        let domains = List.init clients client in
        List.for_all (fun d -> List.for_all Fun.id (Domain.join d)) domains)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ QCheck.Test.make ~count:60 ~name:"extraction = single-worker path"
        worker_ops_arb prop_extraction_equals_per_worker;
      QCheck.Test.make ~count:100 ~name:"early-exit scan = byte-wise oracle"
        two_phase_arb prop_early_exit_scan_matches_bytewise;
      QCheck.Test.make ~count:60 ~name:"merge = nested-scan oracle"
        worker_ops_arb prop_merge_matches_oracle;
      QCheck.Test.make ~count:60 ~name:"incremental merge = rebuilt index"
        intervals_arb prop_incremental_merge_equals_rebuilt;
      QCheck.Test.make ~count:120 ~name:"reset = per-byte oracle"
        big_ops_arb prop_reset_matches_oracle;
      QCheck.Test.make ~count:30 ~name:"concurrent submitters: order + exceptions"
        submitters_arb prop_concurrent_submitters ]
  @ [ Alcotest.test_case "clean interval: zero index ops" `Quick
        test_clean_interval_no_index_work;
      Alcotest.test_case "merge states are isolated" `Quick
        test_merge_state_isolation;
      Alcotest.test_case "full-page reset spares the snapshot parent" `Quick
        test_full_page_reset_spares_snapshot_parent;
      Alcotest.test_case "reset fills only exactly-full pages" `Quick
        test_reset_fills_only_full_pages;
      Alcotest.test_case "reset charge = oracle's, every mapped page" `Quick
        test_reset_charge_matches_oracle;
      Alcotest.test_case "writing interval sweeps its delta" `Quick
        test_writing_interval_sweeps_delta;
      Alcotest.test_case "violation pinned to smallest address" `Quick
        test_violation_reports_smallest_addr;
      Alcotest.test_case "live-in byte count stays exact" `Quick
        test_live_in_count_exact;
      Alcotest.test_case "pool: submit/await basics" `Quick test_submit_await_basic;
      Alcotest.test_case "pool: future exception confined" `Quick
        test_submit_exception;
      Alcotest.test_case "pool: submit inline fallback" `Quick
        test_submit_inline_fallback;
      Alcotest.test_case "pool: poll pending then settled" `Quick
        test_poll_pending_then_settled;
      Alcotest.test_case "pool: results independent of completion order" `Quick
        test_results_independent_of_completion_order;
      Alcotest.test_case "pool: mixed failures settle per future" `Quick
        test_mixed_failures_settle_per_future;
      Alcotest.test_case "pool: nested submit inside future" `Quick
        test_nested_submit_inside_future;
      Alcotest.test_case "pool: concurrent awaiters" `Quick test_concurrent_awaiters;
      Alcotest.test_case "pool: shutdown with queued futures" `Quick
        test_shutdown_with_queued_futures;
      Alcotest.test_case "pool: size validation" `Quick test_pool_size_validation;
      Alcotest.test_case "pool: shared reports requested size" `Quick
        test_shared_reports_requested_size;
      Alcotest.test_case "runtime config: inert host fields" `Quick
        test_inert_host_fields;
      Alcotest.test_case "runtime config: removed host knobs" `Quick
        test_removed_host_knobs ]
