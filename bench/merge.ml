(* The `merge` experiment: host time of the phase-2 merge and the
   early-exit extraction scan.

   Two measurements:

   - merge wall time on a dense multi-worker interval (8 workers x
     3000 overlapping words each + 512 live-in probes per worker),
     through a carried merge state, with per-phase host time (fill /
     validate / sweep) from the state's accumulated timings;
   - the early-exit extraction scan: three 16-page footprints with
     identical extraction work per kind -- 8 marked words at each page
     head, the same 8 words at each page tail, and fully-marked pages.
     Head vs tail isolates the early exit itself (same marks, the tail
     variant must walk the whole page to find them), dense shows the
     cost scan distance no longer dominates.

   Results go to BENCH_merge.json; iteration counts scale down via
   MERGE_ITERS (CI smoke runs use a small value). *)

open Privateer_ir
open Privateer_machine
open Privateer_runtime
open Privateer_support

let iters () =
  match Sys.getenv_opt "MERGE_ITERS" with
  | Some s -> (try max 1 (int_of_string s) with Failure _ -> 40)
  | None -> 40

let time_ns = Overhead.time_ns

(* ---- the dense merge footprint ------------------------------------------ *)

let n_workers = 8
let words_per_worker = 3000
let live_in_per_worker = 512

(* Synthetic interval contributions: worker [w] writes words
   [w*1500, w*1500 + 3000), so adjacent workers overlap on half their
   range (exercising the multi-writer index path), and probes 512
   live-in byte addresses far above every written word (each costs a
   phase-2 index lookup that misses -- the interval is clean). *)
let contribs () =
  let base = Heap.base Heap.Private in
  List.init n_workers (fun w ->
      let writes = Hashtbl.create (words_per_worker * 2) in
      for i = 0 to words_per_worker - 1 do
        let addr = base + (((w * (words_per_worker / 2)) + i) * 8) in
        Hashtbl.replace writes addr
          { Checkpoint.iter = w; bits = Int64.of_int ((w * 100000) + i);
            is_float = false }
      done;
      let live = Hashtbl.create (live_in_per_worker * 2) in
      for i = 0 to live_in_per_worker - 1 do
        Hashtbl.replace live
          (base + (1 lsl 22) + (((w * live_in_per_worker) + i) * 8))
          ()
      done;
      { Checkpoint.worker = w; writes; live_in_reads = live; redux_words = [];
        reg_partials = [];
        pages_touched = words_per_worker * 8 / Memory.page_size })

(* ns per merge of the dense interval through a carried state (the
   sweep returns the state to empty, so every round runs the same
   delta).  Returns total ns plus per-call phase-time averages. *)
let bench_merge () =
  let cs = contribs () in
  let state = Checkpoint.create_merge_state () in
  let rounds = iters () in
  let ns = time_ns ~rounds ~reps:1 (fun () -> ignore (Checkpoint.merge ~state cs)) in
  (* time_ns runs one untimed warmup call plus [rounds] timed calls,
     all through the same state. *)
  let calls = float_of_int (rounds + 1) in
  let pt = Checkpoint.phase_timings state in
  ( ns, pt.Checkpoint.fill_ns /. calls, pt.Checkpoint.validate_ns /. calls,
    pt.Checkpoint.sweep_ns /. calls )

(* ---- the early-exit extraction scan ------------------------------------- *)

let scan_pages = 16
let sparse_marks = 8

type scan_kind = Head | Tail | Dense

(* [scan_pages] private shadow pages, each marked per [kind]:
   [sparse_marks] words at the page head, the same count at the page
   tail, or wall-to-wall timestamps.  beta = 5 puts every mark at or
   above [first_timestamp]. *)
let scan_machine kind =
  let m = Machine.create () in
  Memory.clear_dirty m.Machine.mem;
  for p = 0 to scan_pages - 1 do
    let base = Heap.base Heap.Private + (p * Memory.page_size) in
    let mark off = Shadow.access m Shadow.Write ~addr:(base + off) ~size:8 ~beta:5 in
    match kind with
    | Head -> for i = 0 to sparse_marks - 1 do mark (i * 8) done
    | Tail ->
      for i = 0 to sparse_marks - 1 do
        mark (Memory.page_size - (sparse_marks * 8) + (i * 8))
      done
    | Dense -> for i = 0 to (Memory.page_size / 8) - 1 do mark (i * 8) done
  done;
  m

(* Extraction does not mutate, so rounds share one populated machine. *)
let bench_scan kind =
  let m = scan_machine kind in
  time_ns ~rounds:(iters ()) ~reps:1 (fun () ->
      ignore
        (Checkpoint.contribution_of_worker ~worker:0 ~interval_start:0 m
           ~redux_ranges:[] ~reg_partials:[]))

(* ---- driver ------------------------------------------------------------- *)

let run () =
  Printf.printf "\n================ merge: phase-2 merge, extraction scan ================\n\n";
  let ns, fill, validate, sweep = bench_merge () in
  Printf.printf
    "merge of %d workers x %d words (half-overlapping) + %d live-in probes each: %.1f us (fill %.1f, validate %.1f, sweep %.1f)\n"
    n_workers words_per_worker live_in_per_worker (ns /. 1e3) (fill /. 1e3)
    (validate /. 1e3) (sweep /. 1e3);

  let head_ns = bench_scan Head in
  let tail_ns = bench_scan Tail in
  let dense_ns = bench_scan Dense in
  Printf.printf
    "\nextraction scan (%d pages): %d head marks %.1f us, same marks at tail %.1f us (early-exit win %.2fx), dense %.1f us\n"
    scan_pages sparse_marks (head_ns /. 1e3) (tail_ns /. 1e3)
    (tail_ns /. head_ns) (dense_ns /. 1e3);

  let json =
    let open Json in
    Obj
      [ ("experiment", String "merge");
        ("iters", Int (iters ()));
        ( "footprint",
          Obj
            [ ("workers", Int n_workers);
              ("words_per_worker", Int words_per_worker);
              ("live_in_per_worker", Int live_in_per_worker) ] );
        ( "merge_ns",
          Obj
            [ ("merge_ns", Float ns); ("fill_ns", Float fill);
              ("validate_ns", Float validate); ("sweep_ns", Float sweep) ] );
        ( "scan_ns",
          Obj
            [ ("pages", Int scan_pages); ("sparse_marks", Int sparse_marks);
              ("head_ns", Float head_ns); ("tail_ns", Float tail_ns);
              ("dense_ns", Float dense_ns);
              ("early_exit_win", Float (tail_ns /. head_ns)) ] ) ]
  in
  let oc = open_out "BENCH_merge.json" in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  print_endline "\nwrote BENCH_merge.json"
