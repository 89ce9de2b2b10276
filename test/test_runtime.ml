(* Unit tests for the speculative runtime: the Table 2 metadata state
   machine (exhaustively), deferred I/O, checkpoint merging, and
   phase 2, the one validator of cross-worker conflicts in either
   validation mode. *)

open Privateer_ir
open Privateer_machine
open Privateer_runtime

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---- Table 2, exhaustively -------------------------------------------- *)

(* The paper's transition table, written out independently of the
   implementation:

   Op     before              after
   Read   0                   2        (read a live-in value)
   Read   1                   misspec  (loop-carried flow)
   Read   2                   2
   Read   a, 2 < a < beta     misspec  (loop-carried flow)
   Read   beta                beta     (intra-iteration flow)
   Write  0                   beta
   Write  1                   beta
   Write  2                   misspec  (conservative false positive)
   Write  a, 2 < a <= beta    beta *)

let oracle op current beta =
  match op with
  | Shadow.Read ->
    if current = 0 then `Update 2
    else if current = 1 then `Misspec
    else if current = 2 then `Keep
    else if current < beta then `Misspec
    else `Keep
  | Shadow.Write -> if current = 2 then `Misspec else `Update beta

let test_table2_exhaustive () =
  (* Every metadata byte value x every legal beta x both ops. *)
  let cases = ref 0 in
  List.iter
    (fun op ->
      for beta = Shadow.first_timestamp to 255 do
        for current = 0 to beta do
          incr cases;
          let got = Shadow.transition op ~current ~beta in
          let want = oracle op current beta in
          let agree =
            match (got, want) with
            | Shadow.Keep, `Keep -> true
            | Shadow.Update m, `Update m' -> m = m'
            | Shadow.Fail _, `Misspec -> true
            | _ -> false
          in
          if not agree then
            Alcotest.fail
              (Printf.sprintf "disagreement at op=%s current=%d beta=%d"
                 (match op with Shadow.Read -> "R" | Shadow.Write -> "W")
                 current beta)
        done
      done)
    [ Shadow.Read; Shadow.Write ];
  check "covered all cases" true (!cases > 60_000)

let test_shadow_access_on_machine () =
  let m = Machine.create () in
  let addr = Heap.base Heap.Private + 64 in
  let beta = Shadow.timestamp ~iter:5 ~interval_start:3 in
  check_int "beta encoding" 5 beta;
  (* Write then read in the same iteration: fine. *)
  Shadow.access m Shadow.Write ~addr ~size:8 ~beta;
  Shadow.access m Shadow.Read ~addr ~size:8 ~beta;
  (* Metadata lives at the OR-ed shadow address. *)
  check_int "metadata byte" beta (Machine.read_byte m (Heap.shadow_of_private addr));
  (* Reading it in a later iteration is a privacy violation. *)
  let beta' = beta + 1 in
  check "cross-iteration read misspeculates" true
    (try
       Shadow.access m Shadow.Read ~addr ~size:8 ~beta:beta';
       false
     with Misspec.Misspeculation (Misspec.Privacy_flow _) -> true)

let test_shadow_read_live_in_then_write () =
  let m = Machine.create () in
  let addr = Heap.base Heap.Private + 128 in
  Shadow.access m Shadow.Read ~addr ~size:1 ~beta:4;
  check_int "marked read-live-in" Shadow.read_live_in
    (Machine.read_byte m (Heap.shadow_of_private addr));
  check "overwrite of read-live-in is conservative misspec" true
    (try
       Shadow.access m Shadow.Write ~addr ~size:1 ~beta:4;
       false
     with Misspec.Misspeculation (Misspec.Privacy_conservative _) -> true)

let test_shadow_reset_interval () =
  let m = Machine.create () in
  let a1 = Heap.base Heap.Private + 8 in
  let a2 = Heap.base Heap.Private + 16 in
  Shadow.access m Shadow.Write ~addr:a1 ~size:8 ~beta:10;
  Shadow.access m Shadow.Read ~addr:a2 ~size:1 ~beta:10;
  let pages = Shadow.reset_interval m in
  check "scanned at least one shadow page" true (pages >= 1);
  check_int "timestamp became old-write" Shadow.old_write
    (Machine.read_byte m (Heap.shadow_of_private a1));
  check_int "read-live-in preserved" Shadow.read_live_in
    (Machine.read_byte m (Heap.shadow_of_private a2));
  (* A later-interval read of the old write now misspeculates. *)
  check "read of old-write misspeculates" true
    (try
       Shadow.access m Shadow.Read ~addr:a1 ~size:8 ~beta:5;
       false
     with Misspec.Misspeculation (Misspec.Privacy_flow _) -> true)

let test_max_interval_fits_byte () =
  check_int "253 iterations per interval" 253 Shadow.max_interval;
  check_int "last timestamp fits a byte" 255
    (Shadow.timestamp ~iter:252 ~interval_start:0)

(* ---- deferred I/O ------------------------------------------------------ *)

let test_deferred_io_ordering () =
  let io = Deferred_io.create () in
  Deferred_io.emit io ~iter:3 "c";
  Deferred_io.emit io ~iter:1 "a";
  Deferred_io.emit io ~iter:1 "A";
  Deferred_io.emit io ~iter:2 "b";
  let buf = Buffer.create 8 in
  Deferred_io.commit_range io ~lo:0 ~hi:4 ~sink:(Buffer.add_string buf);
  Alcotest.(check string) "iteration order, intra-iteration order" "aAbc"
    (Buffer.contents buf);
  check_int "drained" 0 (Deferred_io.pending io)

let test_deferred_io_discard () =
  let io = Deferred_io.create () in
  Deferred_io.emit io ~iter:1 "a";
  Deferred_io.emit io ~iter:5 "b";
  Deferred_io.discard_from io ~from:3;
  let buf = Buffer.create 8 in
  Deferred_io.commit_range io ~lo:0 ~hi:10 ~sink:(Buffer.add_string buf);
  Alcotest.(check string) "squashed output discarded" "a" (Buffer.contents buf)

(* ---- checkpoints ------------------------------------------------------- *)

(* Build a worker machine that wrote [writes] (addr, value, iter) to
   the private heap with shadow metadata, as the executor would. *)
let worker_with_writes ~interval_start writes =
  let m = Machine.create () in
  Memory.clear_dirty m.Machine.mem;
  List.iter
    (fun (addr, value, iter) ->
      let beta = Shadow.timestamp ~iter ~interval_start in
      Shadow.access m Shadow.Write ~addr ~size:8 ~beta;
      Machine.set_int m addr value)
    writes;
  m

(* The interval's table built from [machines], worker [i] being the
   [i]-th, as the commit path extracts a cohort. *)
let checkpoint ?(redux_ranges = []) machines =
  Checkpoint.extract
    (List.mapi
       (fun worker m ->
         { Checkpoint.req_worker = worker; req_machine = m; req_redux_ranges = redux_ranges;
           req_reg_partials = [] })
       machines)

(* A table word's value, and whether all eight bytes carry [stamp]. *)
let word_value (w : Checkpoint.word) = Int64.to_int (Bytes.get_int64_le w.bits 0)
let stamped_at stamp (w : Checkpoint.word) = Bytes.for_all (fun c -> Char.code c = stamp) w.stamps

let test_checkpoint_contribution () =
  let base = Heap.base Heap.Private in
  let m = worker_with_writes ~interval_start:0 [ (base + 8, 11, 0); (base + 16, 22, 1) ] in
  let cp = checkpoint [ m ] in
  check_int "two words contributed" 2 (Hashtbl.length cp.words);
  (match Hashtbl.find_opt cp.words (base + 8) with
  | Some w when stamped_at (Shadow.timestamp ~iter:0 ~interval_start:0) w ->
    check_int "value" 11 (word_value w)
  | _ -> Alcotest.fail "missing write record");
  check "pages counted" true (cp.total_pages > 0)

let test_checkpoint_last_writer_wins () =
  let base = Heap.base Heap.Private in
  (* Worker 0 writes in iteration 0; worker 1 writes the same word in
     iteration 3: the later iteration's value must win. *)
  let w0 = worker_with_writes ~interval_start:0 [ (base + 8, 100, 0) ] in
  let w1 = worker_with_writes ~interval_start:0 [ (base + 8, 300, 3) ] in
  let cp = checkpoint [ w0; w1 ] in
  check "no violation" true (Checkpoint.validate cp = None);
  (match Hashtbl.find_opt cp.words (base + 8) with
  | Some w when stamped_at (Shadow.timestamp ~iter:3 ~interval_start:0) w ->
    check_int "iteration 3 wins" 300 (word_value w)
  | _ -> Alcotest.fail "missing merged word");
  (* Installing the table installs the winner. *)
  let main = Machine.create () in
  Checkpoint.apply_overlay main cp;
  check_int "installed" 300 (Machine.get_int main (base + 8))

let test_checkpoint_phase2_violation () =
  let base = Heap.base Heap.Private in
  (* Worker 0 reads the byte as live-in; worker 1 wrote it: the
     phase-2 validation must flag the conflict. *)
  let w0 = Machine.create () in
  Memory.clear_dirty w0.Machine.mem;
  Shadow.access w0 Shadow.Read ~addr:(base + 8) ~size:8 ~beta:3;
  let w1 = worker_with_writes ~interval_start:0 [ (base + 8, 5, 1) ] in
  check "phase-2 conflict detected" true
    (match Checkpoint.validate (checkpoint [ w0; w1 ]) with
    | Some (Misspec.Phase2 _) -> true
    | _ -> false)

(* ---- phase 2: the one cross-worker validator ---------------------------- *)

(* Each worker below runs its accesses through [Shadow.access], as the
   worker hooks do, and the cohort is extracted as the commit path
   extracts it; the verdict is phase 2's. *)
let fresh_worker () =
  let m = Machine.create () in
  Memory.clear_dirty m.Machine.mem;
  m

let touch ?(interval_start = 0) m op ~addr ~size ~iter =
  Shadow.access m op ~addr ~size ~beta:(Shadow.timestamp ~iter ~interval_start)

let phase2 machines = Checkpoint.validate (checkpoint machines)

let expect_phase2 msg want violation =
  match violation with
  | Some (Misspec.Phase2 { addr }) -> check_int msg want addr
  | Some r -> Alcotest.fail (msg ^ ": unexpected " ^ Misspec.to_string r)
  | None -> Alcotest.fail (msg ^ ": no phase-2 violation")

let test_phase2_any_iteration_order () =
  (* Worker 0 writes a word at iteration 2; worker 1 reads four of its
     bytes as live-in at iteration 5 (a flow it would have seen
     sequentially) or at iteration 1 (a read before the write).  The
     one-byte metadata keeps no order between workers, so phase 2
     convicts both, pinned to the first byte read. *)
  let base = Heap.base Heap.Private in
  List.iter
    (fun read_iter ->
      let w0 = fresh_worker () and w1 = fresh_worker () in
      touch w0 Shadow.Write ~addr:base ~size:8 ~iter:2;
      touch w1 Shadow.Read ~addr:(base + 4) ~size:4 ~iter:read_iter;
      expect_phase2
        (Printf.sprintf "read at iteration %d" read_iter)
        (base + 4) (phase2 [ w0; w1 ]))
    [ 5; 1 ]

let test_phase2_word_granular () =
  (* Live-in marks are per byte, writes per word: a live-in byte
     convicts a write to its own word only, and a read spanning two
     words is pinned to its first byte on a written one. *)
  let base = Heap.base Heap.Private in
  let writer = fresh_worker () in
  touch writer Shadow.Write ~addr:base ~size:8 ~iter:0;
  touch writer Shadow.Write ~addr:(base + 16) ~size:8 ~iter:1;
  let reader addr =
    let m = fresh_worker () in
    touch m Shadow.Read ~addr ~size:8 ~iter:2;
    phase2 [ writer; m ]
  in
  check "the word between the writes is clean" true (reader (base + 8) = None);
  expect_phase2 "read across into a written word" (base + 16) (reader (base + 12))

let test_phase2_own_writes_exempt () =
  (* Worker 0 reads byte 0 of a word as live-in and writes byte 1 of
     it: its own write is no conflict.  A second worker writing the
     same word is. *)
  let base = Heap.base Heap.Private in
  let w0 = fresh_worker () and w1 = fresh_worker () and w2 = fresh_worker () in
  touch w0 Shadow.Read ~addr:base ~size:1 ~iter:0;
  touch w0 Shadow.Write ~addr:(base + 1) ~size:1 ~iter:0;
  touch w1 Shadow.Write ~addr:(base + 64) ~size:8 ~iter:1;
  touch w2 Shadow.Write ~addr:(base + 2) ~size:1 ~iter:2;
  check "own write on the read word: clean" true (phase2 [ w0; w1 ] = None);
  expect_phase2 "another worker's write to the word" base (phase2 [ w0; w1; w2 ])

let test_phase2_read_back_leaves_no_mark () =
  (* Worker 1 writes a word and reads it back in the same iteration
     (intra-iteration flow: Keep, no mark).  Worker 0 writes the same
     word at an earlier iteration, so the word has two writers, yet
     nothing was read as live-in: the merge is clean and the later
     iteration's value wins. *)
  let base = Heap.base Heap.Private in
  let w0 = fresh_worker () and w1 = fresh_worker () in
  touch w0 Shadow.Write ~addr:base ~size:8 ~iter:0;
  Machine.set_int w0 base 10;
  touch w1 Shadow.Write ~addr:base ~size:8 ~iter:1;
  Machine.set_int w1 base 11;
  touch w1 Shadow.Read ~addr:base ~size:8 ~iter:1;
  let cp = checkpoint [ w0; w1 ] in
  check_int "no live-in byte recorded" 0
    (List.length (List.nth cp.contributions 1).Checkpoint.live_in);
  check "no violation" true (Checkpoint.validate cp = None);
  match Hashtbl.find_opt cp.words base with
  | Some w when stamped_at (Shadow.timestamp ~iter:1 ~interval_start:0) w ->
    check_int "iteration 1 wins" 11 (word_value w)
  | _ -> Alcotest.fail "missing merged word"

let test_phase2_carried_mark () =
  (* Worker 1's live-in mark on [w] outlives the interval boundary (the
     reset keeps read-live-in marks).  In the next interval worker 1
     either writes elsewhere on the page, which dirties the marked
     shadow page, or only re-reads [w] (Keep), which leaves it clean.
     Either way extraction sees the mark again, and worker 0's write to
     [w] is convicted at the next merge. *)
  let base = Heap.base Heap.Private in
  let w = base + 32 in
  List.iter
    (fun (label, next_access, dirty) ->
      let w0 = fresh_worker () and w1 = fresh_worker () in
      touch w1 Shadow.Read ~addr:w ~size:8 ~iter:1;
      check (label ^ ": the first interval is clean") true (phase2 [ w0; w1 ] = None);
      List.iter
        (fun m ->
          ignore (Shadow.reset_interval m);
          Memory.clear_dirty m.Machine.mem)
        [ w0; w1 ];
      next_access w1;
      touch ~interval_start:8 w0 Shadow.Write ~addr:w ~size:8 ~iter:10;
      check (label ^ ": marked page dirty") dirty
        (Memory.dirty_pages ~heap:Heap.Shadow w1.Machine.mem <> []);
      expect_phase2 (label ^ ": write over the carried mark") w (phase2 [ w0; w1 ]))
    [ ( "write on the page",
        (fun m -> touch ~interval_start:8 m Shadow.Write ~addr:(base + 256) ~size:8 ~iter:9),
        true );
      ("re-read only", (fun m -> touch ~interval_start:8 m Shadow.Read ~addr:w ~size:8 ~iter:9), false)
    ]

let test_checkpoint_float_preserved () =
  let base = Heap.base Heap.Private in
  let m = Machine.create () in
  Memory.clear_dirty m.Machine.mem;
  Shadow.access m Shadow.Write ~addr:(base + 8) ~size:8 ~beta:3;
  Machine.set_float m (base + 8) 6.25;
  let main = Machine.create () in
  Checkpoint.apply_overlay main (checkpoint [ m ]);
  Alcotest.(check (float 0.0)) "float survives the merge" 6.25
    (Machine.get_float main (base + 8))

let test_checkpoint_redux_merge () =
  let base_addr = Heap.base Heap.Redux + 16 in
  let ranges = [ (base_addr, 8, Ast.Add) ] in
  let mk_worker partial =
    let m = Machine.create () in
    Machine.set_int m base_addr partial;
    Memory.clear_dirty m.Machine.mem;
    m
  in
  let merged =
    Checkpoint.merge_redux ~redux_ranges:ranges
      ~base:[ (base_addr, Privateer_interp.Value.VInt 100) ]
      (checkpoint ~redux_ranges:ranges [ mk_worker 10; mk_worker 32 ]).contributions
  in
  match merged with
  | [ (_, Privateer_interp.Value.VInt 142) ] -> ()
  | _ -> Alcotest.fail "expected 100 + 10 + 32 = 142"

(* ---- reduction fold, property ------------------------------------------ *)

(* [merge_redux] against the per-word left fold: each word's partials
   folded over its base in contribution order with
   [Reduction.merge_values], boxed, one contribution at a time (each
   one's words in range order), which fixes the first failing step.
   One to three disjoint ranges in the reduction heap (at
   most 300 words, byte sizes not always a multiple of 8, sometimes
   crossing a page), any reduction operator, 0-24 workers whose
   partials are written to real machines and extracted.  Bases and
   partials of either tag meet every operator: a float operator widens
   an int, and an int operator on a float raises.  Per case, an int
   operator's values are floats with probability 0, 1/50 or 1/4, so
   clean folds and failing ones both occur.  The fold must return the
   same values, floats compared by their bits (a fold in any other
   order fails), or raise the same [Runtime_error] text. *)
type redux_case = {
  rc_ranges : (int * int * Ast.binop) list;
  rc_base : Privateer_interp.Value.t array; (* per word, range order *)
  rc_partials : Privateer_interp.Value.t array list; (* per worker *)
}

let range_words ranges =
  List.concat_map
    (fun (base, size, op) -> List.init ((size + 7) / 8) (fun w -> (base + (8 * w), op)))
    ranges

let redux_case_gen =
  let open QCheck.Gen in
  let float_v =
    map
      (fun f -> Privateer_interp.Value.VFloat f)
      (frequency
         [ (20, float_range (-1e3) 1e3); (1, oneofl [ Float.nan; Float.infinity; -0.0 ]) ])
  in
  let int_v = map (fun i -> Privateer_interp.Value.VInt i) int in
  let value ~float_per_mille (op : Ast.binop) =
    match op with
    | Fadd | Fmul -> oneof [ float_v; int_v ]
    | _ -> frequency [ (float_per_mille, float_v); (1000 - float_per_mille, int_v) ]
  in
  let* float_per_mille = oneofl [ 0; 20; 250 ] in
  let* shapes =
    list_size (int_range 1 3)
      (triple (int_range 1 100) (int_range 0 7)
         (oneofl Ast.[ Add; Mul; Band; Bor; Bxor; Fadd; Fmul ]))
  in
  let* start = int_bound 600 in
  let* gaps = list_repeat (List.length shapes) (int_range 0 64) in
  let ranges, _ =
    List.fold_left2
      (fun (acc, next) (words, slack, op) gap ->
        let base = next + (8 * gap) in
        ((base, (8 * words) - slack, op) :: acc, base + (8 * words)))
      ([], Heap.base Heap.Redux + (8 * start))
      shapes gaps
  in
  let ranges = List.rev ranges in
  let per_word =
    map Array.of_list
      (flatten_l
         (List.map (fun (_, op) -> value ~float_per_mille op) (range_words ranges)))
  in
  let* base = per_word in
  let* partials = list_size (int_range 0 24) per_word in
  return { rc_ranges = ranges; rc_base = base; rc_partials = partials }

let redux_case_arb =
  QCheck.make
    ~print:(fun rc ->
      Printf.sprintf "%d ranges (%s), %d workers" (List.length rc.rc_ranges)
        (String.concat "; "
           (List.map (fun (b, size, _) -> Printf.sprintf "0x%x+%d" b size) rc.rc_ranges))
        (List.length rc.rc_partials))
    redux_case_gen

let prop_merge_redux_left_fold rc =
  let words = Array.of_list (range_words rc.rc_ranges) in
  let worker partial =
    let m = Machine.create () in
    Array.iteri
      (fun i (addr, _) ->
        let bits, is_float = Privateer_interp.Value.to_bits partial.(i) in
        Machine.write_word m addr bits is_float)
      words;
    m
  in
  let contribs =
    (checkpoint ~redux_ranges:rc.rc_ranges (List.map worker rc.rc_partials)).contributions
  in
  let result f =
    match f () with
    | v -> Ok v
    | exception Privateer_interp.Value.Runtime_error msg -> Error msg
  in
  let expected =
    result (fun () ->
        let acc = Array.copy rc.rc_base in
        List.iter
          (fun partial ->
            Array.iteri
              (fun i (_, op) ->
                acc.(i) <- Privateer_analysis.Reduction.merge_values op acc.(i) partial.(i))
              words)
          rc.rc_partials;
        Array.to_list (Array.mapi (fun i (addr, _) -> (addr, acc.(i))) words))
  in
  let got =
    result (fun () ->
        Checkpoint.merge_redux ~redux_ranges:rc.rc_ranges
          ~base:(Array.to_list (Array.mapi (fun i (addr, _) -> (addr, rc.rc_base.(i))) words))
          contribs)
  in
  match (expected, got) with
  | Ok e, Ok g ->
    List.equal
      (fun (a, v) (b, w) ->
        a = b && Privateer_interp.Value.to_bits v = Privateer_interp.Value.to_bits w)
      e g
  | Error e, Error g -> String.equal e g
  | Ok _, Error _ | Error _, Ok _ -> false

let test_checkpoint_reg_partials () =
  let mk p =
    { Checkpoint.worker = 0; live_in = [];
      redux_words = Bytes.empty; reg_partials = [ ("terr", Privateer_interp.Value.VFloat p) ];
      pages_touched = 0 }
  in
  match
    Checkpoint.merge_reg_partials ~ops:[ ("terr", Ast.Fadd) ]
      ~base:[ ("terr", Privateer_interp.Value.VFloat 1.0) ] [ mk 2.0; mk 3.5 ]
  with
  | [ ("terr", Privateer_interp.Value.VFloat v) ] ->
    Alcotest.(check (float 1e-12)) "merged" 6.5 v
  | _ -> Alcotest.fail "expected merged register partial"

let suite =
  [ Alcotest.test_case "Table 2 transitions (exhaustive)" `Quick test_table2_exhaustive;
    Alcotest.test_case "shadow access on machine" `Quick test_shadow_access_on_machine;
    Alcotest.test_case "read-live-in then write" `Quick test_shadow_read_live_in_then_write;
    Alcotest.test_case "interval metadata reset" `Quick test_shadow_reset_interval;
    Alcotest.test_case "timestamps fit one byte" `Quick test_max_interval_fits_byte;
    Alcotest.test_case "deferred I/O ordering" `Quick test_deferred_io_ordering;
    Alcotest.test_case "deferred I/O discard" `Quick test_deferred_io_discard;
    Alcotest.test_case "checkpoint contribution" `Quick test_checkpoint_contribution;
    Alcotest.test_case "checkpoint last-writer-wins" `Quick test_checkpoint_last_writer_wins;
    Alcotest.test_case "checkpoint phase-2 violation" `Quick test_checkpoint_phase2_violation;
    Alcotest.test_case "phase 2: any iteration order conflicts" `Quick
      test_phase2_any_iteration_order;
    Alcotest.test_case "phase 2: live-in bytes convict their word" `Quick
      test_phase2_word_granular;
    Alcotest.test_case "phase 2: a worker's own writes are exempt" `Quick
      test_phase2_own_writes_exempt;
    Alcotest.test_case "phase 2: a read-back leaves no mark" `Quick
      test_phase2_read_back_leaves_no_mark;
    Alcotest.test_case "phase 2: a carried live-in mark convicts" `Quick
      test_phase2_carried_mark;
    Alcotest.test_case "checkpoint preserves floats" `Quick test_checkpoint_float_preserved;
    Alcotest.test_case "checkpoint reduction merge" `Quick test_checkpoint_redux_merge;
    Alcotest.test_case "checkpoint register partials" `Quick test_checkpoint_reg_partials;
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:100 ~name:"merge_redux = per-word left fold" redux_case_arb
         prop_merge_redux_left_fold) ]
