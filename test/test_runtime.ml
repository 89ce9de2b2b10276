(* Unit tests for the speculative runtime: the Table 2 metadata state
   machine (exhaustively), deferred I/O, and checkpoint merging. *)

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

let test_checkpoint_contribution () =
  let base = Heap.base Heap.Private in
  let m = worker_with_writes ~interval_start:0 [ (base + 8, 11, 0); (base + 16, 22, 1) ] in
  let c =
    Checkpoint.contribution_of_worker ~worker:0 ~interval_start:0 m ~redux_ranges:[]
      ~reg_partials:[]
  in
  check_int "two words contributed" 2 (Hashtbl.length c.writes);
  (match Hashtbl.find_opt c.writes (base + 8) with
  | Some { iter = 0; bits; _ } -> check_int "value" 11 (Int64.to_int bits)
  | _ -> Alcotest.fail "missing write record");
  check "pages counted" true (c.pages_touched > 0)

let test_checkpoint_last_writer_wins () =
  let base = Heap.base Heap.Private in
  (* Worker 0 writes in iteration 0; worker 1 writes the same word in
     iteration 3: the later iteration's value must win. *)
  let w0 = worker_with_writes ~interval_start:0 [ (base + 8, 100, 0) ] in
  let w1 = worker_with_writes ~interval_start:0 [ (base + 8, 300, 3) ] in
  let c0 =
    Checkpoint.contribution_of_worker ~worker:0 ~interval_start:0 w0 ~redux_ranges:[]
      ~reg_partials:[]
  in
  let c1 =
    Checkpoint.contribution_of_worker ~worker:1 ~interval_start:0 w1 ~redux_ranges:[]
      ~reg_partials:[]
  in
  let merged = Checkpoint.merge [ c0; c1 ] in
  check "no violation" true (merged.violation = None);
  (match Hashtbl.find_opt merged.overlay (base + 8) with
  | Some { iter = 3; bits; _ } -> check_int "iteration 3 wins" 300 (Int64.to_int bits)
  | _ -> Alcotest.fail "missing merged word");
  (* Applying the overlay installs the winner. *)
  let main = Machine.create () in
  Checkpoint.apply_overlay main merged;
  check_int "installed" 300 (Machine.get_int main (base + 8))

let test_checkpoint_phase2_violation () =
  let base = Heap.base Heap.Private in
  (* Worker 0 reads the byte as live-in; worker 1 wrote it: the
     phase-2 validation must flag the conflict. *)
  let w0 = Machine.create () in
  Memory.clear_dirty w0.Machine.mem;
  Shadow.access w0 Shadow.Read ~addr:(base + 8) ~size:8 ~beta:3;
  let w1 = worker_with_writes ~interval_start:0 [ (base + 8, 5, 1) ] in
  let c0 =
    Checkpoint.contribution_of_worker ~worker:0 ~interval_start:0 w0 ~redux_ranges:[]
      ~reg_partials:[]
  in
  let c1 =
    Checkpoint.contribution_of_worker ~worker:1 ~interval_start:0 w1 ~redux_ranges:[]
      ~reg_partials:[]
  in
  let merged = Checkpoint.merge [ c0; c1 ] in
  check "phase-2 conflict detected" true
    (match merged.violation with Some (Misspec.Phase2 _) -> true | _ -> false)

let test_checkpoint_float_preserved () =
  let base = Heap.base Heap.Private in
  let m = Machine.create () in
  Memory.clear_dirty m.Machine.mem;
  Shadow.access m Shadow.Write ~addr:(base + 8) ~size:8 ~beta:3;
  Machine.set_float m (base + 8) 6.25;
  let c =
    Checkpoint.contribution_of_worker ~worker:0 ~interval_start:0 m ~redux_ranges:[]
      ~reg_partials:[]
  in
  let merged = Checkpoint.merge [ c ] in
  let main = Machine.create () in
  Checkpoint.apply_overlay main merged;
  Alcotest.(check (float 0.0)) "float survives the merge" 6.25
    (Machine.get_float main (base + 8))

let test_checkpoint_redux_merge () =
  let base_addr = Heap.base Heap.Redux + 16 in
  let ranges = [ (base_addr, 8, Ast.Add) ] in
  let mk_worker partial =
    let m = Machine.create () in
    Machine.set_int m base_addr partial;
    Memory.clear_dirty m.Machine.mem;
    Checkpoint.contribution_of_worker ~worker:0 ~interval_start:0 m ~redux_ranges:ranges
      ~reg_partials:[]
  in
  let c0 = mk_worker 10 and c1 = mk_worker 32 in
  let merged =
    Checkpoint.merge_redux ~redux_ranges:ranges
      ~base:[ (base_addr, Privateer_interp.Value.VInt 100) ] [ c0; c1 ]
  in
  match merged with
  | [ (_, Privateer_interp.Value.VInt 142) ] -> ()
  | _ -> Alcotest.fail "expected 100 + 10 + 32 = 142"

let test_checkpoint_reg_partials () =
  let mk p =
    { Checkpoint.worker = 0; writes = Hashtbl.create 1; live_in_reads = Hashtbl.create 1;
      redux_words = []; reg_partials = [ ("terr", Privateer_interp.Value.VFloat p) ];
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
    Alcotest.test_case "checkpoint preserves floats" `Quick test_checkpoint_float_preserved;
    Alcotest.test_case "checkpoint reduction merge" `Quick test_checkpoint_redux_merge;
    Alcotest.test_case "checkpoint register partials" `Quick test_checkpoint_reg_partials ]
