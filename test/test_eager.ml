(* Eager in-flight validation: the conflict board's detection rules on
   hand-built worker machines and the squash/accounting semantics of
   `--validation eager` end to end.  The mode's contract against
   commit-time validation over generated programs is checked by
   test_contract. *)

open Privateer
open Privateer_machine
open Privateer_runtime
module Runtime_config = Privateer_parallel.Runtime_config

let check = Alcotest.(check bool)
let base = Privateer_ir.Heap.base Privateer_ir.Heap.Private

(* A two-worker board over fresh machines.  Accesses go through
   [Shadow.access] first, as in the worker hooks, so the board's
   precise confirmation sees real metadata. *)
let two_workers () =
  let b = Conflict_board.create () in
  let m0 = Machine.create () and m1 = Machine.create () in
  Conflict_board.new_cohort b [| m0; m1 |];
  Conflict_board.new_interval b ~interval_start:0;
  (b, m0, m1)

let touch ?(interval_start = 0) m op ~addr ~size ~iter =
  Shadow.access m op ~addr ~size ~beta:(Shadow.timestamp ~iter ~interval_start)

(* A checkpoint boundary as the commit path runs it on every worker. *)
let end_interval machines =
  List.iter
    (fun m ->
      ignore (Shadow.reset_interval m);
      Memory.clear_dirty m.Machine.mem)
    machines

let publish b ~worker ~op ~addr ~size ~iter = Conflict_board.publish b ~worker ~op ~addr ~size ~iter

let test_read_observes_write () =
  let b, m0, m1 = two_workers () in
  touch m0 Shadow.Write ~addr:base ~size:8 ~iter:2;
  check "writer alone: no conflict" true
    (publish b ~worker:0 ~op:Shadow.Write ~addr:base ~size:8 ~iter:2 = None);
  touch m1 Shadow.Read ~addr:base ~size:8 ~iter:5;
  match publish b ~worker:1 ~op:Shadow.Read ~addr:base ~size:8 ~iter:5 with
  | None -> Alcotest.fail "cross-worker read of a written word not confirmed"
  | Some c ->
    Alcotest.(check int) "pinned to the first conflicting byte" base
      c.Conflict_board.c_addr;
    (* earliest involved iteration: the writer's decoded timestamp (2),
       not the reading iteration (5) — recovery resumes at 3. *)
    Alcotest.(check int) "earliest violating iteration" 2
      c.Conflict_board.c_earliest_iter

let test_write_observes_read () =
  let b, m0, m1 = two_workers () in
  touch m1 Shadow.Read ~addr:(base + 16) ~size:4 ~iter:1;
  check "reader alone: no conflict" true
    (publish b ~worker:1 ~op:Shadow.Read ~addr:(base + 16) ~size:4 ~iter:1 = None);
  touch m0 Shadow.Write ~addr:(base + 16) ~size:4 ~iter:6;
  match publish b ~worker:0 ~op:Shadow.Write ~addr:(base + 16) ~size:4 ~iter:6 with
  | None -> Alcotest.fail "cross-worker write over a live-in read not confirmed"
  | Some c ->
    Alcotest.(check int) "pinned to the reader's live-in byte" (base + 16)
      c.Conflict_board.c_addr;
    (* The read-live-in code carries no iteration, so the writing
       iteration stands in as the earliest known. *)
    Alcotest.(check int) "writer's iteration stands in" 6
      c.Conflict_board.c_earliest_iter

let test_disjoint_pages_no_hit () =
  let b, m0, m1 = two_workers () in
  touch m0 Shadow.Write ~addr:base ~size:8 ~iter:0;
  ignore (publish b ~worker:0 ~op:Shadow.Write ~addr:base ~size:8 ~iter:0);
  touch m1 Shadow.Read ~addr:(base + 8192) ~size:8 ~iter:1;
  check "different pages: coarse filter suffices" true
    (publish b ~worker:1 ~op:Shadow.Read ~addr:(base + 8192) ~size:8 ~iter:1 = None);
  Alcotest.(check int) "no precise confirms ran" 0 (Conflict_board.hits b)

let test_same_worker_no_conflict () =
  let b, m0, _ = two_workers () in
  touch m0 Shadow.Write ~addr:base ~size:8 ~iter:0;
  ignore (publish b ~worker:0 ~op:Shadow.Write ~addr:base ~size:8 ~iter:0);
  (* Intra-iteration read of the worker's own write: Keep, no mark,
     and the board must not see worker 0 as its own adversary. *)
  touch m0 Shadow.Read ~addr:base ~size:8 ~iter:0;
  check "own write then own read: clean" true
    (publish b ~worker:0 ~op:Shadow.Read ~addr:base ~size:8 ~iter:0 = None)

let test_new_interval_clears_summaries () =
  let b, m0, m1 = two_workers () in
  touch m0 Shadow.Write ~addr:base ~size:8 ~iter:0;
  ignore (publish b ~worker:0 ~op:Shadow.Write ~addr:base ~size:8 ~iter:0);
  (* Interval boundary: the board's coarse tables are emptied.  The
     stale metadata is still on m0's pages (no reset ran here), but
     the board stays quiet.  In the engine no later layer sees such a
     write either: the merge's writer index holds one interval's
     writes (ROADMAP, "Phase 2 forgets earlier intervals"). *)
  Conflict_board.new_interval b ~interval_start:8;
  touch m1 Shadow.Read ~addr:base ~size:8 ~iter:9;
  check "previous interval's summaries are gone" true
    (publish b ~worker:1 ~op:Shadow.Read ~addr:base ~size:8 ~iter:9 = None)

let test_carried_mark_seen_in_flight () =
  (* Worker 1's live-in mark on [w] outlives the interval boundary.  In
     the next interval worker 1 only writes elsewhere on the page, which
     dirties the marked page, so worker 0's write to [w] is a conflict
     the merge will flag — and the board fires on it at the write. *)
  let b, m0, m1 = two_workers () in
  let w = base + 32 in
  touch m1 Shadow.Read ~addr:w ~size:8 ~iter:1;
  check "the read alone is clean" true
    (publish b ~worker:1 ~op:Shadow.Read ~addr:w ~size:8 ~iter:1 = None);
  end_interval [ m0; m1 ];
  Conflict_board.new_interval b ~interval_start:8;
  touch ~interval_start:8 m1 Shadow.Write ~addr:(base + 256) ~size:8 ~iter:9;
  check "a write elsewhere on the page is clean" true
    (publish b ~worker:1 ~op:Shadow.Write ~addr:(base + 256) ~size:8 ~iter:9 = None);
  touch ~interval_start:8 m0 Shadow.Write ~addr:w ~size:8 ~iter:10;
  (match publish b ~worker:0 ~op:Shadow.Write ~addr:w ~size:8 ~iter:10 with
  | None -> Alcotest.fail "write over a carried live-in mark not confirmed"
  | Some c ->
    Alcotest.(check int) "pinned to the marked word's first byte" w c.Conflict_board.c_addr;
    Alcotest.(check int) "writer's iteration stands in" 10
      c.Conflict_board.c_earliest_iter);
  let merged =
    Checkpoint.merge
      (List.mapi
         (fun worker m ->
           Checkpoint.contribution_of_worker ~worker ~interval_start:8 m ~redux_ranges:[]
             ~reg_partials:[])
         [ m0; m1 ])
  in
  check "the merge flags the same byte" true
    (merged.Checkpoint.violation = Some (Misspec.Phase2 { addr = w }))

let test_markless_read_no_confirm () =
  (* Both workers write the page, but worker 1 only reads back its own
     word: no byte is marked read-live-in, so nothing can convict and
     the precise confirm must not run. *)
  let b, m0, m1 = two_workers () in
  touch m0 Shadow.Write ~addr:base ~size:8 ~iter:0;
  ignore (publish b ~worker:0 ~op:Shadow.Write ~addr:base ~size:8 ~iter:0);
  touch m1 Shadow.Write ~addr:(base + 64) ~size:8 ~iter:1;
  ignore (publish b ~worker:1 ~op:Shadow.Write ~addr:(base + 64) ~size:8 ~iter:1);
  touch m1 Shadow.Read ~addr:(base + 64) ~size:8 ~iter:1;
  check "own word read back: clean" true
    (publish b ~worker:1 ~op:Shadow.Read ~addr:(base + 64) ~size:8 ~iter:1 = None);
  Alcotest.(check int) "no precise confirms ran" 0 (Conflict_board.hits b)

(* ---- qcheck: the coarse filter hides nothing --------------------------- *)

(* Random access scripts by three workers over two adjacent private
   pages, with interval boundaries, against the precise rules of
   docs/SPECULATION.md run on every other worker through
   [Shadow.probe] alone — no coarse filter.  Every publication's
   verdict must equal the oracle's.  A [Shadow.access] raise or a
   confirmed conflict ends the cohort with fresh machines, as the
   executor's squash does. *)
type board_step =
  | Access of { worker : int; op : Shadow.op; off : int; size : int; iter : int }
  | Boundary

let period = 8

(* Words near the start and at the end of page 0, and at the start of
   page 1: enough sharing to conflict, plus a page-crossing access. *)
let words = [ 0; 8; 16; 4088; 4096; 4104 ]

let board_step_gen =
  let open QCheck.Gen in
  let access =
    let* worker = int_range 0 2 in
    let* op = oneofl [ Shadow.Read; Shadow.Write ] in
    let* off, size =
      frequency
        [ (4, map (fun w -> (w, 8)) (oneofl words));
          (4, map2 (fun w k -> (w + k, 1)) (oneofl words) (int_range 0 7));
          (1, return (4092, 8)) ]
    in
    let* iter = int_range 0 (period - 1) in
    return (Access { worker; op; off; size; iter })
  in
  frequency [ (12, access); (1, return Boundary) ]

let print_step = function
  | Boundary -> "boundary"
  | Access { worker; op; off; size; iter } ->
    Printf.sprintf "w%d %s +%d/%d @%d" worker
      (match op with Shadow.Read -> "read" | Shadow.Write -> "write")
      off size iter

let board_script_arb =
  QCheck.make
    ~print:(fun steps -> String.concat "; " (List.map print_step steps))
    ~shrink:(fun steps yield ->
      (* Dropping any single step, not just halves, so a counterexample
         shrinks to the steps the verdict needs. *)
      QCheck.Shrink.list steps yield;
      List.iteri (fun i _ -> yield (List.filteri (fun j _ -> j <> i) steps)) steps)
    QCheck.Gen.(list_size (int_range 1 60) board_step_gen)

let oracle_verdict machines ~interval_start ~worker ~op ~addr ~size ~iter =
  let others = List.filteri (fun id _ -> id <> worker) (Array.to_list machines) in
  (* A read-live-in mark on a page dirtied this interval. *)
  let marked m x = Shadow.probe m ~addr:x = (Shadow.read_live_in, true) in
  let word_bytes b = List.init 8 (fun k -> (b land lnot 7) + k) in
  match (op : Shadow.op) with
  | Read ->
    List.find_map
      (fun b ->
        let stamps =
          List.concat_map
            (fun m ->
              List.filter_map
                (fun x ->
                  match Shadow.probe m ~addr:x with
                  | md, true when Shadow.is_timestamp md ->
                    Some (Shadow.iteration_of_timestamp ~interval_start md)
                  | _ -> None)
                (word_bytes b))
            others
        in
        if marked machines.(worker) b && stamps <> [] then
          Some { Conflict_board.c_addr = b; c_earliest_iter = List.fold_left min iter stamps }
        else None)
      (List.init size (fun k -> addr + k))
  | Write ->
    let first_word = addr land lnot 7 in
    List.find_map
      (fun word ->
        List.find_map
          (fun m ->
            Option.map
              (fun x -> { Conflict_board.c_addr = x; c_earliest_iter = iter })
              (List.find_opt (marked m) (word_bytes word)))
          others)
      (List.init ((addr + size - first_word + 7) / 8) (fun k -> first_word + (8 * k)))

let prop_board_matches_precise_rules steps =
  let b = Conflict_board.create () in
  let machines = ref [||] in
  let interval_start = ref 0 in
  let new_cohort () =
    machines := Array.init 3 (fun _ -> Machine.create ());
    Conflict_board.new_cohort b !machines;
    Conflict_board.new_interval b ~interval_start:!interval_start
  in
  new_cohort ();
  List.for_all
    (function
      | Boundary ->
        end_interval (Array.to_list !machines);
        interval_start := !interval_start + period;
        Conflict_board.new_interval b ~interval_start:!interval_start;
        true
      | Access { worker; op; off; size; iter } -> (
        let addr = base + off and iter = !interval_start + iter in
        match touch ~interval_start:!interval_start !machines.(worker) op ~addr ~size ~iter with
        | exception Misspec.Misspeculation _ ->
          new_cohort ();
          true
        | () ->
          let want =
            oracle_verdict !machines ~interval_start:!interval_start ~worker ~op ~addr
              ~size ~iter
          in
          let got = publish b ~worker ~op ~addr ~size ~iter in
          if got <> None then new_cohort ();
          got = want))
    steps

(* ---- end-to-end squash semantics -------------------------------------- *)

let clean_src =
  {|global scratch[8]; global out[60];
fn main() {
  for (k = 0; k < 60) {
    for (i = 0; i < 8) { scratch[i] = k + i; }
    out[k] = scratch[k % 8];
  }
  var s = 0;
  for (q = 0; q < 60) { s = s + out[q]; }
  print("= %d\n", s);
  return s;
}|}

let run_mode ?inject validation =
  let program = Pipeline.parse clean_src in
  let tr, _ = Pipeline.compile program in
  let config =
    { Privateer_parallel.Runtime_config.default with
      workers = 4; checkpoint_period = Some 20; inject; validation }
  in
  (Pipeline.run_sequential program, Pipeline.run_parallel ~config tr)

let test_kill_at_earliest_violating_iteration () =
  (* One injected misspeculation at iteration 5 (owned by worker 1 of
     4, cyclic).  Commit mode burns the whole 20-iteration interval;
     eager mode stops the sweep at the kill, skipping workers 2 and 3
     entirely — yet both recover exactly [0, 5] and resume at 6. *)
  let inject = Some (fun iter -> iter = 5) in
  let seq, commit = run_mode ?inject Runtime_config.Commit in
  let _, eager = run_mode ?inject Runtime_config.Eager in
  Alcotest.(check string) "commit output = sequential" seq.Pipeline.seq_output
    commit.Pipeline.par_output;
  Alcotest.(check string) "eager output = sequential" seq.Pipeline.seq_output
    eager.Pipeline.par_output;
  Alcotest.(check int) "one misspeculation either way" 1
    eager.Pipeline.stats.Stats.misspeculations;
  Alcotest.(check int) "same verdict count as commit"
    commit.Pipeline.stats.Stats.misspeculations
    eager.Pipeline.stats.Stats.misspeculations;
  Alcotest.(check int) "identical recovery extent"
    commit.Pipeline.stats.Stats.recovered_iterations
    eager.Pipeline.stats.Stats.recovered_iterations;
  Alcotest.(check int) "one eager kill" 1 eager.Pipeline.stats.Stats.eager_kills;
  check "eager squashes fewer executed iterations" true
    (eager.Pipeline.stats.Stats.squashed_iterations
    < commit.Pipeline.stats.Stats.squashed_iterations);
  check "the skipped iterations are accounted" true
    (eager.Pipeline.stats.Stats.avoided_iterations > 0);
  Alcotest.(check int) "commit mode never kills early" 0
    commit.Pipeline.stats.Stats.eager_kills

let test_no_false_kill_on_clean_intervals () =
  (* Violation-free run: the board must stay silent and eager mode
     must be indistinguishable from commit mode, cycles included. *)
  let seq, commit = run_mode Runtime_config.Commit in
  let _, eager = run_mode Runtime_config.Eager in
  Alcotest.(check string) "output = sequential" seq.Pipeline.seq_output
    eager.Pipeline.par_output;
  Alcotest.(check int) "no kills" 0 eager.Pipeline.stats.Stats.eager_kills;
  Alcotest.(check int) "no misspeculations" 0
    eager.Pipeline.stats.Stats.misspeculations;
  Alcotest.(check int) "cycles identical to commit mode"
    commit.Pipeline.par_cycles eager.Pipeline.par_cycles;
  Alcotest.(check int) "wall cycles identical"
    commit.Pipeline.stats.Stats.wall_cycles eager.Pipeline.stats.Stats.wall_cycles;
  check "the board was actually consulted" true
    (eager.Pipeline.stats.Stats.eager_checks > 0);
  Alcotest.(check int) "no precise confirms on a clean run" 0
    eager.Pipeline.stats.Stats.eager_hits

let suite =
  [ Alcotest.test_case "board: read observes earlier write" `Quick
      test_read_observes_write;
    Alcotest.test_case "board: write observes live-in read" `Quick
      test_write_observes_read;
    Alcotest.test_case "board: disjoint pages never confirm" `Quick
      test_disjoint_pages_no_hit;
    Alcotest.test_case "board: a worker is not its own adversary" `Quick
      test_same_worker_no_conflict;
    Alcotest.test_case "board: interval boundary clears summaries" `Quick
      test_new_interval_clears_summaries;
    Alcotest.test_case "board: a carried live-in mark is seen in flight" `Quick
      test_carried_mark_seen_in_flight;
    Alcotest.test_case "board: a markless read never confirms" `Quick
      test_markless_read_no_confirm;
    Alcotest.test_case "kill at earliest violating iteration" `Quick
      test_kill_at_earliest_violating_iteration;
    Alcotest.test_case "no false kill on clean intervals" `Quick
      test_no_false_kill_on_clean_intervals ]
  @ List.map QCheck_alcotest.to_alcotest
      [ QCheck.Test.make ~count:300 ~name:"board verdict = precise rules on every worker"
          board_script_arb prop_board_matches_precise_rules ]
