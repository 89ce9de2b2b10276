(* Eager in-flight validation: the conflict board's detection rules on
   hand-built worker machines, the squash/accounting semantics of
   `--validation eager` end to end, and the mode's contract — final
   output, result and violation verdicts byte-identical to commit-time
   validation (which stays on as the differential oracle), cycles
   identical whenever the run is violation-free. *)

open Privateer
open Privateer_machine
open Privateer_runtime
module Runtime_config = Privateer_parallel.Runtime_config

(* Plan-content assertions need the full profile, regardless of the
   PRIVATEER_PROFILERS environment the suite runs under. *)
let full_profile = { Runtime_config.default with profilers = [ "all" ] }

let check = Alcotest.(check bool)
let base = Privateer_ir.Heap.base Privateer_ir.Heap.Private

(* A two-worker board over fresh machines.  Accesses go through
   [Shadow.access] first, as in the worker hooks, so the board's
   precise confirmation sees real metadata. *)
let two_workers () =
  let b = Conflict_board.create () in
  let m0 = Machine.create () and m1 = Machine.create () in
  Conflict_board.new_cohort b [ (0, m0); (1, m1) ];
  Conflict_board.new_interval b ~interval_start:0;
  (b, m0, m1)

let touch m op ~addr ~size ~iter =
  Shadow.access m op ~addr ~size ~beta:(Shadow.timestamp ~iter ~interval_start:0)

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
  (* Interval boundary: the committed interval's summaries belong to
     the merge's carried index now.  The stale metadata is still on
     m0's pages (no reset ran here), but the coarse tables are empty,
     so the board stays quiet — detection deferred to the backstop. *)
  Conflict_board.new_interval b ~interval_start:8;
  touch m1 Shadow.Read ~addr:base ~size:8 ~iter:9;
  check "previous interval's summaries are gone" true
    (publish b ~worker:1 ~op:Shadow.Read ~addr:base ~size:8 ~iter:9 = None)

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
  let tr, _ = Pipeline.compile ~config:full_profile program in
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
    (eager.Pipeline.stats.Stats.eager_checks > 0)

(* ---- qcheck: eager = commit across the identity matrix ----------------- *)

(* Generated programs (Test_props templates) through both validation
   modes.  Output and result must always match; on violation-free runs
   (the generator's selected loops are clean — dependence-carrying
   bodies are rejected at selection) cycles and checkpoints must match
   too, and eager must report zero kills. *)
let prop_eager_equals_commit tmpls =
  let src = Test_props.program_of_templates tmpls in
  let program = Pipeline.parse src in
  let tr, _ = Pipeline.compile ~config:full_profile program in
  let run validation =
    let config = Runtime_config.make ~workers:5 ~validation () in
    Pipeline.run_parallel ~config tr
  in
  let commit = run Runtime_config.Commit in
  let eager = run Runtime_config.Eager in
  String.equal commit.Pipeline.par_output eager.Pipeline.par_output
  && Privateer_interp.Value.equal commit.Pipeline.par_result eager.Pipeline.par_result
  && commit.Pipeline.stats.Stats.misspeculations
     = eager.Pipeline.stats.Stats.misspeculations
  && (commit.Pipeline.stats.Stats.misspeculations > 0
     || commit.Pipeline.par_cycles = eager.Pipeline.par_cycles
        && commit.Pipeline.stats.Stats.checkpoints
           = eager.Pipeline.stats.Stats.checkpoints
        && eager.Pipeline.stats.Stats.eager_kills = 0)

(* Under injected misspeculation cycles legitimately diverge, but the
   observable behaviour (and the sequential oracle) must not. *)
let prop_eager_equals_commit_with_misspec tmpls =
  let src = Test_props.program_of_templates tmpls in
  let program = Pipeline.parse src in
  let tr, _ = Pipeline.compile ~config:full_profile program in
  let seq = Pipeline.run_sequential program in
  let run validation =
    let config =
      Runtime_config.make ~workers:3
        ~inject:(Some (fun iter -> iter mod 11 = 7))
        ~validation ()
    in
    Pipeline.run_parallel ~config tr
  in
  let commit = run Runtime_config.Commit in
  let eager = run Runtime_config.Eager in
  String.equal seq.Pipeline.seq_output commit.Pipeline.par_output
  && String.equal seq.Pipeline.seq_output eager.Pipeline.par_output
  && Privateer_interp.Value.equal commit.Pipeline.par_result
       eager.Pipeline.par_result
  && eager.Pipeline.stats.Stats.squashed_iterations
     <= commit.Pipeline.stats.Stats.squashed_iterations

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
    Alcotest.test_case "kill at earliest violating iteration" `Quick
      test_kill_at_earliest_violating_iteration;
    Alcotest.test_case "no false kill on clean intervals" `Quick
      test_no_false_kill_on_clean_intervals ]
  @ List.map QCheck_alcotest.to_alcotest
      [ QCheck.Test.make ~count:40 ~name:"eager = commit"
          Test_props.body_arb prop_eager_equals_commit;
        QCheck.Test.make ~count:25 ~name:"eager = commit + oracle under misspec"
          Test_props.body_arb prop_eager_equals_commit_with_misspec ]
