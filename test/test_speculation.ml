(* End-to-end speculation-safety tests: programs whose *reference*
   input behaves differently from the training input, so speculation
   is genuinely wrong at runtime.  The system must detect every case
   (separation, control, value, lifetime) and recover to exactly
   sequential behaviour — the paper's core soundness claim — in both
   validation modes: each program runs as a cell of the contract
   harness (Test_contract.unit_cell).  Four cells also pin what
   `--validation eager` does: stop the sweep at each misspeculation a
   worker raises itself, change nothing on a clean run, and leave a
   cross-worker conflict to phase 2, as commit mode does. *)

open Privateer

let check = Alcotest.(check bool)

let config ?(workers = 4) () =
  { Privateer_parallel.Runtime_config.default with workers }

(* Train with mode=0, run with mode=1, through the contract harness in
   both validation modes: recovered output and result equal the
   sequential run's.  Returns the commit run. *)
let train_ref_divergence ?workers src =
  let tr, _, par, _ =
    Test_contract.unit_cell src (config ?workers ())
      ~train:(fun st -> Pipeline.set_global st "mode" 0)
      ~run:(fun st -> Pipeline.set_global st "mode" 1)
  in
  check "trained program planned a loop" true (tr.selection.plans <> []);
  par

(* What the workers raise themselves, as (iteration, reason), on the
   first invocation of the first planned loop when [src] is trained
   with mode=0 and run with mode=1: [workers] workers share one
   snapshot of the main process, and each runs its cyclic slice in
   order up to its first misspeculation, as in one commit-mode
   interval.  Returns the transformed program too. *)
let worker_misspecs ?(workers = 1) src =
  let open Privateer_parallel in
  let tr, _ =
    Pipeline.compile ~setup:(fun st -> Pipeline.set_global st "mode" 0) (Pipeline.parse src)
  in
  let cfg = Runtime_config.default in
  let st = Privateer_interp.Interp.create ~cost:cfg.costs.base tr.program in
  Pipeline.set_global st "mode" 1;
  let raised = ref [] and ran = ref false in
  st.parallel_for <-
    Some
      (fun st fr loop ~init ~limit ->
        (match
           ( !ran,
             Privateer_transform.Manifest.loop_spec tr.manifest
               (Privateer_interp.Interp.loop_id loop) )
         with
        | false, Some spec ->
          ran := true;
          let env =
            { Worker.cm = cfg.costs; stats = Privateer_runtime.Stats.create ();
              sites = Worker.sites tr.manifest; validate = true; inject = None }
          in
          let predictions = Worker.resolve_predictions st spec.assignment.predictions in
          let io = Privateer_runtime.Deferred_io.create () in
          List.iter
            (fun (w : Worker.t) ->
              let rec sweep iter =
                if iter < limit - init then begin
                  Worker.exec_iteration env w loop ~init_value:init ~iter ~interval_start:0
                    ~predictions ~io;
                  sweep (iter + workers)
                end
              in
              try sweep w.w_id
              with Worker.Worker_misspec (iter, r) -> raised := (iter, r) :: !raised)
            (Worker.spawn env st fr spec (Worker.redux_ranges st spec) workers ~now:0)
        | _ -> ());
        false);
  ignore (Privateer_interp.Interp.run_entry st);
  (tr, List.rev !raised)

(* The error path never runs in training (control-speculated away)
   but runs for some ref iterations: the worker's branch hook must
   misspeculate and recovery must execute the original cold code.  The
   cold branch sits in the loop body, or in a callee. *)
let control_programs =
  [ ( "inline",
      {|global mode; global scratch[8]; global err_count;
fn main() {
  err_count = 0;
  for (k = 0; k < 60) {
    scratch[0] = k;
    if (mode == 1 && k % 13 == 5) {
      err_count = err_count + 1;   // cold in training
    }
  }
  print("errs %d\n", err_count);
  return err_count;
}|} );
    ( "callee",
      {|global mode; global scratch[8]; global out[100]; global err_count;
fn note(k) {
  if (mode == 1 && k % 7 == 3) {
    err_count = err_count + k;     // cold in training
    return 1;
  }
  return 0;
}
fn main() {
  err_count = 0;
  for (k = 0; k < 100) {
    scratch[0] = k * 3;
    out[k] = scratch[0] + note(k);
  }
  var s = err_count;
  for (q = 0; q < 100) { s = s + out[q]; }
  print("errs %d\n", err_count);
  return s;
}|} ) ]

(* Each program's simulated figures at workers 1, 4, 8 and 24 and
   checkpoint auto and 4, in both validation modes: cycles,
   misspeculation, recovered and squashed iteration counts and the
   run's fingerprint.  A control misspeculation that fires a cycle
   earlier or later, or in another iteration, moves them. *)
let control_pins =
  [ ("inline workers=1 checkpoint=auto commit",
      "cycles=13837 misspeculations=5 recovered=18 squashed=18 79b928edcd9861794c0292a49f18a619");
    ("inline workers=1 checkpoint=auto eager",
      "cycles=13837 misspeculations=5 recovered=18 squashed=18 79b928edcd9861794c0292a49f18a619");
    ("inline workers=1 checkpoint=4 commit",
      "cycles=20677 misspeculations=5 recovered=6 squashed=6 cf2d425d38db812d3b8d22f9be8200a2");
    ("inline workers=1 checkpoint=4 eager",
      "cycles=20677 misspeculations=5 recovered=6 squashed=6 cf2d425d38db812d3b8d22f9be8200a2");
    ("inline workers=4 checkpoint=auto commit",
      "cycles=34297 misspeculations=5 recovered=18 squashed=41 1ee2700054ccc902847a5ae84d8bb32d");
    ("inline workers=4 checkpoint=auto eager",
      "cycles=34069 misspeculations=5 recovered=18 squashed=9 f595119d310cd2670c4d658b5dde0c00");
    ("inline workers=4 checkpoint=4 commit",
      "cycles=41080 misspeculations=5 recovered=6 squashed=19 48ed700219727e1c00bf4c54cd82de2d");
    ("inline workers=4 checkpoint=4 eager",
      "cycles=41004 misspeculations=5 recovered=6 squashed=6 130f4961d674b151e91bb540a9f22e4c");
    ("inline workers=8 checkpoint=auto commit",
      "cycles=62869 misspeculations=5 recovered=18 squashed=45 7270e9ebb15178558c2f3f231dddc134");
    ("inline workers=8 checkpoint=auto eager",
      "cycles=62793 misspeculations=5 recovered=18 squashed=32 874e073891460f5e1f6828287a4c5988");
    ("inline workers=8 checkpoint=4 commit",
      "cycles=66609 misspeculations=5 recovered=6 squashed=19 12fa7f14d56f5a119e328736225afc8b");
    ("inline workers=8 checkpoint=4 eager",
      "cycles=66533 misspeculations=5 recovered=6 squashed=6 316ee1a7d5fa6fe3fc87b8304721b899");
    ("inline workers=24 checkpoint=auto commit",
      "cycles=176397 misspeculations=5 recovered=18 squashed=45 84b5a70bba710e0591ee828f63b098e4");
    ("inline workers=24 checkpoint=auto eager",
      "cycles=176397 misspeculations=5 recovered=18 squashed=18 325849b5999eb4bb3657403f94f73df4");
    ("inline workers=24 checkpoint=4 commit",
      "cycles=179817 misspeculations=5 recovered=6 squashed=19 53d4f98e4bce8e4333eb961720820ce1");
    ("inline workers=24 checkpoint=4 eager",
      "cycles=179817 misspeculations=5 recovered=6 squashed=6 019c8f810bc2522e29566d85e35fba56");
    ("callee workers=1 checkpoint=auto commit",
      "cycles=29668 misspeculations=14 recovered=95 squashed=95 db4087b33136e7abe70a50116934c7e6");
    ("callee workers=1 checkpoint=auto eager",
      "cycles=29668 misspeculations=14 recovered=95 squashed=95 db4087b33136e7abe70a50116934c7e6");
    ("callee workers=1 checkpoint=4 commit",
      "cycles=38560 misspeculations=14 recovered=43 squashed=43 2ebd5e67fbc3751fd9259411242236c9");
    ("callee workers=1 checkpoint=4 eager",
      "cycles=38560 misspeculations=14 recovered=43 squashed=43 2ebd5e67fbc3751fd9259411242236c9");
    ("callee workers=4 checkpoint=auto commit",
      "cycles=81388 misspeculations=14 recovered=95 squashed=204 1c099fb9aaa00dcf879e35c4d9831dba");
    ("callee workers=4 checkpoint=auto eager",
      "cycles=45145 misspeculations=7 recovered=95 squashed=66 99ba8c4d1a2023fdce9689d45989bbe6");
    ("callee workers=4 checkpoint=4 commit",
      "cycles=88705 misspeculations=14 recovered=43 squashed=56 e0b409f15aaa5bd9a491562a1ebdca3b");
    ("callee workers=4 checkpoint=4 eager",
      "cycles=88042 misspeculations=14 recovered=43 squashed=43 ce7985892acea77b2484ef33bfe2b7c2");
    ("callee workers=8 checkpoint=auto commit",
      "cycles=151691 misspeculations=14 recovered=95 squashed=220 b8b30c6389f35d40becc2bcf6b3d98e8");
    ("callee workers=8 checkpoint=auto eager",
      "cycles=83114 misspeculations=7 recovered=95 squashed=85 2a1248ed24edad36b70be26fcadc0fc2");
    ("callee workers=8 checkpoint=4 commit",
      "cycles=154549 misspeculations=14 recovered=43 squashed=56 58e6523be24d22a9d5c137141cd01595");
    ("callee workers=8 checkpoint=4 eager",
      "cycles=153886 misspeculations=14 recovered=43 squashed=43 0c95921a2a64f8586f677ea58282590d");
    ("callee workers=24 checkpoint=auto commit",
      "cycles=438314 misspeculations=14 recovered=95 squashed=233 3aea8573aa2bbb2b819165c0a68f0f53");
    ("callee workers=24 checkpoint=auto eager",
      "cycles=438314 misspeculations=14 recovered=95 squashed=95 70a960503958d8f0f418e6f9768aa531");
    ("callee workers=24 checkpoint=4 commit",
      "cycles=441886 misspeculations=14 recovered=43 squashed=56 e2ded302572aa7927c846ca9e1c675ac");
    ("callee workers=24 checkpoint=4 eager",
      "cycles=441886 misspeculations=14 recovered=43 squashed=43 cd89a3af7d4e9edea3ab282e270cb73c") ]

let test_control_misspeculation_in_production () =
  let figures (par : Pipeline.par_run) =
    Printf.sprintf "cycles=%d misspeculations=%d recovered=%d squashed=%d %s" par.par_cycles
      par.stats.misspeculations par.stats.recovered_iterations par.stats.squashed_iterations
      (Test_contract.fingerprint par)
  in
  List.iter
    (fun (name, src) ->
      List.iter
        (fun workers ->
          List.iter
            (fun checkpoint_period ->
              let cell =
                Printf.sprintf "%s workers=%d checkpoint=%s" name workers
                  (Option.fold ~none:"auto" ~some:string_of_int checkpoint_period)
              in
              let tr, _, commit, eager =
                Test_contract.unit_cell src
                  { (config ~workers ()) with checkpoint_period }
                  ~train:(fun st -> Pipeline.set_global st "mode" 0)
                  ~run:(fun st -> Pipeline.set_global st "mode" 1)
              in
              check (cell ^ ": a loop was planned") true (tr.selection.plans <> []);
              check (cell ^ ": misspeculated") true (commit.stats.misspeculations > 0);
              List.iter
                (fun (mode, par) ->
                  let cell = cell ^ " " ^ mode in
                  Alcotest.(check string) cell (List.assoc cell control_pins) (figures par))
                [ ("commit", commit); ("eager", eager) ])
            [ None; Some 4 ])
        [ 1; 4; 8; 24 ])
    control_programs

(* The profile never took this branch's else side, where the programs
   above never took the then side: the manifest records the branch as
   always true, and the worker misspeculates when it goes false. *)
let cold_else_src =
  {|global mode; global scratch[8]; global err_count;
fn main() {
  err_count = 0;
  for (k = 0; k < 40) {
    if (mode == 0 || k != 9) {
      scratch[0] = k;
    } else {
      err_count = err_count + 1;   // cold in training
    }
  }
  print("errs %d\n", err_count);
  return err_count;
}|}

let test_control_misspeculation_cold_else () =
  let tr, _, commit, eager =
    Test_contract.unit_cell cold_else_src (config ())
      ~train:(fun st -> Pipeline.set_global st "mode" 0)
      ~run:(fun st -> Pipeline.set_global st "mode" 1)
  in
  let branches = ref [] in
  List.iter
    (fun (f : Privateer_ir.Ast.func) ->
      Privateer_ir.Ast.iter_stmts
        (function Privateer_ir.Ast.If (id, _, _, _) -> branches := id :: !branches | _ -> ())
        f.body)
    tr.program.funcs;
  (match (tr.manifest.loops, !branches) with
  | [ l ], [ branch ] ->
    check "the manifest records the branch as always true" true
      (l.assignment.control_spec = [ (branch, true) ])
  | _ -> Alcotest.fail "expected one planned loop and one branch");
  check "commit mode misspeculated" true (commit.stats.misspeculations > 0);
  check "eager mode misspeculated" true (eager.stats.misspeculations > 0)

(* Two ref-input divergences with no branch to speculate away, so the
   worker meets them as themselves rather than as a control
   misspeculation: [flag] is left at 5 by iteration 20 against its
   predicted 0, and iteration 17 allocates a second node it never
   frees. *)
let value_miss_src =
  {|global mode; global flag; global out[50];
fn main() {
  flag = 0;
  for (k = 0; k < 50) {
    out[k] = flag + k;
    flag = mode * (k == 20) * 5;
  }
  var s = 0;
  for (q = 0; q < 50) { s = s + out[q]; }
  return s;
}|}

let escape_src =
  {|global mode; global nodes[2]; global out[40];
fn main() {
  for (k = 0; k < 40) {
    for (j = 0; j < 1 + mode * (k == 17)) {
      nodes[j] = malloc(1);
      nodes[j][0] = k * 3;
    }
    out[k] = nodes[0][0];
    free(nodes[0]);
  }
  var s = 0;
  for (q = 0; q < 40) { s = s + out[q]; }
  return s;
}|}

let test_lifetime_misspeculation_in_production () =
  (* In training every node is freed within its iteration
     (short-lived); the ref input leaks one. *)
  let par = train_ref_divergence escape_src in
  check "lifetime violation detected" true (par.stats.misspeculations > 0);
  check "the worker raises the escape" true
    (match worker_misspecs escape_src with
    | _, [ (17, Privateer_runtime.Misspec.Short_lived_escape _) ] -> true
    | _ -> false)

let test_value_misspeculation_in_production () =
  (* flag returns to 0 every training iteration; one ref iteration
     leaves 5 behind: the end-of-iteration prediction check fires. *)
  let par = train_ref_divergence value_miss_src in
  check "prediction failure detected" true (par.stats.misspeculations > 0);
  check "the worker raises the failed prediction" true
    (match worker_misspecs value_miss_src with
    | _, [ (20, Privateer_runtime.Misspec.Value_prediction _) ] -> true
    | _ -> false)

(* In training the loop only ever writes through the iteration's own
   node; in the ref run one iteration writes through a pointer into an
   object classified read-only. *)
let separation_src =
  {|global mode; global table[16]; global out[48];
fn main() {
  for (j = 0; j < 16) { table[j] = j * j; }
  for (k = 0; k < 48) {
    var node = malloc(2);
    node[0] = table[k % 16];
    var target = node;
    if (mode == 1 && k == 9) { target = &table; }  // foreign write
    target[0] = k;
    out[k] = node[0];
    free(node);
  }
  var s = 0;
  for (q = 0; q < 48) { s = s + out[q] + table[q % 16]; }
  return s;
}|}

let test_separation_misspeculation_in_production () =
  let par = train_ref_divergence separation_src in
  check "separation violation detected" true (par.stats.misspeculations > 0)

let test_two_parallel_loops_one_program () =
  (* Two independent privatizable hot loops, not nested: both must be
     selected and both must run speculatively. *)
  let src =
    {|global scratch[16]; global out_a[40]; global out_b[40]; global buf[16];
fn phase_a() {
  for (k = 0; k < 40) {
    for (i = 0; i < 16) { scratch[i] = k + i; }
    out_a[k] = scratch[k % 16];
  }
}
fn phase_b() {
  for (k2 = 0; k2 < 40) {
    for (i2 = 0; i2 < 16) { buf[i2] = k2 * i2; }
    out_b[k2] = buf[k2 % 16];
  }
}
fn main() {
  phase_a();
  phase_b();
  var s = 0;
  for (q = 0; q < 40) { s = s + out_a[q] + out_b[q]; }
  print("%d\n", s);
  return s;
}|}
  in
  let tr, _, par, _ = Test_contract.unit_cell src (config ()) in
  Alcotest.(check int) "two plans" 2 (List.length tr.selection.plans);
  Alcotest.(check int) "two invocations" 2 par.stats.invocations

let test_loop_in_helper_called_twice () =
  (* One parallel loop invoked from two call sites: two invocations of
     the same region (like alvinn's per-epoch invocations). *)
  let src =
    {|global scratch[8]; global out[80];
fn sweep(base) {
  for (k = 0; k < 40) {
    scratch[0] = base + k;
    out[base + k] = scratch[0] * 2;
  }
}
fn main() {
  sweep(0);
  sweep(40);
  var s = 0;
  for (q = 0; q < 80) { s = s + out[q]; }
  return s;
}|}
  in
  let _, _, par, _ = Test_contract.unit_cell src (config ()) in
  Alcotest.(check int) "two invocations of one region" 2 par.stats.invocations

(* In training every iteration sets the divisor before it divides; in
   the ref run only iteration 0 does.  The branch's cold side holds no
   access, so it is not control-speculated, and a worker that did not
   run iteration 0 divides by its snapshot's stale 0: a fault only
   speculation produces, which recovery must turn back into the
   sequential run. *)
let stale_divisor_src =
  {|global mode; global divisor; global out[30];
fn main() {
  for (k = 0; k < 30) {
    if (mode * k == 0) { divisor = k + 1; }
    out[k] = 100 / divisor;
  }
  var s = 0;
  for (q = 0; q < 30) { s = s + out[q]; }
  return s;
}|}

let test_worker_fault_recovers () =
  let par = train_ref_divergence stale_divisor_src in
  check "the fault misspeculated" true (par.stats.misspeculations > 0);
  check "the second worker faults on its stale divisor" true
    (List.mem
       (1, Privateer_runtime.Misspec.Worker_fault "division by zero")
       (snd (worker_misspecs ~workers:2 stale_divisor_src)))

(* ---- eager validation ---------------------------------------------------- *)

(* A privatized scratch array refilled every iteration: clean unless
   the unit injects. *)
let eager_src =
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

let eager_config inject = { (config ()) with checkpoint_period = Some 20; inject }

let test_kill_at_earliest_violating_iteration () =
  (* One injected misspeculation at iteration 5 (owned by worker 1 of
     4, cyclic).  Commit mode burns the whole 20-iteration interval;
     eager mode stops the sweep at the kill, skipping workers 2 and 3
     entirely — yet both recover exactly [0, 5] and resume at 6. *)
  let _, _, commit, eager =
    Test_contract.unit_cell eager_src (eager_config (Some (fun iter -> iter = 5)))
  in
  let c = commit.Pipeline.stats and e = eager.Pipeline.stats in
  Alcotest.(check int) "one misspeculation either way" 1 e.misspeculations;
  Alcotest.(check int) "same verdict count as commit" c.misspeculations e.misspeculations;
  Alcotest.(check int) "identical recovery extent" c.recovered_iterations
    e.recovered_iterations;
  Alcotest.(check int) "one eager kill" 1 e.eager_kills;
  check "eager squashes fewer executed iterations" true
    (e.squashed_iterations < c.squashed_iterations);
  check "the skipped iterations are accounted" true (e.avoided_iterations > 0);
  Alcotest.(check int) "commit mode never kills early" 0 c.eager_kills

let test_no_false_kill_on_clean_intervals () =
  (* Violation-free run: eager mode must be indistinguishable from
     commit mode, cycles included. *)
  let _, _, commit, eager = Test_contract.unit_cell eager_src (eager_config None) in
  Alcotest.(check int) "no kills" 0 eager.Pipeline.stats.eager_kills;
  Alcotest.(check int) "no misspeculations" 0 eager.stats.misspeculations;
  Alcotest.(check int) "cycles identical to commit mode" commit.par_cycles
    eager.par_cycles;
  Alcotest.(check int) "wall cycles identical" commit.stats.wall_cycles
    eager.stats.wall_cycles

let test_own_misspeculations_kill () =
  (* A value misprediction, a short-lived object escaping its
     iteration, a separation violation and a cold branch are each
     raised by the worker that runs into them, so in eager mode each
     one stops its sweep: one kill per misspeculation, and none in
     commit mode. *)
  List.iter
    (fun (name, src) ->
      let _, _, commit, eager =
        Test_contract.unit_cell src (config ())
          ~train:(fun st -> Pipeline.set_global st "mode" 0)
          ~run:(fun st -> Pipeline.set_global st "mode" 1)
      in
      check (name ^ ": eager misspeculated") true (eager.Pipeline.stats.misspeculations > 0);
      Alcotest.(check int) (name ^ ": one kill per misspeculation")
        eager.stats.misspeculations eager.stats.eager_kills;
      Alcotest.(check int) (name ^ ": commit mode never kills") 0 commit.stats.eager_kills)
    [ ("value", value_miss_src); ("lifetime", escape_src); ("separation", separation_src);
      ("control", cold_else_src) ]

(* Iteration [k] writes [out[k]] and then reads [out[k + mode]]: its
   own write in training, the next iteration's word in the ref run.
   Under the cyclic schedule the next iteration is another worker's, so
   the reader's word is live-in on its own machine and no worker can
   see the conflict; only the checkpoint merge (phase 2) does. *)
let cross_worker_src =
  {|global mode; global out[61]; global got[60];
fn main() {
  for (k = 0; k < 60) {
    out[k] = k * 2;
    got[k] = out[k + mode];
  }
  var s = 0;
  for (q = 0; q < 60) { s = s + got[q]; }
  print("= %d\n", s);
  return s;
}|}

let test_cross_worker_conflict_left_to_phase2 () =
  let _, _, commit, eager =
    Test_contract.unit_cell cross_worker_src (eager_config None)
      ~train:(fun st -> Pipeline.set_global st "mode" 0)
      ~run:(fun st -> Pipeline.set_global st "mode" 1)
  in
  let c = commit.Pipeline.stats and e = eager.Pipeline.stats in
  check "phase 2 found the conflicts" true (c.misspeculations > 0);
  Alcotest.(check int) "no eager kill" 0 e.eager_kills;
  Alcotest.(check int) "same misspeculations" c.misspeculations e.misspeculations;
  Alcotest.(check int) "same squashed iterations" c.squashed_iterations
    e.squashed_iterations;
  Alcotest.(check int) "cycles identical to commit mode" commit.par_cycles eager.par_cycles;
  Alcotest.(check string) "fingerprint identical to commit mode"
    (Test_contract.fingerprint commit) (Test_contract.fingerprint eager)

let suite =
  [ Alcotest.test_case "control misspeculation in production" `Quick
      test_control_misspeculation_in_production;
    Alcotest.test_case "control misspeculation on a cold else side" `Quick
      test_control_misspeculation_cold_else;
    Alcotest.test_case "lifetime misspeculation in production" `Quick
      test_lifetime_misspeculation_in_production;
    Alcotest.test_case "value misspeculation in production" `Quick
      test_value_misspeculation_in_production;
    Alcotest.test_case "separation misspeculation in production" `Quick
      test_separation_misspeculation_in_production;
    Alcotest.test_case "two parallel loops in one program" `Quick
      test_two_parallel_loops_one_program;
    Alcotest.test_case "one region invoked twice" `Quick test_loop_in_helper_called_twice;
    Alcotest.test_case "worker fault recovers cleanly" `Quick test_worker_fault_recovers;
    Alcotest.test_case "kill at earliest violating iteration" `Quick
      test_kill_at_earliest_violating_iteration;
    Alcotest.test_case "no false kill on clean intervals" `Quick
      test_no_false_kill_on_clean_intervals;
    Alcotest.test_case "eager kills on a worker's own misspeculation" `Quick
      test_own_misspeculations_kill;
    Alcotest.test_case "eager leaves cross-worker conflicts to phase 2" `Quick
      test_cross_worker_conflict_left_to_phase2 ]
