(* Integration tests for the speculative DOALL executor (paper
   section 5): privatized parallel execution must be observationally
   equivalent to sequential execution, under all worker counts,
   checkpoint periods, and injected misspeculation.  The programs run
   as cells of the contract harness (Test_contract.unit_cell), so the
   equivalence is checked in both validation modes. *)

open Privateer

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let compile src = Pipeline.compile (Pipeline.parse src)

let config ?(workers = 4) ?checkpoint_period ?inject ?(schedule = Privateer_parallel.Schedule.Cyclic)
    ?(adaptive = false) ?throttle ?(serial_commit = false) () =
  { Privateer_parallel.Runtime_config.default with
    workers; checkpoint_period; inject; schedule; adaptive_period = adaptive;
    throttle; serial_commit }

(* Run both versions through the contract harness, in both validation
   modes: byte-identical output and equal result.  Returns the
   sequential and commit runs. *)
let assert_equivalent ?workers ?checkpoint_period ?inject ?schedule ?adaptive
    ?throttle ?serial_commit src =
  let tr, seq, par, _ =
    Test_contract.unit_cell src
      (config ?workers ?checkpoint_period ?inject ?schedule ?adaptive ?throttle
         ?serial_commit ())
  in
  check "a loop was planned" true (tr.selection.plans <> []);
  (seq, par)

let private_src =
  {|global scratch[16]; global out[100];
fn main() {
  for (k = 0; k < 100) {
    for (i = 0; i < 16) { scratch[i] = k * i; }
    var s = 0;
    for (j = 0; j < 16) { s = s + scratch[j]; }
    out[k] = s;
  }
  var total = 0;
  for (q = 0; q < 100) { total = total + out[q]; }
  print("total %d\n", total);
  return total;
}|}

let test_privatization_equivalence () = ignore (assert_equivalent private_src)

let test_worker_counts () =
  List.iter
    (fun workers -> ignore (assert_equivalent ~workers private_src))
    [ 1; 2; 3; 7; 24; 64 ]

let test_checkpoint_periods () =
  List.iter
    (fun k -> ignore (assert_equivalent ~checkpoint_period:k private_src))
    [ 1; 2; 13; 100; 253 ]

(* A loop heavy enough that parallelization must pay off despite
   spawn and validation overheads. *)
let heavy_src =
  {|global scratch[128]; global out[100];
fn main() {
  for (k = 0; k < 100) {
    for (i = 0; i < 128) { scratch[i] = k * i + (i & 15); }
    var s = 0;
    for (j = 0; j < 128) { s = s + scratch[j]; }
    out[k] = s;
  }
  var total = 0;
  for (q = 0; q < 100) { total = total + out[q]; }
  print("total %d\n", total);
  return total;
}|}

let test_speedup_positive () =
  let seq, par = assert_equivalent ~workers:16 heavy_src in
  check "parallel is faster" true (par.par_cycles < seq.seq_cycles);
  check "meaningfully faster (>3x)" true
    (float_of_int seq.seq_cycles /. float_of_int par.par_cycles > 3.0);
  check_int "one invocation" 1 par.stats.invocations;
  check "checkpoints happened" true (par.stats.checkpoints > 0)

let test_short_lived_equivalence () =
  ignore
    (assert_equivalent
       {|global out[50];
fn main() {
  for (k = 0; k < 50) {
    var node = malloc(2);
    node[0] = k;
    node[1] = k * k;
    out[k] = node[0] + node[1];
    free(node);
  }
  var s = 0;
  for (q = 0; q < 50) { s = s + out[q]; }
  return s;
}|})

let test_memory_reduction_equivalence () =
  (* Integer reductions are exact under reassociation. *)
  let _, par =
    assert_equivalent
      {|global total; global data[64];
fn main() {
  for (j = 0; j < 64) { data[j] = j * 7; }
  total = 0;
  for (i = 0; i < 64) { total = total + data[i]; }
  print("%d\n", total);
  return total;
}|}
  in
  check "redux ran in parallel" true (par.stats.invocations = 1)

let test_register_reduction_equivalence () =
  ignore
    (assert_equivalent
       {|global data[64];
fn main() {
  for (j = 0; j < 64) { data[j] = j; }
  var s = 0;
  for (i = 0; i < 64) { s = s + data[i] * data[i]; }
  print("%d\n", s);
  return s;
}|})

let test_deferred_io_order () =
  let _, par =
    assert_equivalent
      {|global scratch[4];
fn main() {
  for (k = 0; k < 37) {
    scratch[0] = k * 3;
    print("iter %d -> %d\n", k, scratch[0]);
  }
  return 0;
}|}
  in
  (* I/O must appear in iteration order despite parallel execution. *)
  check "some output" true (String.length par.par_output > 0)

let test_value_prediction_end_to_end () =
  (* The dijkstra handoff: flag returns to 0 every iteration. *)
  let src =
    {|global flag; global out[60];
fn main() {
  flag = 0;
  for (i = 0; i < 60) {
    out[i] = flag + i;
    flag = 7;
    flag = 0;
  }
  var s = 0;
  for (q = 0; q < 60) { s = s + out[q]; }
  return s;
}|}
  in
  let tr, _ = compile src in
  check "prediction planned" true
    (List.exists
       (fun (l : Privateer_transform.Manifest.loop_spec) -> l.assignment.predictions <> [])
       tr.manifest.loops);
  let _, par = assert_equivalent src in
  check "no misspeculation" true (par.stats.misspeculations = 0)

let test_preheader_fallback () =
  (* If the live-in value does not match the prediction, the
     invocation must fall back to sequential execution and still be
     correct. *)
  let src =
    {|global flag; global out[60]; global mode;
fn main() {
  flag = mode;     // 9 => prediction (trained with 0... ) fails at entry
  for (i = 0; i < 60) {
    out[i] = flag + i;
    flag = 7;
    flag = 0;
  }
  return out[3];
}|}
  in
  (* Train with mode=0 so the profiler predicts flag==0; run with
     mode=9, where the live-in differs from the prediction. *)
  let tr, _, par, _ =
    Test_contract.unit_cell src (config ())
      ~train:(fun st -> Pipeline.set_global st "mode" 0)
      ~run:(fun st -> Pipeline.set_global st "mode" 9)
  in
  check "prediction exists" true
    (List.exists
       (fun (l : Privateer_transform.Manifest.loop_spec) -> l.assignment.predictions <> [])
       tr.manifest.loops);
  check "fell back to sequential" true (par.fallbacks = 1)

(* A type error inside a speculative iteration squashes the interval
   as a worker fault, in either validation mode; the sequential
   re-execution then reports the program's own fault, never an escaped
   exception. *)
let test_type_error_in_worker () =
  let src =
    {|global mode; global a[40]; global out[40];
fn main() {
  for (i = 0; i < 40) { a[i] = i; }
  if (mode) { a[25] = 0.5; }
  for (j = 0; j < 40) { out[j] = a[j] + 1; }
  return out[39];
}|}
  in
  let program = Pipeline.parse src in
  let tr, _ =
    Pipeline.compile ~setup:(fun st -> Pipeline.set_global st "mode" 0) program
  in
  check "a loop was planned" true (tr.selection.plans <> []);
  let setup st = Pipeline.set_global st "mode" 1 in
  let fault f =
    match f () with
    | _ -> "no fault"
    | exception Privateer_interp.Interp.Runtime_error msg -> msg
  in
  Alcotest.(check string) "sequential fault" "expected int, got float 0.5"
    (fault (fun () -> ignore (Pipeline.run_sequential ~setup program)));
  List.iter
    (fun validation ->
      Alcotest.(check string) "parallel fault" "expected int, got float 0.5"
        (fault (fun () ->
             ignore (Pipeline.run_parallel ~setup ~config:{ (config ()) with validation } tr))))
    [ Privateer_parallel.Runtime_config.Commit; Eager ]

let test_induction_var_final_value () =
  let _, _ =
    assert_equivalent
      {|global out[20];
fn main() {
  for (i = 0; i < 20) { out[i] = i; }
  return i;   // must be 20, as after sequential execution
}|}
  in
  ()

let test_live_out_private_register () =
  ignore
    (assert_equivalent
       {|global out[30];
fn main() {
  var last = 0 - 1;
  for (i = 0; i < 30) {
    last = i * 2;
    out[i] = last;
  }
  return last;   // value from the final iteration
}|})

let test_zero_iteration_loop () =
  ignore
    (assert_equivalent
       {|global scratch[4]; global out[10]; global n;
fn main() {
  for (k = 0; k < n) {     // n = 0: loop never runs
    scratch[0] = k;
    out[k] = scratch[0];
  }
  for (w = 0; w < 10) { out[w] = out[w] + 1; }
  return k;
}|})

let test_injected_misspec_recovers () =
  List.iter
    (fun inject_every ->
      let inject iter = iter mod inject_every = inject_every - 1 in
      let seq, par = assert_equivalent ~inject private_src in
      ignore seq;
      check "misspeculations occurred" true (par.stats.misspeculations > 0);
      check "iterations were recovered" true (par.stats.recovered_iterations > 0))
    [ 10; 25; 97 ]

let test_injected_misspec_with_io () =
  let src =
    {|global scratch[4];
fn main() {
  for (k = 0; k < 40) {
    scratch[0] = k;
    print("k=%d\n", k);
  }
  return 0;
}|}
  in
  let inject iter = iter mod 7 = 6 in
  let _, par = assert_equivalent ~inject src in
  (* Output of squashed iterations must not be duplicated or lost. *)
  check_int "40 lines exactly" 40
    (List.length (List.filter (fun l -> l <> "") (String.split_on_char '\n' par.par_output)))

let test_injected_misspec_with_reductions () =
  let src =
    {|global total; global data[64];
fn main() {
  for (j = 0; j < 64) { data[j] = j; }
  total = 0;
  for (i = 0; i < 64) { total = total + data[i]; }
  return total;
}|}
  in
  let inject iter = iter = 13 || iter = 50 in
  let _, par = assert_equivalent ~inject src in
  check "recovered" true (par.stats.misspeculations > 0)

let test_stats_private_bytes () =
  let _, par = assert_equivalent ~workers:2 private_src in
  check "private reads counted" true (par.stats.private_bytes_read > 0);
  check "private writes counted" true (par.stats.private_bytes_written > 0);
  let b = Privateer_runtime.Stats.breakdown par.stats in
  let total =
    b.useful +. b.private_read +. b.private_write +. b.checkpoint +. b.spawn_join
    +. b.other
  in
  Alcotest.(check (float 0.5)) "breakdown sums to 100%" 100.0 total

let test_wrong_prediction_at_runtime_recovers () =
  (* Trained to predict flag==0, but iteration 31 leaves flag=1: the
     end-of-iteration check must misspeculate and recovery must
     reproduce sequential semantics. *)
  let src =
    {|global flag; global out[60];
fn main() {
  flag = 0;
  for (i = 0; i < 60) {
    out[i] = flag + i;
    flag = 7;
    if (i == 31) { flag = 1; } else { flag = 0; }
  }
  var s = 0;
  for (q = 0; q < 60) { s = s + out[q]; }
  return s;
}|}
  in
  (* Note: training runs the same input, so i==31 is profiled and the
     branch is mixed; but the dep value profile sees both 0 and 1 ->
     no prediction for flag... unless only address constant. To force
     the scenario, train on a modified input is not possible here, so
     accept either outcome: if a plan exists, execution must still be
     equivalent (with no plan, it is trivially so). *)
  ignore (Test_contract.unit_cell src (config ()))

(* ---- schedule policies ------------------------------------------------ *)

let all_schedules =
  [ Privateer_parallel.Schedule.Cyclic; Privateer_parallel.Schedule.Blocked;
    Privateer_parallel.Schedule.Chunked 1; Privateer_parallel.Schedule.Chunked 3;
    Privateer_parallel.Schedule.Chunked 16 ]

let test_schedule_equivalence () =
  (* The committed state must be schedule-independent: every policy
     reproduces the sequential run on every source shape. *)
  List.iter
    (fun schedule ->
      ignore (assert_equivalent ~schedule private_src);
      ignore (assert_equivalent ~schedule ~workers:7 heavy_src);
      ignore
        (assert_equivalent ~schedule
           {|global total; global data[64];
fn main() {
  for (j = 0; j < 64) { data[j] = j * 3; }
  total = 0;
  for (i = 0; i < 64) { total = total + data[i]; }
  print("%d\n", total);
  return total;
}|}))
    all_schedules

let test_schedule_equivalence_under_misspec () =
  List.iter
    (fun schedule ->
      let inject iter = iter mod 13 = 12 in
      let _, par = assert_equivalent ~schedule ~inject private_src in
      check "misspeculations occurred" true (par.stats.misspeculations > 0))
    all_schedules

let test_schedule_io_order () =
  (* Deferred output must commit in iteration order under every
     assignment policy. *)
  let src =
    {|global scratch[4];
fn main() {
  for (k = 0; k < 37) {
    scratch[0] = k * 3;
    print("iter %d -> %d\n", k, scratch[0]);
  }
  return 0;
}|}
  in
  List.iter (fun schedule -> ignore (assert_equivalent ~schedule src)) all_schedules

let test_schedule_of_string () =
  let open Privateer_parallel.Schedule in
  List.iter
    (fun s -> Alcotest.(check (option string)) "round-trip" (Some (to_string s))
        (Option.map to_string (of_string (to_string s))))
    all_schedules;
  check "bad policy rejected" true (of_string "zigzag" = None);
  check "bad chunk rejected" true (of_string "chunked:0" = None)

(* ---- config validation ------------------------------------------------ *)

let test_config_validation () =
  let tr, _ = compile private_src in
  let raises cfg =
    match Privateer_parallel.Executor.create tr.manifest cfg with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  check "workers = 0 rejected" true (raises (config ~workers:0 ()));
  check "workers < 0 rejected" true (raises (config ~workers:(-3) ()));
  check "checkpoint_period = 0 rejected" true (raises (config ~checkpoint_period:0 ()));
  check "checkpoint_period < 0 rejected" true
    (raises (config ~checkpoint_period:(-1) ()));
  check "throttle = 0 rejected" true (raises (config ~throttle:0 ()));
  check "chunk size 0 rejected" true
    (raises (config ~schedule:(Privateer_parallel.Schedule.Chunked 0) ()));
  check "valid config accepted" false (raises (config ()))

(* [check] is the one range check behind [validate], [make],
   [apply_bindings] and the manifest loader: each out-of-range field
   comes back as [Error] naming it, [validate] raises the same text,
   and the inert fields are never checked. *)
let test_config_check () =
  let module RC = Privateer_parallel.Runtime_config in
  let error c = match RC.check c with Ok () -> "" | Error msg -> msg in
  let raised c =
    match RC.validate c with () -> "" | exception Invalid_argument msg -> msg
  in
  Alcotest.(check string) "default passes" "" (error RC.default);
  List.iter
    (fun (c, expected) ->
      Alcotest.(check string) expected expected (error c);
      Alcotest.(check string) ("validate: " ^ expected) ("Runtime_config: " ^ expected)
        (raised c))
    [ ({ RC.default with workers = -2 }, "workers must be > 0 (got -2)");
      ({ RC.default with throttle = Some 0 }, "throttle must be > 0 (got 0)");
      ({ RC.default with max_inflight = 65 }, "max_inflight must be in [1, 64] (got 65)") ];
  check "inert host fields unchecked" true
    (RC.check
       { RC.default with pool_cap = -1; host_domains = -1; merge_shards = -1; queue_cap = -1 }
    = Ok ());
  check "inert profilers field unchecked" true
    (RC.check { RC.default with profilers = [ "no-such-profiler" ] } = Ok ())

(* The flag fold fails closed: a value that parses but is out of range
   comes back as [Error] with the field's message, not as an exception
   at [Executor.create]. *)
let test_apply_bindings () =
  let module RC = Privateer_parallel.Runtime_config in
  let binding flag =
    List.find (fun (b : RC.binding) -> List.mem flag b.b_flags) RC.cli_bindings
  in
  let apply passed =
    RC.apply_bindings RC.default (List.map (fun (f, v) -> (binding f, Some v)) passed)
  in
  (match apply [ ("workers", "6"); ("checkpoint", "8") ] with
  | Ok c ->
    check_int "workers applied" 6 c.RC.workers;
    check "checkpoint applied" true (c.RC.checkpoint_period = Some 8)
  | Error msg -> Alcotest.fail msg);
  let error passed =
    match apply passed with Ok _ -> "" | Error msg -> msg
  in
  Alcotest.(check string) "workers 0" "workers must be > 0 (got 0)"
    (error [ ("workers", "0") ]);
  Alcotest.(check string) "checkpoint 0" "checkpoint_period must be > 0 (got 0)"
    (error [ ("checkpoint", "0") ]);
  Alcotest.(check string) "max-inflight 0" "max_inflight must be in [1, 64] (got 0)"
    (error [ ("max-inflight", "0") ]);
  Alcotest.(check string) "parse errors still win"
    "workers: expected an integer, got \"x\"" (error [ ("workers", "x"); ("checkpoint", "0") ])

(* [host_domains], [merge_shards], [pool_cap] and [profilers] are
   documented as inert: setting them must change neither the plan nor
   a single simulated figure, nor must the engine reject values it no
   longer reads. *)
let test_inert_host_fields () =
  let module RC = Privateer_parallel.Runtime_config in
  let src =
    {|global a[64];
global acc;
fn main() {
  acc = 0;
  for (i = 0; i < 64) { a[i] = i * 3; acc = acc + a[i]; }
  return acc;
}|}
  in
  let program = Pipeline.parse src in
  let tr, _ = Pipeline.compile program in
  let inert =
    { RC.default with host_domains = 7; merge_shards = 13; pool_cap = -5;
      profilers = [ "exec" ] }
  in
  let tr', _ = Pipeline.compile ~config:inert program in
  check "same plan" true
    (String.equal (Privateer_ir.Pp.program_str tr.program)
       (Privateer_ir.Pp.program_str tr'.program));
  let run config tr = Pipeline.run_parallel ~config:{ config with RC.workers = 4 } tr in
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
  let module RC = Privateer_parallel.Runtime_config in
  let flags = List.concat_map (fun (b : RC.binding) -> b.b_flags) RC.cli_bindings in
  List.iter
    (fun flag -> check (flag ^ " is not a binding") false (List.mem flag flags))
    [ "host-domains"; "merge-shards"; "pool-kind"; "host-controller"; "shadow-pool-cap";
      "profilers" ];
  check "surviving knobs still bound" true
    (List.for_all (fun f -> List.mem f flags) [ "workers"; "validation"; "max-inflight" ])

(* ---- recovery edge cases ---------------------------------------------- *)

let test_misspec_on_iteration_zero () =
  (* Misspeculation on the very first iteration: recovery re-executes
     exactly iteration 0 and speculation resumes at 1. *)
  let inject iter = iter = 0 in
  let _, par = assert_equivalent ~checkpoint_period:10 ~inject private_src in
  check_int "one misspeculation" 1 par.stats.misspeculations;
  check_int "exactly iteration 0 recovered" 1 par.stats.recovered_iterations

let test_misspec_on_interval_last_iteration () =
  (* Misspeculation on an interval's last iteration squashes and
     re-executes the whole interval: k iterations. *)
  let k = 10 in
  let inject iter = iter = k - 1 in
  let _, par = assert_equivalent ~checkpoint_period:k ~inject private_src in
  check_int "one misspeculation" 1 par.stats.misspeculations;
  check_int "the whole interval recovered" k par.stats.recovered_iterations

let test_misspec_on_loop_last_iteration () =
  (* private_src has 100 iterations; with k=10 the last interval is
     [90, 100) and a misspec at 99 recovers all 10 of them. *)
  let inject iter = iter = 99 in
  let _, par = assert_equivalent ~checkpoint_period:10 ~inject private_src in
  check_int "one misspeculation" 1 par.stats.misspeculations;
  check_int "last interval recovered" 10 par.stats.recovered_iterations

let test_misspec_under_serial_commit () =
  List.iter
    (fun inject_every ->
      let inject iter = iter mod inject_every = inject_every - 1 in
      let _, par =
        assert_equivalent ~serial_commit:true ~checkpoint_period:10 ~inject private_src
      in
      check "misspeculations occurred" true (par.stats.misspeculations > 0))
    [ 10; 25 ];
  (* Injection at interval boundaries under serial commit, with I/O. *)
  let src =
    {|global scratch[4];
fn main() {
  for (k = 0; k < 40) {
    scratch[0] = k;
    print("k=%d\n", k);
  }
  return 0;
}|}
  in
  let inject iter = iter = 9 || iter = 10 in
  ignore (assert_equivalent ~serial_commit:true ~checkpoint_period:10 ~inject src)

(* ---- adaptive checkpoint period --------------------------------------- *)

let test_adaptive_period_equivalence () =
  List.iter
    (fun inject_every ->
      let inject iter = iter mod inject_every = inject_every - 1 in
      ignore (assert_equivalent ~adaptive:true ~inject private_src))
    [ 5; 10; 33 ]

let test_adaptive_period_clean_run_identical () =
  (* Without misspeculation the adaptive controller never moves, so
     the run is cycle-identical to the fixed-period one. *)
  let _, fixed = assert_equivalent private_src in
  let _, adaptive = assert_equivalent ~adaptive:true private_src in
  check_int "same wall cycles" fixed.stats.wall_cycles adaptive.stats.wall_cycles;
  check_int "same checkpoints" fixed.stats.checkpoints adaptive.stats.checkpoints

let test_adaptive_period_cuts_recovery () =
  (* Under clustered misspeculation the shrunken intervals bound each
     recovery's sequential re-execution: checkpoint + recovery cycles
     must drop versus the fixed period at equal output.  heavy_src has
     iterations expensive enough that re-execution dominates the extra
     checkpoints the shorter intervals cost. *)
  let inject iter = iter mod 8 = 7 in
  let _, fixed = assert_equivalent ~checkpoint_period:32 ~inject heavy_src in
  let _, adaptive =
    assert_equivalent ~checkpoint_period:32 ~adaptive:true ~inject heavy_src
  in
  let cost (p : Pipeline.par_run) = p.stats.cyc_checkpoint + p.stats.cyc_recovery in
  check "misspecs in both" true
    (fixed.stats.misspeculations > 0 && adaptive.stats.misspeculations > 0);
  check
    (Printf.sprintf "adaptive %d < fixed %d" (cost adaptive) (cost fixed))
    true
    (cost adaptive < cost fixed)

(* ---- misspeculation throttle ------------------------------------------ *)

let throttle_src =
  (* The selected loop lives in [work]; main invokes it three times,
     so suspension must carry across invocations. *)
  {|global scratch[16]; global out[100];
fn work() {
  for (k = 0; k < 100) {
    for (i = 0; i < 16) { scratch[i] = k * i; }
    var s = 0;
    for (j = 0; j < 16) { s = s + scratch[j]; }
    out[k] = out[k] + s;
  }
}
fn main() {
  work();
  work();
  work();
  var total = 0;
  for (q = 0; q < 100) { total = total + out[q]; }
  print("total %d\n", total);
  return total;
}|}

let test_throttle_demotes_and_suspends () =
  let inject iter = iter mod 5 = 4 in
  let _, par = assert_equivalent ~throttle:3 ~inject throttle_src in
  check_int "three invocations" 3 par.stats.invocations;
  (* The throttle caps the first invocation at 3 misspeculations and
     the suspension silences the other two invocations entirely. *)
  check_int "misspeculations capped by the throttle" 3 par.stats.misspeculations;
  match Pipeline.loop_report par with
  | [ (_, ls) ] ->
    check_int "demoted once" 1 ls.l_demotions;
    check_int "two suspended invocations" 2 ls.l_suspended_invocations;
    check_int "per-loop invocations" 3 ls.l_invocations;
    check_int "per-loop misspecs" 3 ls.l_misspeculations
  | other ->
    Alcotest.failf "expected exactly one loop entry, got %d" (List.length other)

let test_throttle_off_keeps_speculating () =
  let inject iter = iter mod 5 = 4 in
  let _, par = assert_equivalent ~inject throttle_src in
  check "far more misspeculations without the throttle" true
    (par.stats.misspeculations > 3);
  List.iter
    (fun (_, (ls : Privateer_runtime.Stats.loop_stats)) ->
      check_int "no demotions" 0 ls.l_demotions;
      check_int "no suspensions" 0 ls.l_suspended_invocations)
    (Pipeline.loop_report par)

(* ---- per-loop stats table --------------------------------------------- *)

let test_loop_report_totals () =
  let _, par = assert_equivalent ~workers:8 private_src in
  let report = Pipeline.loop_report par in
  check "one selected loop" true (List.length report = 1);
  let _, ls = List.hd report in
  check_int "loop invocations = global" par.stats.invocations ls.l_invocations;
  check_int "loop wall cycles = global" par.stats.wall_cycles ls.l_wall_cycles;
  check_int "no demotions on a clean run" 0 ls.l_demotions

(* ---- preheader fallback induction variable ---------------------------- *)

let test_fallback_induction_final_value () =
  (* A failed preheader must still leave the induction variable at its
     sequential final value. *)
  let src =
    {|global flag; global out[60]; global mode;
fn main() {
  flag = mode;
  for (i = 0; i < 60) {
    out[i] = flag + i;
    flag = 7;
    flag = 0;
  }
  return i;
}|}
  in
  let _, _, par, _ =
    Test_contract.unit_cell src (config ())
      ~train:(fun st -> Pipeline.set_global st "mode" 0)
      ~run:(fun st -> Pipeline.set_global st "mode" 9)
  in
  (* The harness compared the result, the loop's final [i], with the
     sequential run's. *)
  check "fell back" true (par.fallbacks = 1)

(* ---- a cohort's host allocation ---------------------------------------- *)

(* Words [f] allocates: minor words plus direct major allocations
   (major words not promoted from the minor heap, from [Gc.counters]).
   The minor count comes from [Gc.minor_words]: on OCaml 5.1 the minor
   figure of [Gc.counters] misses most of the current minor heap's
   allocations. *)
let words_allocated f =
  let minor0 = Gc.minor_words () in
  let _, promoted0, major0 = Gc.counters () in
  let r = f () in
  let minor1 = Gc.minor_words () in
  let _, promoted1, major1 = Gc.counters () in
  (r, int_of_float (minor1 -. minor0 +. (major1 -. major0 -. (promoted1 -. promoted0))))

(* Spawn an 8-worker cohort over the default scenario's main process at
   its hot loop, then run worker 0's iterations of one 64-iteration
   interval, then extract it and run phase 2.  Allocation, not time, is
   what the bounds pin: a count is exact and host-independent. *)
let cohort_allocations () =
  let open Privateer_parallel in
  let sc = Privateer_gen.Scenario_gen.generate Privateer_gen.Scenario_gen.default_knobs in
  let wl = sc.sc_workload in
  let tr, _ =
    Pipeline.compile
      ~setup:(Privateer_workloads.Workload.setup wl Privateer_workloads.Workload.Train)
      (Pipeline.parse sc.sc_source)
  in
  let cfg = Runtime_config.default in
  let st = Privateer_interp.Interp.create ~cost:cfg.costs.base tr.program in
  Privateer_workloads.Workload.setup wl Privateer_workloads.Workload.Ref st;
  let measured = ref None in
  st.parallel_for <-
    Some
      (fun st fr loop ~init ~limit:_ ->
        (match
           ( !measured,
             Privateer_transform.Manifest.loop_spec tr.manifest
               (Privateer_interp.Interp.loop_id loop) )
         with
        | None, Some spec ->
          let env =
            { Worker.cm = cfg.costs; stats = Privateer_runtime.Stats.create ();
              sites = Worker.sites tr.manifest; validate = true; inject = None }
          in
          let ranges = Worker.redux_ranges st spec in
          let workers, spawn_words =
            words_allocated (fun () -> Worker.spawn env st fr spec ranges 8 ~now:0)
          in
          let w = List.hd workers in
          let predictions = Worker.resolve_predictions st spec.assignment.predictions in
          let io = Privateer_runtime.Deferred_io.create () in
          for iter = 0 to 63 do
            if iter mod 8 = 0 then
              Worker.exec_iteration env w loop ~init_value:init ~iter ~interval_start:0
                ~predictions ~io
          done;
          let req =
            { Privateer_runtime.Checkpoint.req_worker = 0; req_machine = w.w_st.machine;
              req_redux_ranges = ranges; req_reg_partials = [] }
          in
          let cp, checkpoint_words =
            words_allocated (fun () ->
                let cp = Privateer_runtime.Checkpoint.extract [ req ] in
                ignore (Privateer_runtime.Checkpoint.validate cp);
                cp)
          in
          measured := Some (ranges, cp, spawn_words, checkpoint_words)
        | _ -> ());
        false);
  ignore (Privateer_interp.Interp.run_entry st);
  match !measured with
  | Some m -> m
  | None -> Alcotest.fail "the default scenario planned no loop"

(* Each worker of a cohort costs what it touches: the cohort shares the
   main process's allocators and the executor's per-site tables, and
   the checkpoint grows one table with what the workers wrote and
   copies their reduction words flat.  Measured on OCaml 5.1: the spawn
   allocates 10,786 words (11,002 when each worker's hooks built a
   tag-to-heap table, 11,586 with per-worker site tables, 18,130 when
   every worker deep-copied all eight allocators), and extraction plus
   phase 2 allocate 866 (1,536 = 825 + 711 with per-worker write and
   live-in tables, a separate writer index and an overlay table;
   extraction alone took 1,352 with a 256-bucket write table and boxed
   reduction words). *)
let test_cohort_allocation_bounds () =
  let ranges, cp, spawn_words, checkpoint_words = cohort_allocations () in
  check "the scenario has reduction ranges" true (ranges <> []);
  check "the interval wrote private words" true
    (Hashtbl.length cp.Privateer_runtime.Checkpoint.words > 0);
  let over =
    List.filter_map
      (fun (what, words, bound) ->
        if words > bound then
          Some (Printf.sprintf "%s allocated %d words (bound %d)" what words bound)
        else None)
      [ ("spawning 8 workers", spawn_words, 11_000);
        ("one worker-interval's extraction and phase 2", checkpoint_words, 950) ]
  in
  if over <> [] then Alcotest.fail (String.concat "; " over)

(* Control speculation lives in the manifest alone: a worker raises
   [Control] naming the branch at the first iteration that goes the
   side the training run never took, whether that side is the then or
   the else side and whether the branch sits in the loop body or in a
   callee.  One worker runs the first planned loop's iterations in
   order. *)
let test_control_misspec_names_branch () =
  List.iter
    (fun (name, src, first_cold) ->
      let tr, raised = Test_speculation.worker_misspecs src in
      let branches = ref [] in
      List.iter
        (fun (f : Privateer_ir.Ast.func) ->
          Privateer_ir.Ast.iter_stmts
            (function Privateer_ir.Ast.If (id, _, _, _) -> branches := id :: !branches | _ -> ())
            f.body)
        tr.program.funcs;
      let branch =
        match !branches with [ id ] -> id | _ -> Alcotest.fail (name ^ ": expected one branch")
      in
      check name true
        (raised = [ (first_cold, Privateer_runtime.Misspec.Control { site = branch }) ]))
    [ ("then side", List.assoc "inline" Test_speculation.control_programs, 5);
      ("then side in a callee", List.assoc "callee" Test_speculation.control_programs, 3);
      ("else side", Test_speculation.cold_else_src, 9) ]

let suite =
  [ Alcotest.test_case "privatization equivalence" `Quick test_privatization_equivalence;
    Alcotest.test_case "all worker counts" `Quick test_worker_counts;
    Alcotest.test_case "all checkpoint periods" `Quick test_checkpoint_periods;
    Alcotest.test_case "speedup is positive" `Quick test_speedup_positive;
    Alcotest.test_case "short-lived objects" `Quick test_short_lived_equivalence;
    Alcotest.test_case "memory reductions" `Quick test_memory_reduction_equivalence;
    Alcotest.test_case "register reductions" `Quick test_register_reduction_equivalence;
    Alcotest.test_case "deferred I/O ordering" `Quick test_deferred_io_order;
    Alcotest.test_case "value prediction end-to-end" `Quick test_value_prediction_end_to_end;
    Alcotest.test_case "preheader prediction fallback" `Quick test_preheader_fallback;
    Alcotest.test_case "type error in a worker iteration" `Quick test_type_error_in_worker;
    Alcotest.test_case "induction variable final value" `Quick test_induction_var_final_value;
    Alcotest.test_case "live-out private register" `Quick test_live_out_private_register;
    Alcotest.test_case "zero-iteration loop" `Quick test_zero_iteration_loop;
    Alcotest.test_case "injected misspeculation recovers" `Quick test_injected_misspec_recovers;
    Alcotest.test_case "misspeculation with deferred I/O" `Quick test_injected_misspec_with_io;
    Alcotest.test_case "misspeculation with reductions" `Quick test_injected_misspec_with_reductions;
    Alcotest.test_case "stats and breakdown" `Quick test_stats_private_bytes;
    Alcotest.test_case "runtime prediction failure" `Quick test_wrong_prediction_at_runtime_recovers;
    Alcotest.test_case "schedule equivalence" `Quick test_schedule_equivalence;
    Alcotest.test_case "schedule equivalence under misspec" `Quick
      test_schedule_equivalence_under_misspec;
    Alcotest.test_case "schedule-independent I/O order" `Quick test_schedule_io_order;
    Alcotest.test_case "schedule parsing" `Quick test_schedule_of_string;
    Alcotest.test_case "config validation" `Quick test_config_validation;
    Alcotest.test_case "config check names the field" `Quick test_config_check;
    Alcotest.test_case "flag fold fails closed" `Quick test_apply_bindings;
    Alcotest.test_case "runtime config: inert host fields" `Quick test_inert_host_fields;
    Alcotest.test_case "runtime config: removed host knobs" `Quick test_removed_host_knobs;
    Alcotest.test_case "misspec on iteration 0" `Quick test_misspec_on_iteration_zero;
    Alcotest.test_case "misspec on interval's last iteration" `Quick
      test_misspec_on_interval_last_iteration;
    Alcotest.test_case "misspec on the loop's last iteration" `Quick
      test_misspec_on_loop_last_iteration;
    Alcotest.test_case "misspec under serial commit" `Quick test_misspec_under_serial_commit;
    Alcotest.test_case "adaptive period equivalence" `Quick test_adaptive_period_equivalence;
    Alcotest.test_case "adaptive period: clean runs identical" `Quick
      test_adaptive_period_clean_run_identical;
    Alcotest.test_case "adaptive period cuts recovery cost" `Quick
      test_adaptive_period_cuts_recovery;
    Alcotest.test_case "throttle demotes and suspends" `Quick test_throttle_demotes_and_suspends;
    Alcotest.test_case "no throttle: speculation continues" `Quick
      test_throttle_off_keeps_speculating;
    Alcotest.test_case "per-loop stats table" `Quick test_loop_report_totals;
    Alcotest.test_case "fallback induction final value" `Quick
      test_fallback_induction_final_value;
    Alcotest.test_case "cohort spawn and extraction allocation bounds" `Quick
      test_cohort_allocation_bounds;
    Alcotest.test_case "control misspeculation names its branch" `Quick
      test_control_misspec_names_branch ]
