(* Unit tests for the comparison systems: DOALL-only and LRPD. *)

open Privateer
open Privateer_baselines

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let profile src =
  let program = Pipeline.parse src in
  let p, _ = Pipeline.profile program in
  (program, p)

(* ---- DOALL-only -------------------------------------------------------- *)

let affine_src =
  {|global a[256]; global b[256];
fn main() {
  for (j = 0; j < 256) { a[j] = j; }
  for (i = 0; i < 256) { b[i] = a[i] * 2 + 1; }
  var s = 0;
  for (q = 0; q < 256) { s = s + b[q]; }
  return s;
}|}

let test_doall_proves_affine () =
  let program, p = profile affine_src in
  let report = Doall_only.select program p in
  check "chose provable loops" true (report.chosen <> [])

let test_doall_rejects_pointer_loop () =
  let program, p =
    profile
      {|global out[32];
fn main() {
  for (k = 0; k < 32) {
    var n = malloc(1);
    n[0] = k;
    out[k] = n[0];
    free(n);
  }
  return 0;
}|}
  in
  let report = Doall_only.select program p in
  check "nothing chosen" true (report.chosen = []);
  check "rejection mentions allocation" true
    (List.exists (fun (_, _, r) -> r = "dynamic allocation in region") report.rejected)

let test_doall_rejects_scratch_reuse () =
  (* The privatization pattern: same scratch words written every
     iteration -> loop-carried under a non-speculative compiler. *)
  let program, p =
    profile
      {|global scratch[8]; global out[32];
fn main() {
  for (k = 0; k < 32) {
    scratch[0] = k;
    out[k] = scratch[0];
  }
  return 0;
}|}
  in
  let report = Doall_only.select program p in
  check "outer loop not chosen" true
    (List.for_all (fun (c : Doall_only.choice) -> c.d_func <> "main") report.chosen)

let test_doall_rejects_io () =
  let program, p =
    profile
      {|global out[16];
fn main() {
  for (k = 0; k < 16) {
    out[k] = k;
    print("%d\n", k);
  }
  return 0;
}|}
  in
  let report = Doall_only.select program p in
  check "no plan with I/O" true (report.chosen = [])

let test_doall_run_preserves_semantics () =
  let program, p = profile affine_src in
  let report = Doall_only.select program p in
  let seq = Pipeline.run_sequential program in
  let st, result, stats = Doall_only.run ~workers:8 program report ~setup:(fun _ -> ()) in
  check "result equal" true
    (Privateer_interp.Value.equal seq.seq_result result);
  check "invocations counted" true (stats.invocations > 0);
  check "some cycles accounted" true (st.cycles > 0)

let test_doall_unprofitable_skipped () =
  (* Tiny inner loop: provable but below the profitability floor. *)
  let program, p =
    profile
      {|global a[4];
fn main() {
  var s = 0;
  for (o = 0; o < 200) {
    for (i = 0; i < 4) { a[i] = i; }
    s = s + a[0];
  }
  return s;
}|}
  in
  let report = Doall_only.select program p in
  check "tiny loop skipped" true
    (List.exists (fun (_, _, r) -> r = "provable but unprofitable (tiny invocations)")
       report.rejected)

(* ---- LRPD --------------------------------------------------------------- *)

let lrpd_ok_src =
  {|global scratch[16]; global out[128];
fn main() {
  for (k = 0; k < 40) {
    for (i = 0; i < 16) { scratch[i] = k + i; }
    var s = 0;
    for (j = 0; j < 16) { s = s + scratch[j]; }
    out[k] = s;
  }
  return 0;
}|}

let test_lrpd_applicable_on_arrays () =
  let program, p = profile lrpd_ok_src in
  let survey = Lrpd.survey program p in
  (* The hottest loop (the outer one) must be applicable. *)
  match survey with
  | (_, f, _, Lrpd.Applicable) :: _ -> Alcotest.(check string) "hot loop in main" "main" f
  | (_, f, _, Lrpd.Inapplicable r) :: _ ->
    Alcotest.fail (Printf.sprintf "expected applicable, got %s in %s" r f)
  | [] -> Alcotest.fail "no loops surveyed"

let test_lrpd_shadow_test_passes () =
  let program, p = profile lrpd_ok_src in
  match Privateer_analysis.Selection.select program p with
  | { plans = plan :: _; _ } ->
    let r = Lrpd.run_test program ~setup:(fun _ -> ()) ~loop:plan.loop in
    check "privatization criterion holds" true r.passed;
    check "elements were marked" true (r.marked_words > 0)
  | _ -> Alcotest.fail "no plan"

let test_lrpd_shadow_test_fails_on_flow () =
  (* acc carries a value across iterations through memory in a
     non-reduction way: the test must fail the criterion. *)
  let src =
    {|global acc; global out[32];
fn main() {
  acc = 1;
  for (k = 0; k < 32) {
    acc = (acc * 3) % 101;
    out[k] = acc;
  }
  return 0;
}|}
  in
  let program, p = profile src in
  (* Find the k loop directly (selection would reject it). *)
  let loop =
    match
      List.find_opt
        (fun ((f : Privateer_ir.Ast.func), _) -> f.fname = "main")
        (Privateer_ir.Ast.loops_of_program program)
    with
    | Some (_, (id, _)) -> id
    | None -> Alcotest.fail "no loop"
  in
  ignore p;
  let r = Lrpd.run_test program ~setup:(fun _ -> ()) ~loop in
  check "privatization criterion violated" false r.passed

let test_lrpd_inapplicable_on_pointers () =
  let program, p =
    profile
      {|global out[16];
fn main() {
  for (k = 0; k < 16) {
    var node = malloc(1);
    node[0] = k;
    out[k] = node[0];
    free(node);
  }
  return 0;
}|}
  in
  let survey = Lrpd.survey program p in
  match survey with
  | (_, _, _, Lrpd.Inapplicable _) :: _ -> ()
  | _ -> Alcotest.fail "LRPD must be inapplicable with dynamic allocation"

(* ---- feature matrix ------------------------------------------------------ *)

let test_feature_matrix_shape () =
  let rows = Feature_matrix.paper_rows in
  check_int "eight techniques" 8 (List.length rows);
  let privateer = List.nth rows 7 in
  Alcotest.(check string) "last row is Privateer" "Privateer (this work)"
    privateer.technique;
  check "privateer supports everything" true
    (privateer.fully_automatic = Feature_matrix.Yes
    && privateer.pointers_dynamic_alloc = Feature_matrix.Yes
    && privateer.redux_layout_beyond_static = Feature_matrix.Yes);
  (* Rendering shouldn't raise and produces one line per row + 2. *)
  let rendered = Privateer_support.Table.render (Feature_matrix.to_table ()) in
  check_int "rendered lines" 10 (List.length (String.split_on_char '\n' rendered))

let test_probe_on_quickstartish () =
  let program, p = profile lrpd_ok_src in
  let probe = Feature_matrix.probe_program ~name:"demo" program p in
  check "privateer plans" true probe.privateer_plans;
  check "lrpd applicable on the array demo" true probe.lrpd_applicable

let suite =
  [ Alcotest.test_case "DOALL-only proves affine loops" `Quick test_doall_proves_affine;
    Alcotest.test_case "DOALL-only rejects pointer loops" `Quick test_doall_rejects_pointer_loop;
    Alcotest.test_case "DOALL-only rejects scratch reuse" `Quick test_doall_rejects_scratch_reuse;
    Alcotest.test_case "DOALL-only rejects I/O" `Quick test_doall_rejects_io;
    Alcotest.test_case "DOALL-only run preserves semantics" `Quick test_doall_run_preserves_semantics;
    Alcotest.test_case "DOALL-only profitability floor" `Quick test_doall_unprofitable_skipped;
    Alcotest.test_case "LRPD applicable on named arrays" `Quick test_lrpd_applicable_on_arrays;
    Alcotest.test_case "LRPD shadow test passes" `Quick test_lrpd_shadow_test_passes;
    Alcotest.test_case "LRPD shadow test detects flow" `Quick test_lrpd_shadow_test_fails_on_flow;
    Alcotest.test_case "LRPD inapplicable with pointers" `Quick test_lrpd_inapplicable_on_pointers;
    Alcotest.test_case "feature matrix shape" `Quick test_feature_matrix_shape;
    Alcotest.test_case "dynamic probe" `Quick test_probe_on_quickstartish ]

(* ---- R-LRPD ---------------------------------------------------------- *)

let test_r_lrpd_fully_parallel () =
  let program, p = profile lrpd_ok_src in
  match Privateer_analysis.Selection.select program p with
  | { plans = plan :: _; _ } ->
    let r = Lrpd.run_r_lrpd program ~setup:(fun _ -> ()) ~loop:plan.loop in
    check "one stage" true r.fully_parallel;
    check_int "covers all iterations" 40 r.iterations
  | _ -> Alcotest.fail "no plan"

let test_r_lrpd_partially_parallel () =
  (* A loop with exactly one mid-loop flow dependence: iteration 25
     reads what iteration 10 wrote.  R-LRPD must commit [0,25), then
     the rest, in two stages. *)
  let src =
    {|global cell; global out[50];
fn main() {
  cell = 7;
  for (k = 0; k < 50) {
    if (k == 10) { cell = 42; }
    if (k == 25) { out[0] = cell; }
    out[k] = out[k] + k;
  }
  return 0;
}|}
  in
  let program = Pipeline.parse src in
  let loop =
    match
      List.find_opt
        (fun ((f : Privateer_ir.Ast.func), _) -> f.fname = "main")
        (Privateer_ir.Ast.loops_of_program program)
    with
    | Some (_, (id, _)) -> id
    | None -> Alcotest.fail "no loop"
  in
  let r = Lrpd.run_r_lrpd program ~setup:(fun _ -> ()) ~loop in
  check "not fully parallel" false r.fully_parallel;
  check_int "two stages" 2 (List.length r.stages);
  (match r.stages with
  | [ s1; s2 ] ->
    check_int "first stage ends at the violating iteration" 25 s1.stage_hi;
    check_int "second stage resumes there" 25 s2.stage_lo;
    check_int "second stage finishes the loop" 50 s2.stage_hi
  | _ -> Alcotest.fail "stage structure");
  check_int "iterations observed" 50 r.iterations

let test_r_lrpd_least_flow_violation () =
  (* [a] is read in iteration 5 and written in 8 (an anti-dependence),
     then read again in 30; [b] is written in 12 and read in 20.  LRPD
     fails the loop on the anti-dependence alone.  R-LRPD counts only
     a read after an earlier iteration's write, so the least violation
     is iteration 20, not 5 or 30; from 20 on no window iteration
     writes what a later one reads, and the rest is one stage. *)
  let src =
    {|global a; global b; global sink[4]; global out[40];
fn main() {
  a = 1;
  b = 2;
  for (k = 0; k < 40) {
    if (k == 5) { sink[0] = a; }
    if (k == 8) { a = 9; }
    if (k == 12) { b = 3; }
    if (k == 20) { sink[1] = b; }
    if (k == 30) { sink[2] = a; }
    out[k] = k;
  }
  return 0;
}|}
  in
  let program = Pipeline.parse src in
  let loop =
    match
      List.find_opt
        (fun ((f : Privateer_ir.Ast.func), _) -> f.fname = "main")
        (Privateer_ir.Ast.loops_of_program program)
    with
    | Some (_, (id, _)) -> id
    | None -> Alcotest.fail "no loop"
  in
  check "LRPD fails on the anti-dependence" false
    (Lrpd.run_test program ~setup:(fun _ -> ()) ~loop).passed;
  let r = Lrpd.run_r_lrpd program ~setup:(fun _ -> ()) ~loop in
  Alcotest.(check (list (pair int int)))
    "stages cut at the least flow violation"
    [ (0, 20); (20, 40) ]
    (List.map (fun (s : Lrpd.stage) -> (s.stage_lo, s.stage_hi)) r.stages);
  check_int "iterations observed" 40 r.iterations

let suite =
  suite
  @ [ Alcotest.test_case "R-LRPD: fully parallel loop" `Quick test_r_lrpd_fully_parallel;
      Alcotest.test_case "R-LRPD: partially parallel loop" `Quick
        test_r_lrpd_partially_parallel;
      Alcotest.test_case "R-LRPD: stages cut at the least flow violation" `Quick
        test_r_lrpd_least_flow_violation ]
