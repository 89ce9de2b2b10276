(* The scenario generator (lib/gen): spec grammar, determinism, the
   expected-classification oracle and the planted-conflict
   misspeculation oracle.  Generated scenarios are one of
   test_contract's corpora, which runs them over its lattice of run
   settings. *)

open Privateer
module Scenario_gen = Privateer_gen.Scenario_gen
module Sources = Privateer_gen.Sources
module Workload = Privateer_workloads.Workload
module Workloads = Privateer_workloads.Workloads

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains s frag =
  let ls = String.length s and lf = String.length frag in
  let rec go i = i + lf <= ls && (String.equal (String.sub s i lf) frag || go (i + 1)) in
  go 0

(* ---- spec grammar ------------------------------------------------------- *)

let test_spec_roundtrip () =
  let k =
    { Scenario_gen.default_knobs with
      Scenario_gen.k_seed = 42; k_loops = 3; k_trip = 48; k_misspec = 0.1 }
  in
  match Scenario_gen.knobs_of_spec (Scenario_gen.spec_of_knobs k) with
  | Ok k' -> check "canonical spec round-trips" true (k = k')
  | Error m -> Alcotest.fail m

let test_spec_errors () =
  let bad spec frag =
    match Scenario_gen.knobs_of_spec spec with
    | Ok _ -> Alcotest.fail (Printf.sprintf "spec %S accepted" spec)
    | Error m ->
      check (Printf.sprintf "%S -> %s" spec frag) true (contains m frag)
  in
  bad "" "empty scenario spec";
  bad "trip" "want key=value";
  bad "trip=banana" "expected an integer";
  bad "redux=x" "expected a number";
  bad "zap=1" "unknown scenario knob";
  bad "loops=99" "loops must be in 1..8";
  bad "trip=4" "trip must be in 8..65536";
  bad "misspec=0.5" "misspec must be 0 or in [0.01, 0.2]";
  bad "misspec=0.001" "misspec must be 0 or in [0.01, 0.2]"

let test_deterministic () =
  let k = { Scenario_gen.default_knobs with Scenario_gen.k_seed = 7; k_misspec = 0.1 } in
  let a = Scenario_gen.generate k and b = Scenario_gen.generate k in
  check "same knobs, same source" true
    (String.equal a.Scenario_gen.sc_source b.Scenario_gen.sc_source);
  check "same knobs, same name" true
    (String.equal a.Scenario_gen.sc_name b.Scenario_gen.sc_name);
  let c = Scenario_gen.generate { k with Scenario_gen.k_seed = 8 } in
  check "different seed, different source" false
    (String.equal a.Scenario_gen.sc_source c.Scenario_gen.sc_source)

(* ---- registry integration ----------------------------------------------- *)

let test_workload_of_spec () =
  (match Scenario_gen.workload_of_spec "seed=901,trip=24" with
  | Error m -> Alcotest.fail m
  | Ok wl ->
    check "registered under canonical name" true (Workloads.find wl.Workload.name <> None);
    (match Scenario_gen.workload_of_spec "seed=901,trip=24" with
    | Ok wl' -> check "second resolution is cached" true (wl == wl')
    | Error m -> Alcotest.fail m));
  match Sources.parse "scenario:seed=901,trip=banana" with
  | Ok _ -> Alcotest.fail "bad scenario spec accepted by source loader"
  | Error m -> check "loader surfaces the knob error" true (contains m "expected an integer")

(* A file: source is lexed, parsed and validated at load: a malformed
   one is an [Error] with the positioned message, never a stray
   exception from the job that would have run it. *)
let test_sources_file_fails_closed () =
  let parse_file src =
    let path = Filename.temp_file "source" ".cm" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Out_channel.with_open_text path (fun oc -> output_string oc src);
        Sources.parse ("file:" ^ path))
  in
  let rejected src frag =
    match parse_file src with
    | Ok _ -> Alcotest.fail (Printf.sprintf "malformed source %S accepted" src)
    | Error m -> check (Printf.sprintf "%S -> %s" src frag) true (contains m frag)
  in
  rejected "fn main() { return 99999999999999999999999; }" "Cmini lex error at 1:20";
  rejected "fn main() { return 1e; }" "Cmini lex error at 1:20: bad float literal";
  rejected "fn main() { return 1 +; }" "Cmini parse error at 1:";
  rejected "fn main() { return foo(1); }"
    "Cmini parse error at 1:20: call to unknown function foo";
  rejected "fn main() { return 1; }\nfn main() { return 2; }"
    "Cmini parse error at 2:4: duplicate function main";
  match parse_file "fn main() { return 1; }" with
  | Error m -> Alcotest.fail m
  | Ok s -> check "fresh AST per call" true (s.Sources.src_fresh () != s.Sources.src_fresh ())

(* ---- classification oracle ---------------------------------------------- *)

let compile_scenario (t : Scenario_gen.t) =
  let wl = t.Scenario_gen.sc_workload in
  let program = Workload.program wl in
  let tr, _ =
    Pipeline.compile ~setup:(Workload.setup wl Workload.Train) program
  in
  (wl, program, tr)

let assigned_heap (tr : Privateer_transform.Transform.result) name =
  let obj = Privateer_profile.Objname.Global name in
  List.find_map
    (fun (p : Privateer_analysis.Selection.plan) ->
      Privateer_analysis.Classify.heap_of p.assignment obj)
    tr.selection.plans

let test_expected_classification () =
  let t =
    Scenario_gen.generate
      { Scenario_gen.default_knobs with
        Scenario_gen.k_seed = 5; k_loops = 2; k_misspec = 0.1; k_redux = 1.0 }
  in
  let _, _, tr = compile_scenario t in
  let e = t.Scenario_gen.sc_expect in
  check "enough hot loops selected" true
    (List.length tr.selection.plans >= e.Scenario_gen.x_hot_loops);
  let expect_heap names h label =
    List.iter
      (fun name ->
        match assigned_heap tr name with
        | Some h' ->
          check (Printf.sprintf "%s -> %s heap" name label) true
            (Privateer_ir.Heap.equal_kind h h')
        | None -> Alcotest.fail (Printf.sprintf "%s not assigned anywhere" name))
      names
  in
  expect_heap e.Scenario_gen.x_private Privateer_ir.Heap.Private "private";
  expect_heap e.Scenario_gen.x_redux Privateer_ir.Heap.Redux "redux"

(* ---- planted-conflict oracle -------------------------------------------- *)

let run_one_worker (t : Scenario_gen.t) input =
  let wl, program, tr = compile_scenario t in
  let setup = Workload.setup wl input in
  let seq = Pipeline.run_sequential ~setup program in
  let par =
    Pipeline.run_parallel ~setup
      ~config:{ Privateer_parallel.Runtime_config.default with workers = 1 }
      tr
  in
  (seq, par)

let test_misspec_oracle () =
  List.iter
    (fun (seed, trip, misspec) ->
      let t =
        Scenario_gen.generate
          { Scenario_gen.default_knobs with Scenario_gen.k_seed = seed;
            k_trip = trip; k_misspec = misspec }
      in
      let seq, par = run_one_worker t Workload.Ref in
      let n = trip in
      let expected = Scenario_gen.expected_misspecs t ~n in
      check "one-worker output identical" true
        (String.equal par.Pipeline.par_output seq.Pipeline.seq_output);
      check_int
        (Printf.sprintf "seed=%d trip=%d misspec=%g: exact count" seed trip misspec)
        expected par.Pipeline.stats.Privateer_runtime.Stats.misspeculations;
      (* Realized per-loop rate tracks the knob (docs/SCENARIOS.md:
         the period is round(1/misspec) clamped to >= 5, so the rate
         is faithful up to clamping and trip-count discretization). *)
      let loops = t.Scenario_gen.sc_knobs.Scenario_gen.k_loops in
      let rate = float_of_int expected /. float_of_int (loops * n) in
      check
        (Printf.sprintf "realized rate %.3f within [x0.5, x2] of %.3f" rate misspec)
        true
        (rate >= (misspec /. 2.0) -. 0.001 && rate <= (misspec *. 2.0) +. 0.001))
    [ (1, 64, 0.1); (2, 48, 0.05); (3, 40, 0.2); (9, 64, 0.15) ]

let suite =
  [ Alcotest.test_case "spec round-trip" `Quick test_spec_roundtrip;
    Alcotest.test_case "spec errors" `Quick test_spec_errors;
    Alcotest.test_case "generation is deterministic" `Quick test_deterministic;
    Alcotest.test_case "source loader: malformed file fails closed" `Quick
      test_sources_file_fails_closed;
    Alcotest.test_case "workload_of_spec registers and caches" `Quick
      test_workload_of_spec;
    Alcotest.test_case "expected classification holds" `Quick
      test_expected_classification;
    Alcotest.test_case "misspeculation oracle exact at one worker" `Quick
      test_misspec_oracle ]
