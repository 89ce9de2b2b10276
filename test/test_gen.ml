(* The scenario generator (lib/gen): spec grammar, determinism, the
   expected-classification oracle, the planted-conflict misspeculation
   oracle, and the qcheck fuzzer the corpus doubles as.

   The fuzz property is the generator's reason to exist: for random
   knobs, the generated program's parallel run must reproduce the
   sequential output byte-for-byte — at one worker (where the planted
   misspeculation count is exact), at four workers, and under both
   validation modes (eager = commit on clean
   scenarios; both = sequential on conflicted ones).  GEN_FUZZ_COUNT
   scales the case count (default 25). *)

open Privateer
module Scenario_gen = Privateer_gen.Scenario_gen
module Sources = Privateer_gen.Sources
module Workload = Privateer_workloads.Workload
module Workloads = Privateer_workloads.Workloads

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let fuzz_count =
  match Sys.getenv_opt "GEN_FUZZ_COUNT" with
  | Some s -> ( match int_of_string_opt s with Some n when n >= 1 -> n | _ -> 25)
  | None -> 25

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

(* ---- classification oracle ---------------------------------------------- *)

(* Plan-content assertions need the full profile, regardless of the
   PRIVATEER_PROFILERS environment the suite runs under. *)
let full_profile =
  { Privateer_parallel.Runtime_config.default with profilers = [ "all" ] }

let compile_scenario (t : Scenario_gen.t) =
  let wl = t.Scenario_gen.sc_workload in
  let program = Workload.program wl in
  let tr, _ =
    Pipeline.compile ~config:full_profile ~setup:(Workload.setup wl Workload.Train)
      program
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

let run_scenario ?(workers = 1) ?(validation = Privateer_parallel.Runtime_config.Commit)
    (t : Scenario_gen.t) input =
  let wl, program, tr = compile_scenario t in
  let setup = Workload.setup wl input in
  let seq = Pipeline.run_sequential ~setup program in
  let par =
    Pipeline.run_parallel ~setup
      ~config:
        { Privateer_parallel.Runtime_config.default with workers; validation }
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
      let seq, par = run_scenario ~workers:1 t Workload.Ref in
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

(* ---- fuzz --------------------------------------------------------------- *)

let knob_gen =
  QCheck.Gen.(
    let* seed = int_bound 999_999 in
    let* loops = 1 -- 2 in
    let* trip = map (fun i -> 24 + (8 * i)) (int_bound 5) in
    let* heap = map (fun i -> 16 * (1 + i)) (int_bound 7) in
    let* reuse = 1 -- 6 in
    let* redux = oneofl [ 0.0; 0.25; 0.5; 0.75; 1.0 ] in
    let+ misspec = oneofl [ 0.0; 0.0; 0.05; 0.1; 0.15 ] in
    { Scenario_gen.k_seed = seed; k_loops = loops; k_trip = trip; k_heap = heap;
      k_reuse = reuse; k_redux = redux; k_misspec = misspec })

let knob_arb =
  QCheck.make ~print:Scenario_gen.spec_of_knobs knob_gen

let fuzz_identity =
  QCheck.Test.make ~name:"fuzz: seq = par, eager = commit, oracle exact" ~count:fuzz_count
    knob_arb (fun knobs ->
      let t = Scenario_gen.generate knobs in
      let open Pipeline in
      (* One worker: exact misspeculation oracle. *)
      let seq, par1 = run_scenario ~workers:1 t Workload.Ref in
      let n = knobs.Scenario_gen.k_trip in
      let expected = Scenario_gen.expected_misspecs t ~n in
      let ok1 =
        String.equal par1.par_output seq.seq_output
        && par1.par_result = seq.seq_result
        && par1.stats.Privateer_runtime.Stats.misspeculations = expected
      in
      (* Both validation modes at 4 workers. *)
      let cells =
        List.map
          (fun validation -> snd (run_scenario ~workers:4 ~validation t Workload.Ref))
          [ Privateer_parallel.Runtime_config.Commit; Privateer_parallel.Runtime_config.Eager ]
      in
      let outputs_ok =
        List.for_all
          (fun (par : par_run) ->
            String.equal par.par_output seq.seq_output
            && par.par_result = seq.seq_result
            && par.stats.Privateer_runtime.Stats.misspeculations <= expected)
          cells
      in
      (* Clean scenarios: eager is indistinguishable from commit,
         cycles included. *)
      let clean_ok =
        knobs.Scenario_gen.k_misspec > 0.0
        ||
        match cells with
        | first :: rest ->
          List.for_all
            (fun (par : par_run) ->
              par.par_cycles = first.par_cycles
              && par.stats.Privateer_runtime.Stats.checkpoints
                 = first.stats.Privateer_runtime.Stats.checkpoints
              && String.equal par.par_output first.par_output)
            rest
          && first.stats.Privateer_runtime.Stats.misspeculations = 0
        | [] -> false
      in
      if not (ok1 && outputs_ok && clean_ok) then
        QCheck.Test.fail_reportf
          "scenario %s: one-worker %b (misspecs %d vs expected %d), cells %b, clean %b"
          (Scenario_gen.spec_of_knobs knobs)
          ok1 par1.stats.Privateer_runtime.Stats.misspeculations expected
          outputs_ok clean_ok;
      true)

let suite =
  List.map QCheck_alcotest.to_alcotest [ fuzz_identity ]
  @ [ Alcotest.test_case "spec round-trip" `Quick test_spec_roundtrip;
      Alcotest.test_case "spec errors" `Quick test_spec_errors;
      Alcotest.test_case "generation is deterministic" `Quick test_deterministic;
      Alcotest.test_case "workload_of_spec registers and caches" `Quick
        test_workload_of_spec;
      Alcotest.test_case "expected classification holds" `Quick
        test_expected_classification;
      Alcotest.test_case "misspeculation oracle exact at one worker" `Quick
        test_misspec_oracle ]
