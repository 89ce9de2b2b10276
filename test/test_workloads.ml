(* Integration tests over the five evaluation programs: every workload
   must parse, plan its hot loop with the paper's classification
   shape, and execute speculatively with outputs equivalent to
   sequential execution.  Uses the small train/alt inputs to keep the
   suite fast; the ref-input runs live in the bench harness. *)

open Privateer
open Privateer_workloads
open Privateer_profile

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let compile wl =
  let program = Workload.program wl in
  let tr, profiler =
    Pipeline.compile ~setup:(Workload.setup wl Workload.Train) program
  in
  (program, tr, profiler)

(* The port as a cell of the contract harness: both validation modes,
   output and result byte-identical to the sequential run, no
   misspeculation.  Returns the sequential and commit runs. *)
let run_both ?(workers = 8) ?(input = Workload.Alt) wl =
  let _, seq, par, _ = Test_contract.port_cell wl input workers in
  (seq, par)

let plan_of tr =
  match (tr : Privateer_transform.Transform.result).selection.plans with
  | [ p ] -> p
  | plans -> Alcotest.fail (Printf.sprintf "expected 1 plan, got %d" (List.length plans))

let heap_of plan name = Privateer_analysis.Classify.heap_of plan.Privateer_analysis.Selection.assignment name

let test_all_parse_and_validate () =
  List.iter
    (fun wl ->
      let program = Workload.program wl in
      check (wl.Workload.name ^ " validates") true
        (Privateer_ir.Validate.check program = []))
    (Workloads.all ())

let test_all_plan_hot_loop () =
  List.iter
    (fun wl ->
      let _, tr, _ = compile wl in
      check (wl.Workload.name ^ " has a plan") true (tr.selection.plans <> []))
    (Workloads.all ())

let test_dijkstra_assignment_shape () =
  (* Paper Figure 4: Q and pathcost private, nodes short-lived, adj
     read-only; plus the empty-queue value prediction. *)
  let _, tr, _ = compile Dijkstra.workload in
  let plan = plan_of tr in
  check "pathcost private" true (heap_of plan (Objname.Global "pathcost") = Some Privateer_ir.Heap.Private);
  check "Q_head private" true (heap_of plan (Objname.Global "Q_head") = Some Privateer_ir.Heap.Private);
  check "Q_tail private" true (heap_of plan (Objname.Global "Q_tail") = Some Privateer_ir.Heap.Private);
  check "adj read-only" true (heap_of plan (Objname.Global "adj") = Some Privateer_ir.Heap.Read_only);
  check "nodes short-lived" true (not (Objname.Set.is_empty plan.assignment.short_lived));
  check_int "one value prediction" 1 (List.length plan.assignment.predictions);
  let extras = Privateer_analysis.Selection.extras plan in
  check "extras Value+Control+I/O" true
    (List.mem "Value" extras && List.mem "Control" extras && List.mem "I/O" extras)

let test_alvinn_assignment_shape () =
  (* Paper Table 3: reductions on two global arrays + a scalar local;
     four privatized stack arrays. *)
  let _, tr, _ = compile Alvinn.workload in
  let plan = plan_of tr in
  check "dw_ih redux" true (heap_of plan (Objname.Global "dw_ih") = Some Privateer_ir.Heap.Redux);
  check "dw_ho redux" true (heap_of plan (Objname.Global "dw_ho") = Some Privateer_ir.Heap.Redux);
  check "weights read-only" true
    (heap_of plan (Objname.Global "w_ih") = Some Privateer_ir.Heap.Read_only
    && heap_of plan (Objname.Global "w_ho") = Some Privateer_ir.Heap.Read_only);
  let stack_privates =
    Objname.Set.filter
      (fun o -> match o with Objname.Site _ -> true | _ -> false)
      plan.assignment.priv
  in
  check_int "four private stack arrays" 4 (Objname.Set.cardinal stack_privates);
  check "scalar register reduction" true
    (List.exists
       (fun (_, c) ->
         match (c : Privateer_analysis.Scalars.scalar_class) with
         | Reduction_reg _ -> true
         | _ -> false)
       plan.scalars)

let test_swaptions_assignment_shape () =
  (* Paper: mostly short-lived dynamic objects plus private scratch. *)
  let _, tr, _ = compile Swaptions.workload in
  let plan = plan_of tr in
  check "several short-lived names" true
    (Objname.Set.cardinal plan.assignment.short_lived >= 3);
  check "workbuf private" true (heap_of plan (Objname.Global "workbuf") = Some Privateer_ir.Heap.Private);
  check "results private" true (heap_of plan (Objname.Global "results") = Some Privateer_ir.Heap.Private);
  check "params read-only" true (heap_of plan (Objname.Global "params") = Some Privateer_ir.Heap.Read_only)

let test_md5_assignment_shape () =
  let _, tr, _ = compile Enc_md5.workload in
  let plan = plan_of tr in
  check "state private" true (heap_of plan (Objname.Global "md5_state") = Some Privateer_ir.Heap.Private);
  check "digest buffer short-lived" true
    (not (Objname.Set.is_empty plan.assignment.short_lived));
  check "data read-only" true (heap_of plan (Objname.Global "data") = Some Privateer_ir.Heap.Read_only);
  let extras = Privateer_analysis.Selection.extras plan in
  check "extras Control+I/O" true (List.mem "Control" extras && List.mem "I/O" extras)

let test_blackscholes_assignment_shape () =
  let _, tr, _ = compile Blackscholes.workload in
  let plan = plan_of tr in
  (* The prices array is dynamic (allocated in a helper): its site
     must be private. *)
  let dynamic_private =
    Objname.Set.exists
      (fun o -> match o with Objname.Site _ -> true | _ -> false)
      plan.assignment.priv
  in
  check "pointer-reached prices array private" true dynamic_private;
  check "option data read-only" true
    (heap_of plan (Objname.Global "sptprice") = Some Privateer_ir.Heap.Read_only)

let test_md5_known_vector () =
  (* MD5("") = d41d8cd98f00b204e9800998ecf8427e; our digest prints the
     four state words (little-endian bytes per word). *)
  let wl = Enc_md5.workload in
  let program = Workload.program wl in
  let setup st =
    List.iter (fun (g, v) -> Pipeline.set_global st g v)
      [ ("ndatasets", 1); ("dsize", 0); ("seed", 1) ]
  in
  let seq = Pipeline.run_sequential ~setup program in
  Alcotest.(check string) "empty-message digest"
    "0: d98c1dd4 4b2008f 980980e9 7e42f8ec\n" seq.seq_output

(* [run_both] asserts the equivalence: byte-identical, alvinn's float
   reductions included, since the reduction fold's order is fixed. *)
let test_outputs_equivalent_alt_input () =
  List.iter (fun wl -> ignore (run_both wl)) Workloads.builtin

let test_profile_stability_alt () =
  (* The paper: profiling with a third input (alt) generates identical
     code.  Here: same selected loop and same site->heap map. *)
  List.iter
    (fun wl ->
      let program = Workload.program wl in
      let tr1, _ =
        Pipeline.compile ~setup:(Workload.setup wl Workload.Train) program
      in
      let tr2, _ =
        Pipeline.compile ~setup:(Workload.setup wl Workload.Alt) program
      in
      let loops1 = List.map (fun (p : Privateer_analysis.Selection.plan) -> p.loop) tr1.selection.plans in
      let loops2 = List.map (fun (p : Privateer_analysis.Selection.plan) -> p.loop) tr2.selection.plans in
      check (wl.Workload.name ^ " same loops selected") true (loops1 = loops2);
      let m1 = List.sort compare tr1.manifest.site_heap in
      let m2 = List.sort compare tr2.manifest.site_heap in
      check (wl.Workload.name ^ " same heap assignment") true (m1 = m2))
    (Workloads.all ())

let test_speedup_on_ref_dijkstra () =
  let seq, par = run_both ~workers:24 ~input:Workload.Ref Dijkstra.workload in
  let speedup = float_of_int seq.seq_cycles /. float_of_int par.par_cycles in
  check "dijkstra speedup > 8x at 24 workers" true (speedup > 8.0)

(* ---- registry + scale API ----------------------------------------------- *)

let test_input_of_name () =
  List.iter
    (fun input ->
      match Workload.input_of_name (Workload.input_name input) with
      | Ok i -> check ("roundtrip " ^ Workload.input_name input) true (i = input)
      | Error m -> Alcotest.fail m)
    [ Workload.Train; Workload.Ref; Workload.Alt ];
  match Workload.input_of_name "bogus" with
  | Ok _ -> Alcotest.fail "input_of_name accepted \"bogus\""
  | Error m ->
    check "error names the choices" true
      (String.length m > 0 && m.[String.length m - 1] = ')')

let test_program_caching () =
  List.iter
    (fun wl ->
      check (wl.Workload.name ^ " program parses once") true
        (Workload.program wl == Workload.program wl);
      check (wl.Workload.name ^ " fresh_program bypasses the cache") true
        (Workload.fresh_program wl != Workload.program wl);
      check (wl.Workload.name ^ " fresh_program is fresh each call") true
        (Workload.fresh_program wl != Workload.fresh_program wl))
    (Workloads.all ())

let test_check_scale_errors () =
  List.iter
    (fun wl ->
      (match Workload.check_scale wl 0 with
      | Ok () -> Alcotest.fail (wl.Workload.name ^ ": scale 0 accepted")
      | Error m ->
        check (wl.Workload.name ^ " scale-0 message") true
          (String.length m >= 17 && String.sub m 0 17 = "scale must be >= "));
      match Workload.check_scale wl (wl.Workload.max_scale + 1) with
      | Ok () -> Alcotest.fail (wl.Workload.name ^ ": scale beyond max accepted")
      | Error _ -> ())
    (Workloads.all ());
  match Workload.params ~scale:99 Dijkstra.workload Workload.Ref with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "params ~scale:99 did not raise"

let test_scale_monotonic_cycles () =
  (* The --scale contract on the train input (ref-input growth is the
     bench `scale` experiment's gate): sequential cycles must grow
     strictly with the scale factor on every port. *)
  List.iter
    (fun wl ->
      let program = Workload.program wl in
      let cycles =
        List.init (min 3 wl.Workload.max_scale) (fun i ->
            let s = i + 1 in
            let seq =
              Pipeline.run_sequential ~setup:(Workload.setup ~scale:s wl Workload.Train)
                program
            in
            seq.seq_cycles)
      in
      let rec strictly = function
        | a :: (b :: _ as rest) -> a < b && strictly rest
        | _ -> true
      in
      check (wl.Workload.name ^ " train cycles grow with scale") true (strictly cycles);
      check (wl.Workload.name ^ " exposes scale range") true (wl.Workload.max_scale >= 2))
    (Workloads.all ())

let test_registry () =
  (match Workloads.lookup "no-such-workload" with
  | Ok _ -> Alcotest.fail "lookup found a ghost"
  | Error m ->
    let has frag =
      let ls = String.length m and lf = String.length frag in
      let rec go i = i + lf <= ls && (String.sub m i lf = frag || go (i + 1)) in
      go 0
    in
    check "canonical unknown-workload error" true
      (has "unknown workload" && has "dijkstra" && has "alvinn"));
  (match Workloads.register Dijkstra.workload with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "registering over a builtin was allowed");
  let dummy =
    Workload.make ~name:"test-registry-dummy" ~description:"registry test"
      ~source:"fn main() { print 1; }" (fun _ ~scale:_ -> [])
  in
  Workloads.register dummy;
  check "registered workload resolves" true (Workloads.find "test-registry-dummy" <> None);
  let before = List.length (Workloads.all ()) in
  Workloads.register dummy;
  check "re-registration is idempotent" true (List.length (Workloads.all ()) = before)

let suite =
  [ Alcotest.test_case "all workloads parse" `Quick test_all_parse_and_validate;
    Alcotest.test_case "all workloads plan" `Quick test_all_plan_hot_loop;
    Alcotest.test_case "dijkstra: Figure-4 assignment" `Quick test_dijkstra_assignment_shape;
    Alcotest.test_case "alvinn: reductions + stack arrays" `Quick test_alvinn_assignment_shape;
    Alcotest.test_case "swaptions: short-lived matrices" `Quick test_swaptions_assignment_shape;
    Alcotest.test_case "enc-md5: private state" `Quick test_md5_assignment_shape;
    Alcotest.test_case "blackscholes: dynamic prices array" `Quick test_blackscholes_assignment_shape;
    Alcotest.test_case "enc-md5: RFC 1321 empty digest" `Quick test_md5_known_vector;
    Alcotest.test_case "input names round-trip" `Quick test_input_of_name;
    Alcotest.test_case "program AST is parse-once cached" `Quick test_program_caching;
    Alcotest.test_case "check_scale rejects out-of-range" `Quick test_check_scale_errors;
    Alcotest.test_case "train cycles grow strictly with --scale" `Quick
      test_scale_monotonic_cycles;
    Alcotest.test_case "par ~ seq on alt inputs" `Slow test_outputs_equivalent_alt_input;
    Alcotest.test_case "profile stability (alt)" `Slow test_profile_stability_alt;
    Alcotest.test_case "dijkstra ref speedup" `Slow test_speedup_on_ref_dijkstra;
    (* Last: registers a dummy into the process-global registry, which
       Workloads.all-driven tests above must not observe. *)
    Alcotest.test_case "registry: lookup error, register rules" `Quick test_registry ]
