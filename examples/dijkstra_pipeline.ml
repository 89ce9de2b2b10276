(* The paper's motivating example (Figures 2 and 4), staged.

   Walks dijkstra through every compiler stage, printing what each one
   produces: the profile's object map, the heap assignment, the
   transformed code with its re-homed allocation sites, and the
   speculative parallel run.

   Run with: dune exec examples/dijkstra_pipeline.exe *)

open Privateer
open Privateer_workloads
open Privateer_profile

let () =
  let wl = Dijkstra.workload in
  let program = Workload.program wl in
  print_endline "=== 1. pointer-to-object profile (training input) ===";
  let profiler, _ = Pipeline.profile ~setup:(Workload.setup wl Train) program in
  Printf.printf "objects observed: %d\n"
    (Objname.Set.cardinal (Profiler.all_objects profiler));
  List.iter
    (fun (loop, cycles) -> Printf.printf "  loop %d: %d profiled cycles\n" loop cycles)
    (Profiler.loops_by_weight profiler);

  print_endline "\n=== 2. classification and selection (Figure 4) ===";
  let selection = Privateer_analysis.Selection.select program profiler in
  List.iter
    (fun (p : Privateer_analysis.Selection.plan) ->
      print_endline (Privateer_analysis.Classify.to_string p.assignment);
      List.iter
        (fun (pr : Privateer_analysis.Classify.prediction) ->
          Printf.printf "  value prediction: %s+%d == %d\n" pr.pred_global
            pr.pred_offset pr.pred_value)
        p.assignment.predictions)
    selection.plans;

  print_endline "\n=== 3. transformed program (Figure 2b analogue) ===";
  let tr = Privateer_transform.Transform.apply program profiler selection in
  (* Show just the queue functions, where the interesting rewrites are. *)
  List.iter
    (fun (f : Privateer_ir.Ast.func) ->
      if f.fname = "enqueue" || f.fname = "dequeue" then
        print_endline (Privateer_ir.Pp.func_str f))
    tr.program.funcs;
  Printf.printf "separation checks: %d live, %d elided at compile time\n"
    (Privateer_transform.Manifest.live_check_count tr.manifest)
    (Privateer_transform.Manifest.elided_check_count tr.manifest);

  print_endline "\n=== 4. speculative parallel execution (ref input) ===";
  let seq = Pipeline.run_sequential ~setup:(Workload.setup wl Ref) program in
  let config = { Privateer_parallel.Runtime_config.default with workers = 24 } in
  let par = Pipeline.run_parallel ~setup:(Workload.setup wl Ref) ~config tr in
  Printf.printf "speedup %.2fx on %d workers; outputs identical: %b\n"
    (float_of_int seq.seq_cycles /. float_of_int par.par_cycles)
    config.workers
    (String.equal seq.seq_output par.par_output);
  Printf.printf "checkpoints: %d, misspeculations: %d\n" par.stats.checkpoints
    par.stats.misspeculations
