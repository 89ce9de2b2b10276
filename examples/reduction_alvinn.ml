(* Reductions: 052.alvinn's weight-delta accumulators.

   The hot loop updates two global arrays only through [x = x +. e]
   and accumulates the epoch error in a scalar — the paper's memory
   and register reductions.  Each worker accumulates partials over
   identity-initialized reduction pages; checkpoints merge them with
   the operator.

   Run with: dune exec examples/reduction_alvinn.exe *)

open Privateer
open Privateer_workloads

let () =
  let wl = Alvinn.workload in
  let program = Workload.program wl in
  let tr, _ = Pipeline.compile ~setup:(Workload.setup wl Train) program in
  let spec = List.hd tr.manifest.loops in
  print_endline "memory reductions (object -> operator):";
  Privateer_profile.Objname.Map.iter
    (fun name op ->
      Printf.printf "  %s -> %s\n"
        (Privateer_profile.Objname.to_string name)
        (Privateer_ir.Pp.binop_str op))
    spec.assignment.redux_ops;
  print_endline "register reductions:";
  List.iter
    (fun (name, cls) ->
      match (cls : Privateer_analysis.Scalars.scalar_class) with
      | Reduction_reg op ->
        Printf.printf "  %s -> %s\n" name (Privateer_ir.Pp.binop_str op)
      | Induction | Private_reg | Live_in -> ())
    spec.scalars;
  let seq = Pipeline.run_sequential ~setup:(Workload.setup wl Ref) program in
  let config = { Privateer_parallel.Runtime_config.default with workers = 16 } in
  let par = Pipeline.run_parallel ~setup:(Workload.setup wl Ref) ~config tr in
  Printf.printf "\nspeedup %.2fx over %d epochs (%d parallel invocations)\n"
    (float_of_int seq.seq_cycles /. float_of_int par.par_cycles)
    par.stats.invocations par.stats.invocations;
  (* Floating-point reductions re-associate, so outputs may differ in
     the last bits; compare with a tolerance. *)
  let close a b =
    String.equal a b
    ||
    let fa = Scanf.sscanf_opt a "epoch %d rmse %f" (fun _ f -> f) in
    let fb = Scanf.sscanf_opt b "epoch %d rmse %f" (fun _ f -> f) in
    match (fa, fb) with
    | Some x, Some y -> abs_float (x -. y) < 1e-6
    | _ -> false
  in
  let la = String.split_on_char '\n' seq.seq_output in
  let lb = String.split_on_char '\n' par.par_output in
  let ok = List.length la = List.length lb && List.for_all2 close la lb in
  Printf.printf "outputs match (within reduction reassociation tolerance): %b\n" ok
