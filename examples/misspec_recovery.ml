(* Misspeculation and recovery (paper section 5.3, Figure 9).

   Injects artificial misspeculation into swaptions at increasing
   rates and shows (a) output correctness is always preserved by
   checkpoint-based recovery, (b) performance degrades with the
   misspeculation rate, since each event squashes an interval and
   re-executes it sequentially, and (c) the adaptive checkpoint
   period recovers much of that loss: once failures cluster, the
   engine halves the interval — bounding each squash-and-re-execute —
   and grows it back over clean intervals, so checkpoint + recovery
   cycles drop versus the fixed period at identical output.

   Run with: dune exec examples/misspec_recovery.exe *)

open Privateer
open Privateer_workloads

(* Deterministically spaced injection. *)
let spaced rate =
  if rate <= 0.0 then None
  else
    Some
      (fun iter ->
        int_of_float (float_of_int (iter + 1) *. rate)
        > int_of_float (float_of_int iter *. rate))

let () =
  let wl = Swaptions.workload in
  let program = Workload.program wl in
  let tr, _ = Pipeline.compile ~setup:(Workload.setup wl Train) program in
  let seq = Pipeline.run_sequential ~setup:(Workload.setup wl Ref) program in
  let run ~rate ~adaptive =
    let config =
      { Privateer_parallel.Runtime_config.default with workers = 24;
        inject = spaced rate; adaptive_period = adaptive }
    in
    Pipeline.run_parallel ~setup:(Workload.setup wl Ref) ~config tr
  in
  let table =
    Privateer_support.Table.create
      ~aligns:[ Right; Right; Right; Right; Right; Right; Right ]
      [ "misspec rate"; "period"; "speedup"; "misspecs"; "recovered iters";
        "ckpt+rec cycles"; "output ok" ]
  in
  List.iter
    (fun rate ->
      List.iter
        (fun adaptive ->
          let par = run ~rate ~adaptive in
          Privateer_support.Table.add_row table
            [ Printf.sprintf "%.2f%%" (100.0 *. rate);
              (if adaptive then "adaptive" else "fixed");
              Privateer_support.Table.fx
                (float_of_int seq.seq_cycles /. float_of_int par.par_cycles);
              string_of_int par.stats.misspeculations;
              string_of_int par.stats.recovered_iterations;
              string_of_int (par.stats.cyc_checkpoint + par.stats.cyc_recovery);
              string_of_bool (String.equal seq.seq_output par.par_output) ])
        (if rate = 0.0 then [ false ] else [ false; true ]))
    [ 0.0; 0.002; 0.005; 0.01; 0.02; 0.05 ];
  Privateer_support.Table.print table;
  (* The acceptance check: on a misspec-heavy configuration the
     adaptive period must beat the fixed one on checkpoint + recovery
     cycles at equal output. *)
  let rate = 0.02 in
  let fixed = run ~rate ~adaptive:false in
  let adaptive = run ~rate ~adaptive:true in
  let cost (p : Pipeline.par_run) = p.stats.cyc_checkpoint + p.stats.cyc_recovery in
  Printf.printf
    "\nat %.1f%% injection: fixed ckpt+rec %d cycles, adaptive %d cycles (%.0f%% less), outputs %s\n"
    (100.0 *. rate) (cost fixed) (cost adaptive)
    (100.0 *. (1.0 -. (float_of_int (cost adaptive) /. float_of_int (cost fixed))))
    (if
       String.equal fixed.par_output adaptive.par_output
       && String.equal fixed.par_output seq.seq_output
     then "identical"
     else "DIFFER (bug)");
  assert (cost adaptive < cost fixed)
