(* Shared experiment logic for the evaluation harness: compiles each
   workload once per scale, caches sequential baselines, and exposes
   the runs each table/figure needs.  Every parallel run is checked
   against its sequential run before any experiment prints it. *)

open Privateer
open Privateer_workloads

let worker_counts = [ 4; 8; 12; 16; 20; 24 ]

let section title =
  Printf.printf "\n================ %s ================\n\n" title

type compiled = {
  wl : Workload.t;
  scale : int;
  program : Privateer_ir.Ast.program;
  tr : Privateer_transform.Transform.result;
  profiler : Privateer_profile.Profiler.t;
  seq : Pipeline.seq_run; (* ref input, best sequential *)
}

let compiled_cache : (string * int, compiled) Hashtbl.t = Hashtbl.create 8

(* A workload trained and run sequentially at [scale]; scale 1 is the
   paper-sized input every experiment but [scale] uses. *)
let compiled ?(scale = 1) wl =
  let key = (wl.Workload.name, scale) in
  match Hashtbl.find_opt compiled_cache key with
  | Some c -> c
  | None ->
    let program = Workload.program wl in
    let tr, profiler =
      Pipeline.compile ~setup:(Workload.setup ~scale wl Workload.Train) program
    in
    let seq =
      Pipeline.run_sequential ~setup:(Workload.setup ~scale wl Workload.Ref) program
    in
    let c = { wl; scale; program; tr; profiler; seq } in
    Hashtbl.replace compiled_cache key c;
    c

(* A bench's pass/fail gates: exit 2 naming every failed gate. *)
let require gates =
  match List.filter (fun (_, ok) -> not ok) gates with
  | [] -> ()
  | failed ->
    Printf.eprintf "bench gate failed: %s\n" (String.concat ", " (List.map fst failed));
    exit 2

(* One parallel run of [c]'s ref input ([tr] defaults to its plan),
   gated on reproducing the sequential output and result. *)
let run_parallel ?tr ?(workers = 24) ?checkpoint_period ?inject ?(serial_commit = false)
    ?(schedule = Privateer_parallel.Schedule.Cyclic) ?(adaptive = false)
    ?(validation = Privateer_parallel.Runtime_config.Commit) ?(validate = true) c =
  let par =
    Pipeline.run_parallel
      ~setup:(Workload.setup ~scale:c.scale c.wl Workload.Ref)
      ~config:
        { Privateer_parallel.Runtime_config.default with
          workers; checkpoint_period; inject; serial_commit; schedule;
          adaptive_period = adaptive; validation; validate }
      (Option.value tr ~default:c.tr)
  in
  require
    [ ( Printf.sprintf "%s (scale %d, %d workers): parallel output = sequential"
          c.wl.name c.scale workers,
        String.equal par.par_output c.seq.seq_output && par.par_result = c.seq.seq_result )
    ];
  par

let speedup c (par : Pipeline.par_run) =
  float_of_int c.seq.seq_cycles /. float_of_int par.par_cycles

(* Deterministically spaced misspeculation injection: one event every
   1/rate speculatively executed iterations, counted across
   invocations (so per-epoch programs like alvinn see the same
   per-iteration rate as single-invocation ones). *)
let spaced_injection rate =
  if rate <= 0.0 then None
  else begin
    let executed = ref 0 in
    Some
      (fun _iter ->
        incr executed;
        int_of_float (float_of_int !executed *. rate)
        > int_of_float (float_of_int (!executed - 1) *. rate))
  end

(* The (workload x scale x workers) result matrix behind Figures 6
   and 8 and the scale sweep. *)
let matrix_cache : (string * int * int, Pipeline.par_run) Hashtbl.t = Hashtbl.create 32

let matrix_run ?(scale = 1) wl workers =
  let key = (wl.Workload.name, scale, workers) in
  match Hashtbl.find_opt matrix_cache key with
  | Some r -> r
  | None ->
    let r = run_parallel ~workers (compiled ~scale wl) in
    Hashtbl.replace matrix_cache key r;
    r

(* DOALL-only baseline run (Figure 7). *)
let doall_only_run ?(workers = 24) wl =
  let c = compiled wl in
  let report = Privateer_baselines.Doall_only.select c.program c.profiler in
  let st, _, _ =
    Privateer_baselines.Doall_only.run ~workers c.program report
      ~setup:(Workload.setup wl Workload.Ref)
  in
  (report, float_of_int c.seq.seq_cycles /. float_of_int st.cycles)
