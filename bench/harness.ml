(* Shared experiment logic for the evaluation harness: compiles each
   workload once, caches sequential baselines, and exposes the runs
   each table/figure needs. *)

open Privateer
open Privateer_workloads

let worker_counts = [ 4; 8; 12; 16; 20; 24 ]

type compiled = {
  wl : Workload.t;
  program : Privateer_ir.Ast.program;
  tr : Privateer_transform.Transform.result;
  profiler : Privateer_profile.Profiler.t;
  seq : Pipeline.seq_run; (* ref input, best sequential *)
}

let compile_workload wl =
  let program = Workload.program wl in
  let tr, profiler = Pipeline.compile ~setup:(Workload.setup wl Workload.Train) program in
  let seq = Pipeline.run_sequential ~setup:(Workload.setup wl Workload.Ref) program in
  { wl; program; tr; profiler; seq }

let compiled_cache : (string, compiled) Hashtbl.t = Hashtbl.create 8

let compiled wl =
  match Hashtbl.find_opt compiled_cache wl.Workload.name with
  | Some c -> c
  | None ->
    let c = compile_workload wl in
    Hashtbl.replace compiled_cache wl.Workload.name c;
    c

let config ?(workers = 24) ?checkpoint_period ?inject ?(serial_commit = false)
    ?(schedule = Privateer_parallel.Schedule.Cyclic) ?(adaptive = false) ?throttle
    ?(validation = Privateer_parallel.Runtime_config.default_validation) () =
  { Privateer_parallel.Runtime_config.default with
    workers; checkpoint_period; inject; serial_commit; schedule;
    adaptive_period = adaptive; throttle; validation }

let run_parallel ?workers ?checkpoint_period ?inject ?serial_commit ?schedule
    ?adaptive ?throttle ?validation c =
  Pipeline.run_parallel
    ~setup:(Workload.setup c.wl Workload.Ref)
    ~config:
      (config ?workers ?checkpoint_period ?inject ?serial_commit ?schedule ?adaptive
         ?throttle ?validation ())
    c.tr

(* A bench's pass/fail gates: exit 2 naming every failed gate.  Call it
   after the JSON artifact is written, so a failure can be inspected. *)
let require gates =
  match List.filter (fun (_, ok) -> not ok) gates with
  | [] -> ()
  | failed ->
    Printf.eprintf "bench gate failed: %s\n" (String.concat ", " (List.map fst failed));
    exit 2

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

(* The (workload x workers) result matrix behind Figures 6 and 8. *)
let matrix_cache : (string * int, Pipeline.par_run) Hashtbl.t = Hashtbl.create 32

let matrix_run wl workers =
  match Hashtbl.find_opt matrix_cache (wl.Workload.name, workers) with
  | Some r -> r
  | None ->
    let c = compiled wl in
    let r = run_parallel ~workers c in
    Hashtbl.replace matrix_cache (wl.Workload.name, workers) r;
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
