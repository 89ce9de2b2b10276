(* The Privateer pipeline: the public, end-to-end API.

   profile (train input) -> classify & select -> transform ->
   speculative parallel execution (ref input), with sequential
   execution of the original program as the baseline.

   [setup] callbacks poke input parameters (sizes, seeds) into scalar
   globals after the interpreter lays the program out and before the
   entry function runs — the workload's "command line". *)

open Privateer_interp
open Privateer_profile
open Privateer_analysis
open Privateer_transform
open Privateer_runtime
open Privateer_parallel

type setup = Interp.t -> unit

let no_setup : setup = fun _ -> ()

(* Set a scalar global's value; the canonical setup helper. *)
let set_global (st : Interp.t) name v =
  match Hashtbl.find_opt st.globals name with
  | Some addr -> Privateer_machine.Machine.set_int st.machine addr v
  | None -> invalid_arg ("Pipeline.set_global: unknown global " ^ name)

(* ---- stage wrappers -------------------------------------------------- *)

let parse = Privateer_lang.Parser.parse_program_exn

(* Profile a training run.  [config.profilers] selects the profiler
   set.  The profiling wall time is stamped on the profiler —
   reporting only, exempt from the determinism contract. *)
let profile ?(setup = no_setup) ?(config = Runtime_config.default) program =
  let st = Interp.create ~cost:Cost.default program in
  let p = Profiler.create ~profilers:config.Runtime_config.profilers () in
  Profiler.attach p st;
  setup st;
  let t0 = Privateer_support.Clock.now_ns () in
  ignore (Interp.run_entry st);
  Profiler.set_wall_ns p (Privateer_support.Clock.now_ns () -. t0);
  (p, st)

(* Profile, select, transform. *)
let compile ?(setup = no_setup) ?config program =
  let profiler, _ = profile ~setup ?config program in
  let selection = Selection.select program profiler in
  let result = Transform.apply program profiler selection in
  (result, profiler)

(* Sequential run of any program (original or transformed). *)
type seq_run = { seq_cycles : int; seq_output : string; seq_result : Value.t }

let run_sequential ?(setup = no_setup) ?(cost = Cost.default) program =
  let st = Interp.create ~cost program in
  setup st;
  let result = Interp.run_entry st in
  { seq_cycles = st.cycles; seq_output = Interp.output st; seq_result = result }

(* Speculative parallel run of a transformed program. *)
type par_run = {
  par_cycles : int;
  par_output : string;
  par_result : Value.t;
  stats : Stats.t;
  fallbacks : int;
}

let run_parallel ?(setup = no_setup) ?(config = Runtime_config.default)
    (tr : Transform.result) =
  let st = Interp.create ~cost:config.Runtime_config.costs.base tr.program in
  let ex = Executor.create tr.manifest config in
  ex.stats.separation_checks_elided <- Manifest.elided_check_count tr.manifest;
  Executor.install ex st;
  setup st;
  let result = Interp.run_entry st in
  { par_cycles = st.cycles; par_output = Interp.output st; par_result = result;
    stats = ex.stats; fallbacks = ex.fallbacks }

(* Per-loop engine health of a parallel run, sorted by loop id:
   invocations, misspeculations, wall cycles, throttle demotions. *)
let loop_report (run : par_run) = Stats.loop_table run.stats

(* ---- whole-experiment convenience ------------------------------------ *)

type experiment = {
  sequential : seq_run;
  parallel : par_run;
  speedup : float;
  transform : Transform.result;
}

(* Profile on [train], evaluate on [run] — the paper's methodology
   (train vs ref inputs). *)
let experiment ?(train = no_setup) ?(run = no_setup)
    ?(config = Runtime_config.default) program =
  let tr, _profiler = compile ~setup:train ~config program in
  let sequential = run_sequential ~setup:run program in
  let parallel = run_parallel ~setup:run ~config tr in
  let speedup = float_of_int sequential.seq_cycles /. float_of_int parallel.par_cycles in
  { sequential; parallel; speedup; transform = tr }
