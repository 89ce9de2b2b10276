(* Runtime statistics: the counters behind the paper's Table 3 and the
   Figure 8 overhead breakdown. *)

(* Per-loop runtime health, keyed by the loop's IR node id.  Feeds the
   throttle's suspension decision and the CLI/bench per-loop report. *)
type loop_stats = {
  mutable l_invocations : int;
  mutable l_misspeculations : int;
  mutable l_wall_cycles : int; (* wall time of this loop's parallel invocations *)
  mutable l_demotions : int; (* invocations demoted mid-flight by the throttle *)
  mutable l_suspended_invocations : int; (* invocations run sequentially while suspended *)
}

type t = {
  mutable invocations : int;
  mutable checkpoints : int;
  mutable private_bytes_read : int;
  mutable private_bytes_written : int;
  mutable separation_checks : int;
  mutable separation_checks_elided : int; (* static count, filled by caller *)
  mutable misspeculations : int;
  mutable recovered_iterations : int;
  mutable iterations : int;
  (* Overhead cycle accounting (Figure 8 categories). *)
  mutable cyc_useful : int;
  mutable cyc_private_read : int;
  mutable cyc_private_write : int;
  mutable cyc_checkpoint : int;
  mutable cyc_spawn : int;
  mutable cyc_join : int;
  mutable cyc_recovery : int;
  (* Eager-validation accounting.  Deterministic within one validation
     mode (pure functions of the simulated execution, identical at any
     host-parallelism setting) but *not* part of the cross-mode
     identity surface after an eager kill: commit mode never kills
     early, so these legitimately differ between --validation eager
     and commit once one fires.  squashed_iterations is maintained in
     both modes: it is the wasted-work metric the two modes are
     compared on. *)
  mutable eager_kills : int; (* intervals cut short by a worker's own misspeculation *)
  (* Inert, like the par_*/seq_* counters below: nothing counts into
     them, so they read 0.  They stay until the benchmark stops
     reading them. *)
  mutable eager_checks : int;
  mutable eager_hits : int;
  mutable squashed_iterations : int;
      (* speculative iterations executed inside intervals that were
         then squashed (their work discarded) — in either mode *)
  mutable avoided_iterations : int;
      (* iterations of squashed intervals never executed because an
         eager kill stopped the interval first: commit mode's waste,
         saved *)
  (* Wall-clock (simulated cycles) of all parallel invocations. *)
  mutable wall_cycles : int;
  mutable workers : int;
  (* Host wall time of phase 2.  Unlike every other field the ns_*
     fields are host-side instrumentation, not simulated state: they
     vary run to run and with host parallelism, and must never feed a
     simulated decision.  ns_merge_fill and ns_merge_sweep are inert
     and read 0: the merge has no fill or sweep pass any more. *)
  mutable ns_merge_fill : float;
  mutable ns_merge_validate : float;
  mutable ns_merge_sweep : float;
  (* Host wall time of the other three interval stages (interval
     reset, checkpoint extraction with its fold into the interval's
     table, spawn setup). *)
  mutable ns_reset : float;
  mutable ns_extract : float;
  mutable ns_spawn : float;
  (* Inert: no stage fans out any more, so these read 0.  They stay
     until the benchmark stops reading them. *)
  mutable par_resets : int;
  mutable seq_resets : int;
  mutable par_extracts : int;
  mutable seq_extracts : int;
  mutable par_merges : int;
  mutable seq_merges : int;
  mutable par_spawns : int;
  mutable seq_spawns : int;
  loops : (int, loop_stats) Hashtbl.t;
}

let create () =
  { invocations = 0; checkpoints = 0; private_bytes_read = 0;
    private_bytes_written = 0; separation_checks = 0; separation_checks_elided = 0;
    misspeculations = 0; recovered_iterations = 0; iterations = 0; cyc_useful = 0;
    cyc_private_read = 0; cyc_private_write = 0; cyc_checkpoint = 0; cyc_spawn = 0;
    cyc_join = 0; cyc_recovery = 0; eager_kills = 0; eager_checks = 0;
    eager_hits = 0; squashed_iterations = 0; avoided_iterations = 0;
    wall_cycles = 0; workers = 0;
    ns_merge_fill = 0.0; ns_merge_validate = 0.0; ns_merge_sweep = 0.0;
    ns_reset = 0.0; ns_extract = 0.0; ns_spawn = 0.0; par_resets = 0;
    seq_resets = 0; par_extracts = 0; seq_extracts = 0; par_merges = 0;
    seq_merges = 0; par_spawns = 0; seq_spawns = 0; loops = Hashtbl.create 4 }

let loop_stats t loop =
  match Hashtbl.find_opt t.loops loop with
  | Some ls -> ls
  | None ->
    let ls =
      { l_invocations = 0; l_misspeculations = 0; l_wall_cycles = 0; l_demotions = 0;
        l_suspended_invocations = 0 }
    in
    Hashtbl.replace t.loops loop ls;
    ls

let loop_table t =
  List.sort
    (fun (a, _) (b, _) -> compare a b)
    (Hashtbl.fold (fun loop ls acc -> (loop, ls) :: acc) t.loops [])

(* Total capacity of the parallel region: cores x duration, the
   denominator of the paper's Figure 8 normalization. *)
let capacity t = t.workers * t.wall_cycles

type breakdown = {
  useful : float;
  private_read : float;
  private_write : float;
  checkpoint : float;
  spawn_join : float;
  other : float;
}

let breakdown t =
  let cap = float_of_int (max 1 (capacity t)) in
  let pct c = 100.0 *. float_of_int c /. cap in
  let useful = pct t.cyc_useful in
  let private_read = pct t.cyc_private_read in
  let private_write = pct t.cyc_private_write in
  let checkpoint = pct t.cyc_checkpoint in
  let spawn_join = pct (t.cyc_spawn + t.cyc_join) in
  let other = max 0.0 (100.0 -. useful -. private_read -. private_write -. checkpoint -. spawn_join) in
  { useful; private_read; private_write; checkpoint; spawn_join; other }
