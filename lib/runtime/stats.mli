(** Runtime statistics: the counters behind the paper's Table 3 and
    the Figure 8 overhead breakdown. *)

(** Per-loop runtime health, keyed by the loop's IR node id; the
    executor's misspeculation throttle and the CLI/bench per-loop
    reports read this table. *)
type loop_stats = {
  mutable l_invocations : int;
  mutable l_misspeculations : int;
  mutable l_wall_cycles : int;
      (** wall time of this loop's parallel invocations *)
  mutable l_demotions : int;
      (** invocations demoted mid-flight by the throttle *)
  mutable l_suspended_invocations : int;
      (** invocations run sequentially while suspended *)
}

(** Whole-run counters.  Every field is part of the deterministic
    simulation — none may vary with host settings such as
    concurrent server jobs — except the [ns_*]
    host-time accumulators, which are explicitly host-side
    instrumentation.  The [eager_kills] /
    [squashed_iterations] / [avoided_iterations] fields are simulated
    and host-deterministic, but differ between the two validation
    modes by design once an eager kill fires; the authoritative table
    of every determinism-contract exemption is in [docs/RUNTIME.md]. *)
type t = {
  mutable invocations : int;
  mutable checkpoints : int;
  mutable private_bytes_read : int;
  mutable private_bytes_written : int;
  mutable separation_checks : int;  (** dynamic, non-elided *)
  mutable separation_checks_elided : int;  (** static count *)
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
  mutable eager_kills : int;
      (** intervals an eager sweep stopped at a worker's own
          misspeculation: deterministic at any host setting, exempt
          only from the cross-validation-mode identity surface *)
  mutable eager_checks : int;
      (** Inert, like [eager_hits] and the [par_*]/[seq_*] counters:
          nothing counts into either, so both always read 0.  They
          remain for readers that still name them. *)
  mutable eager_hits : int;
  mutable squashed_iterations : int;
      (** speculative iterations executed inside later-squashed
          intervals (either mode) — the wasted-work metric eager and
          commit validation are compared on *)
  mutable avoided_iterations : int;
      (** iterations of squashed intervals an eager kill skipped *)
  mutable wall_cycles : int;  (** sum over parallel invocations *)
  mutable workers : int;
  mutable ns_merge_fill : float;
      (** Inert, like [ns_merge_sweep]: the merge has no index-fill
          pass any more, so it always reads 0.  Both remain for
          readers that still name them. *)
  mutable ns_merge_validate : float;
      (** host ns in phase 2 — instrumentation, {e not} simulated
          state; varies run to run *)
  mutable ns_merge_sweep : float;
  mutable ns_reset : float;
      (** host ns in the shadow interval reset — instrumentation, like
          [ns_merge_validate] *)
  mutable ns_extract : float;
      (** host ns in checkpoint extraction, which folds every worker's
          writes into the interval's table *)
  mutable ns_spawn : float;  (** host ns in spawn-time snapshot setup *)
  mutable par_resets : int;
      (** Inert, like the other seven [par_*]/[seq_*] counters: no
          engine stage fans out over host domains any more, so they
          always read 0.  They remain for readers that still name
          them. *)
  mutable seq_resets : int;
  mutable par_extracts : int;
  mutable seq_extracts : int;
  mutable par_merges : int;
  mutable seq_merges : int;
  mutable par_spawns : int;
  mutable seq_spawns : int;
  loops : (int, loop_stats) Hashtbl.t;
}

val create : unit -> t
(** A zeroed counter set. *)

(** The per-loop entry for an IR loop id, created on first use. *)
val loop_stats : t -> int -> loop_stats

(** All per-loop entries, sorted by loop id. *)
val loop_table : t -> (int * loop_stats) list

(** Parallel-region capacity: [workers * wall_cycles], the
    denominator of the paper's Figure 8 normalization. *)
val capacity : t -> int

type breakdown = {
  useful : float;
  private_read : float;
  private_write : float;
  checkpoint : float;
  spawn_join : float;
  other : float;  (** residual: elided-check costs, rounding *)
}

(** Percentages of capacity; sums to ~100 for misspeculation-free
    runs. *)
val breakdown : t -> breakdown
