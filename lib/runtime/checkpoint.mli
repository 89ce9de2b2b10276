(** Checkpoint objects and two-phase privacy validation (paper
    sections 5.1–5.2).

    Per interval, each worker contributes its speculative state; the
    merge validates cross-worker live-in reads (phase 2), combines
    private writes last-writer-wins by iteration, and folds reduction
    partials over pre-spawn base values.  The merge state is carried
    across intervals ({!merge_state}) so per-interval merge cost is
    proportional to that interval's new entries — zero for a clean
    interval — instead of re-allocating and re-filling the index each
    time. *)

open Privateer_interp

(** One committed-candidate write: the winning iteration plus the
    word's bits and float tag as read from the worker's memory. *)
type word_write = { iter : int; bits : int64; is_float : bool }

val word_base : int -> int
(** The 8-byte word containing a byte address ([addr land lnot 7]) —
    the mask mapping byte-granular live-in marks onto the word-granular
    write tracking in the phase-2 probe. *)

(** One worker's interval state, as extracted from its dirty shadow
    pages.  Its cost follows what the worker touched: the tables start
    at the smallest size and grow with the worker's writes and live-in
    reads, and the reduction partials are one flat buffer. *)
type contribution = {
  worker : int;  (** the contributing worker's id *)
  writes : (int, word_write) Hashtbl.t;
      (** private word address → last write this interval *)
  live_in_reads : (int, unit) Hashtbl.t;
      (** byte addresses read as live-in (metadata 2) *)
  redux_words : Bytes.t;
      (** reduction partial snapshot, flat and unboxed: for the [n]
          words of the requested reduction ranges in range order, [n]
          8-byte little-endian words, then [n] float-tag bytes
          (['\000'] int) — copied page by page with
          [Memory.read_words] *)
  reg_partials : (string * Value.t) list;
      (** register-reduction partials *)
  pages_touched : int;  (** for simulated copy-cost accounting *)
}

(** What [extract] needs from one worker: its id, its machine, the
    reduction-heap ranges to snapshot and the register partials read
    from its frame. *)
type extract_request = {
  req_worker : int;
  req_machine : Privateer_machine.Machine.t;
  req_redux_ranges : (int * int * Privateer_ir.Ast.binop) list;
  req_reg_partials : (string * Value.t) list;
}

(** Extract every worker's interval contribution by scanning the
    shadow pages each worker dirtied since the interval started
    (straight off the shadow bank's dirty index; pages without
    timestamp/read-live-in summary flags are skipped).  Shadow
    timestamps decode into iteration numbers relative to
    [interval_start]. *)
val extract : interval_start:int -> extract_request list -> contribution list

(** Single-worker {!extract}, for tests. *)
val contribution_of_worker :
  worker:int ->
  interval_start:int ->
  Privateer_machine.Machine.t ->
  redux_ranges:(int * int * Privateer_ir.Ast.binop) list ->
  reg_partials:(string * Value.t) list ->
  contribution

(** A validated, merged checkpoint interval. *)
type merged = {
  overlay : (int, word_write) Hashtbl.t;
      (** winning (latest-iteration) write per word address *)
  contributions : contribution list;
      (** kept for recovery and the final commit *)
  violation : Misspec.reason option;
      (** phase-2 conflict, if any — pinned to the smallest
          conflicting byte address, so it never depends on hash
          iteration order *)
  total_pages : int;  (** summed page-copy charge across workers *)
}

(** The word→writer index carried across one worker cohort's
    intervals.  Because contributions are per-interval deltas, the
    index holds one interval's entries during a merge and is swept
    back to empty before the merge returns: the allocation persists,
    the content is per-interval, and a clean interval (no new writes)
    does no index work at all.  Phase 2 therefore sees only the
    interval's own writes (ROADMAP item 7). *)
type merge_state

(** A fresh carried index (one per worker cohort / spawn), starting at
    the smallest table size; it grows with the largest interval's
    writes and keeps that size for the cohort. *)
val create_merge_state : unit -> merge_state

(** Total index mutations (inserts, multi-writer updates, removals)
    performed through this state — the observable for the
    no-work-on-clean-intervals regression test.  Each contributed word
    costs an insert, at most one multi-writer update, and a sweep
    removal. *)
val index_ops : merge_state -> int

(** Cumulative host wall time this state has spent per merge phase.
    Instrumentation only: host time never feeds back into simulated
    state. *)
type phase_ns = { fill_ns : float; validate_ns : float; sweep_ns : float }

val phase_timings : merge_state -> phase_ns

(** Phase-2 validation plus last-writer-wins merge, as three passes
    over the writer index: index fill, phase-2 validation (one O(1)
    probe per live-in byte, not a scan over every writer's
    contribution), and delta sweep.  Passing [?state] reuses the
    carried index (cost proportional to this interval's entries; an
    interval with no new writes short-circuits all three passes
    entirely); omitting it builds a fresh ephemeral index with
    identical semantics. *)
val merge : ?state:merge_state -> contribution list -> merged

(** Install a merged overlay into the main process's memory. *)
val apply_overlay : Privateer_machine.Machine.t -> merged -> unit

(** Absolute reduction values: [base op partial_1 op ... op partial_n]
    per word of the given ranges.  [base] and every contribution's
    [redux_words] list the ranges' words in range order, so the fold is
    one pass over the contributions, O(words x contributions), that
    folds each word left in contribution order into an unboxed
    accumulator.  Every value, floats included, equals the per-word
    left fold of [Reduction.merge_values] bit for bit: a float operator
    widens an int-tagged base or partial, an int operator on a
    float-tagged one raises the same [Value.Runtime_error] (same text,
    same first failing contribution and word), and with no
    contributions the result is [base]. *)
val merge_redux :
  redux_ranges:(int * int * Privateer_ir.Ast.binop) list ->
  base:(int * Value.t) list ->
  contribution list ->
  (int * Value.t) list

(** Same combination for register-reduction partials. *)
val merge_reg_partials :
  ops:(string * Privateer_ir.Ast.binop) list ->
  base:(string * Value.t) list ->
  contribution list ->
  (string * Value.t) list
