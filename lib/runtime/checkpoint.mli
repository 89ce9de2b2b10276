(** Checkpoint objects and two-phase privacy validation (paper
    sections 5.1–5.2).

    Each interval builds one table, {!t}: extraction folds every
    worker's private writes into it, phase 2 ({!validate}) probes it
    with every worker's live-in bytes, and a clean interval's table is
    installed into the main process ({!apply_overlay}).  Reduction
    partials fold over pre-spawn base values.  Nothing outlives the
    interval: the next one builds a fresh table, so phase 2 sees every
    live-in mark of the cohort but only this interval's writes, and a
    read of a word another worker wrote in an earlier interval of the
    cohort goes unchecked (ROADMAP item 7). *)

open Privateer_interp

val word_base : int -> int
(** The 8-byte word containing a byte address ([addr land lnot 7]) —
    the mask mapping byte-granular live-in marks onto the
    word-granular phase-2 probe. *)

(** What this interval's writes leave in one private word.  Each byte
    takes its latest-iteration writer across workers. *)
type word = {
  stamps : Bytes.t;
      (** 8 bytes: per byte of the word, the latest shadow timestamp
          any worker wrote it at this interval, or ['\000'] where none
          did.  One interval's timestamps share its start, so they
          compare in iteration order. *)
  bits : Bytes.t;
      (** 8 bytes: at each stamped byte, the byte that write left;
          ['\000'] elsewhere *)
  mutable float_tag : bool;
      (** the word's float tag: true only when its eight bytes all
          come from one worker, taken whole with that worker's tag *)
  mutable writer : int;  (** the one worker that wrote the word, or [-1] once two did *)
}

(** One worker's interval state besides its writes, which go into the
    table. *)
type contribution = {
  worker : int;  (** the contributing worker's id *)
  live_in : int list;
      (** the first read-live-in byte (metadata 2) of each private word
          holding one, from every marked shadow page: marks accumulate
          over the cohort *)
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

(** One interval's checkpoint object. *)
type t = {
  words : (int, word) Hashtbl.t;
      (** private word address → what the interval's writes leave in
          it; empty on a write-free interval *)
  contributions : contribution list;
      (** in request order; kept for phase 2, the reduction folds and
          the final commit *)
  total_pages : int;  (** summed page-copy charge across workers *)
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

(** Build the interval's table from every worker: one scan of each
    shadow page holding marks (timestamps or read-live-in marks),
    stopping once the page's exact mark counts are found.  The table
    does not depend on the order of workers or pages. *)
val extract : extract_request list -> t

(** Phase 2: one table probe per live-in word.  A live-in byte
    conflicts when a worker other than its reader wrote its word this
    interval, at any iteration.  The verdict is pinned to the smallest
    conflicting byte address, so it never depends on iteration
    order. *)
val validate : t -> Misspec.reason option

(** Install a clean interval's table into the main process's memory:
    a word stamped in all eight bytes is written whole with its
    [float_tag]; any other word byte by byte (int-tagged, as
    [Memory.write_byte] leaves it), so a byte no worker wrote this
    interval keeps the main process's value. *)
val apply_overlay : Privateer_machine.Machine.t -> t -> unit

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
