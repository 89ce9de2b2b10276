(** The eager in-flight conflict board (validation mode [eager]).

    As workers execute, every private access publishes a coarse
    per-page summary here and is cross-checked against the other
    workers' summaries: the pages each worker wrote this interval, and
    the pages on which each worker's shadow page holds read-live-in
    marks ({!Shadow.live_in_marks}), noted on reads and writes alike.
    A read coarse-hits only on a marked page another worker wrote; a
    write only on a page another worker has marked.  On a coarse hit
    the conflict is confirmed precisely against the shadow metadata
    ({!Shadow.probe}) under the checkpoint merge's own rules, so a
    confirmed conflict is always one phase 2 would also flag this
    interval, and the coarse filter never hides one the precise rules
    would confirm.  Sound but incomplete: no false kills ever, but
    conflicts whose evidence lives outside current-interval metadata
    are missed.  Live-in marks on pages not dirtied this interval are
    left to the commit-time merge.  Writes from earlier intervals are
    caught by no layer, because the merge's writer index holds one
    interval's writes (ROADMAP item 7).  See [docs/SPECULATION.md] for
    the full lifecycle. *)

type t

type conflict = {
  c_addr : int;
      (** the conflicting live-in byte, pinned as in phase 2 *)
  c_earliest_iter : int;
      (** earliest iteration known involved; recovery resumes after it *)
}

val create : unit -> t
(** An empty board: one per parallel invocation. *)

val new_cohort : t -> Privateer_machine.Machine.t array -> unit
(** Register a fresh worker cohort after (re)spawn, worker [i]'s
    machine at index [i], discarding all summaries. *)

val new_interval : t -> interval_start:int -> unit
(** Start a checkpoint interval: summaries reset (nothing checks a
    committed interval's writes again) and timestamps decode against
    the new [interval_start]. *)

val publish :
  t -> worker:int -> op:Shadow.op -> addr:int -> size:int -> iter:int ->
  conflict option
(** Publish one private access, made by [worker] at [iter], right
    after its [Shadow.access]; returns the first confirmed cross-worker
    conflict.  Scans bytes in ascending address order and workers in id
    order, so the verdict is a deterministic function of the simulated
    execution. *)

val checks : t -> int
(** Accesses published since [create]. *)

val hits : t -> int
(** Coarse page hits that ran the precise confirmation. *)
