(** Numeric helpers for the evaluation harness. *)

(** Arithmetic mean; [nan] on the empty list. *)
val mean : float list -> float

(** Geometric mean (the paper's headline aggregation); [nan] on the
    empty list. *)
val geomean : float list -> float

(** [percent part whole] is [100 * part / whole] (0 if [whole] is 0). *)
val percent : float -> float -> float

val clamp : float -> float -> float -> float
