(** Runtime values: 63-bit integers (doubling as pointers) and floats,
    with the word encoding used by the simulated memory. *)

type t = VInt of int | VFloat of float

(** Every program fault: a float where an int is expected here, and
    division by zero, an unbound local or a bad arity in the
    interpreter, which re-exports it as [Interp.Runtime_error]. *)
exception Runtime_error of string

(** @raise Runtime_error on floats. *)
val as_int : t -> int

(** Integers coerce to floats. *)
val as_float : t -> float

(** [(bits, is_float)] word image for memory. *)
val to_bits : t -> int64 * bool

val of_bits : int64 -> bool -> t

(** Structural equality; NaN equals NaN (determinism over IEEE). *)
val equal : t -> t -> bool

val to_string : t -> string
