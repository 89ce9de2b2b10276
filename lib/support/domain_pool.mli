(** What remains of the work-stealing domain pool.  The job server owns
    its domains, so nothing schedules here.  These two names stay only
    because the end-to-end benchmark (perfbench/) names them; delete
    them together with its calls. *)

type kind = Work_stealing

(** Does nothing. *)
val shared : ?kind:kind -> domains:int -> unit -> unit
