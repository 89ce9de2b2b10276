(** Misspeculation signalling: every way speculation can fail at
    runtime, and the exception workers raise to abort. *)

type reason =
  | Separation of { site : int; addr : int; expected : Privateer_ir.Heap.kind }
      (** a pointer's tag contradicts the compiler's expected heap *)
  | Privacy_flow of { addr : int }
      (** a read returned an earlier iteration's write (Table 2) *)
  | Privacy_conservative of { addr : int }
      (** write over a read-live-in byte (possible false positive) *)
  | Short_lived_escape of { unfreed : int }
      (** short-lived objects outlived their iteration *)
  | Value_prediction of { global : string; offset : int; expected : int }
  | Control of { site : int }  (** a speculated-away branch was taken *)
  | Phase2 of { addr : int }
      (** checkpoint-time cross-worker live-in conflict *)
  | Foreign_heap of { addr : int }
      (** speculative access outside every sanctioned heap *)
  | Redux_violation of { site : int; addr : int }
      (** non-reduction access to the reduction heap *)
  | Injected  (** artificial misspeculation (Figure 9 experiments) *)
  | Worker_fault of string  (** runtime error inside a worker *)

val to_string : reason -> string

exception Misspeculation of reason
