(* What remains of the per-stage host-parallelism controller: its mode
   type, kept so [Runtime_config.t] keeps its [host_controller] field.
   No engine stage fans out any more, so there is nothing to decide. *)

type mode = Auto
