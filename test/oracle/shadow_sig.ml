(** The signature shared by the shadow-metadata implementations.

    Two modules implement it: the range-granular, count-driven
    [Privateer_runtime.Shadow] (the production path) and the per-byte
    {!Shadow_reference} oracle.  Property tests functorize over
    {!module-type-S} so the same workload drives both and their
    observable effects can be compared byte for byte. *)

(** The two private-access kinds the paper's Table 2 distinguishes. *)
type op = Privateer_runtime.Shadow.op = Read | Write

module type S = sig
  (** Apply the Table-2 transition to every metadata byte covering a
      private access on the given worker machine.
      @raise Misspec.Misspeculation on a privacy violation. *)
  val access :
    Privateer_machine.Machine.t -> op -> addr:int -> size:int -> beta:int -> unit

  (** Checkpoint-time reset: every timestamp becomes old-write;
      read-live-in marks are preserved.  Returns the number of mapped
      shadow pages (the simulated cost charge — identical in every
      implementation). *)
  val reset_interval : Privateer_machine.Machine.t -> int
end
