(* What remains of the work-stealing domain pool: the job server owns
   its domains, so [shared] has nothing to create.  Kept only for the
   end-to-end benchmark (perfbench/), which names both values. *)

type kind = Work_stealing

let shared ?kind:(_ = Work_stealing) ~domains:_ () = ()
