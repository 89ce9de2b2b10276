(* Cycle-cost table for the simulated machine.

   The paper measures wall-clock time on a 24-core Xeon; we replace
   the hardware with a deterministic cost model.  Only *relative*
   costs matter for reproducing the evaluation's shape; the defaults
   are loosely calibrated to a superscalar core (arithmetic ~1 cycle,
   cache-hit loads ~4, allocation tens of cycles) and to the paper's
   observation that validation is a few instructions per access.

   Runtime-system costs (metadata updates, checkpointing, fork/join)
   live in Privateer_parallel.Cost_model; this table covers only the
   application instructions the interpreter executes. *)

type t = {
  c_arith : int;
  c_load : int;
  c_store : int;
  c_branch : int;
  c_call : int; (* call/return overhead per user-function call *)
  c_builtin : int; (* transcendental intrinsics (sqrt, exp, ...) *)
  c_alloc : int;
  c_free : int;
  c_print : int;
}

let default =
  { c_arith = 1; c_load = 4; c_store = 4; c_branch = 1; c_call = 10;
    c_builtin = 20; c_alloc = 40; c_free = 20; c_print = 60 }
