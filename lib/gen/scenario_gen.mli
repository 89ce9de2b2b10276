(** Seeded synthetic Cmini scenario generator.

    Emits valid Cmini programs with tunable knobs — loop count, trip
    count, heap footprint (slots touched, reuse depth), reduction
    density and a target misspeculation rate realized by planted
    cross-iteration conflicts — each scenario carrying its expected
    classification, so generated corpora double as oracles.  All
    randomness comes from {!Privateer_support.Rng}: the same knobs
    always produce byte-identical source ([docs/SCENARIOS.md] states
    the full reproducibility contract). *)

(** Generator knobs.  Every field has a spec-string key (in parens). *)
type knobs = {
  k_seed : int;  (** (seed) data/shape seed, >= 0 *)
  k_loops : int;  (** (loops) hot-loop count, 1..8 *)
  k_trip : int;  (** (trip) base trip count per hot loop, 8..65536 *)
  k_heap : int;  (** (heap) private scratch slots per loop, 1..65536 *)
  k_reuse : int;  (** (reuse) slots written+read per iteration, 1..64 *)
  k_redux : float;  (** (redux) reduction density in [0, 1] *)
  k_misspec : float;  (** (misspec) target misspec rate: 0 or [0.01, 0.2] *)
}

val default_knobs : knobs
(** [seed=1 loops=1 trip=64 heap=64 reuse=4 redux=0.5 misspec=0]. *)

val knobs_of_spec : string -> (knobs, string) result
(** Parse a comma-separated [key=value] spec ([seed=7,trip=96,...]);
    unmentioned knobs keep their defaults.  [Error] names the bad
    key/value or violated range. *)

val spec_of_knobs : knobs -> string
(** Canonical spec string: every knob, fixed order.  Round-trips
    through {!knobs_of_spec}. *)

(** Expected classification carried by a generated scenario. *)
type expect = {
  x_private : string list;  (** globals the plan must place in a private heap *)
  x_redux : string list;  (** globals the plan must place in a reduction heap *)
  x_readonly : string list;  (** globals never written in the hot loops *)
  x_hot_loops : int;  (** hot loops that must be selected+parallelized *)
}

type t = {
  sc_knobs : knobs;
  sc_name : string;  (** workload name: ["scenario:" ^ canonical spec] *)
  sc_source : string;  (** the generated Cmini program *)
  sc_expect : expect;
  sc_conflict_period : int option;
      (** [Some m]: each hot loop plants a conflict every [m]-th
          iteration; [None] when [k_misspec = 0] *)
  sc_conflict_offsets : int list;
      (** per-loop phase of the planted conflicts (in [1, 7]) *)
  sc_workload : Privateer_workloads.Workload.t;
      (** ready to run: train input keeps the conflicts dormant, ref /
          alt arm them; scale multiplies the trip count *)
}

val generate : knobs -> t
(** Deterministic: byte-identical output for equal knobs. *)

val conflict_iterations : t -> loop:int -> n:int -> int list
(** Iterations (ascending) of hot loop [loop] (0-based) at trip count
    [n] whose planted read conflicts with the previous iteration's
    write. *)

val expected_misspecs : t -> n:int -> int
(** Oracle for the realized misspeculation count of one [ref] run at
    trip count [n], summed over all hot loops.  Exact at one worker
    with throttling off (every planted pair shares the machine, so the
    inline shadow catches each reader once at any checkpoint period);
    an upper bound at two or more workers, where a pair split across
    both workers and an interval boundary commits silently — with the
    sequential value, by construction. *)

val workload_of_spec : string -> (Privateer_workloads.Workload.t, string) result
(** Generate the scenario for a spec, named by its canonical spec.
    Each call generates afresh; nothing is registered, so
    {!Privateer_workloads.Workloads.all} stays the five ports. *)

val corpus : seed:int -> count:int -> t list
(** [count] scenarios with knob draws from a seeded Rng — small trips
    and mixed misspec rates, sized for stress corpora. *)
