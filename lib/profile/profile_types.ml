(* Query-result types shared by {!Profiler}, the per-profiler
   consumer modules and the monolithic reference oracle kept in the
   test library.  [Profiler] re-exports them with type equations, so
   downstream pattern matches compile against either implementation. *)

type const_status = Const of Privateer_interp.Value.t | Varying

(* Per cross-iteration flow dependence: how often it fired, whether the
   flowing value was always one constant, and whether it always flowed
   through a single address.  Constant-value single-address dependences
   are value-prediction candidates (the paper's dijkstra empty-list
   speculation). *)
type dep_info = {
  mutable dep_count : int;
  mutable dep_value : const_status;
  mutable dep_addr : [ `Addr of int | `Many ];
}

type loop_summary = { loop_invocations : int; loop_trips : int; loop_cycles : int }
