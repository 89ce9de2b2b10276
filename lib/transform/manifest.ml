(* The speculation manifest: everything the compiler tells the runtime
   system about the transformed program.

   The paper communicates this through inserted calls (check_heap,
   private_read/private_write, value-prediction tests) plus the heap
   assignment baked into allocation sites.  Here the allocation
   re-homing is a real IR rewrite, while per-access expectations are
   carried in this manifest and enforced by the runtime at the same
   program points, with the same cost accounting; Pp_spec renders them
   inline for the Figure-2 style listing. *)

open Privateer_ir
open Privateer_profile
open Privateer_analysis

type site_check = {
  expected : Heap.kind option;
      (* separation check: the heap this access's pointer must carry.
         None when no single heap is expected. *)
  elided : bool; (* true: proved at compile time, no runtime cost *)
  redux_op : Ast.binop option; (* Some op: sanctioned reduction access *)
}

type loop_spec = {
  loop : Ast.node_id;
  func : string;
  var : string;
  predictions : Classify.prediction list;
  scalars : (string * Scalars.scalar_class) list;
  deferred_io : bool;
  extras : string list;
  assignment : Classify.assignment;
  control_spec : (Ast.node_id * bool) list;
}

type t = {
  checks : site_check option array;
      (* indexed by site id, below the transformed program's [next_id];
         the worker hooks read it on every validated access *)
  loops : loop_spec list;
  site_heap : (Objname.site * Heap.kind) list;
}

let loop_spec t loop = List.find_opt (fun l -> l.loop = loop) t.loops

let is_parallel_loop t loop = Option.is_some (loop_spec t loop)

let count_checks t f =
  Array.fold_left
    (fun acc c -> match c with Some c when f c -> acc + 1 | _ -> acc)
    0 t.checks

(* Count of non-elided separation checks (ablation metric). *)
let live_check_count t = count_checks t (fun c -> c.expected <> None && not c.elided)

let elided_check_count t = count_checks t (fun c -> c.elided)

(* Static allocation sites (globals included) per heap — the paper's
   Table 3 "Replaced Static Allocation Sites" columns. *)
let site_counts t =
  let count h =
    List.length (List.filter (fun (_, h') -> Heap.equal_kind h h') t.site_heap)
  in
  [ (Heap.Private, count Heap.Private); (Heap.Short_lived, count Heap.Short_lived);
    (Heap.Read_only, count Heap.Read_only); (Heap.Redux, count Heap.Redux);
    (Heap.Unrestricted, count Heap.Unrestricted) ]
