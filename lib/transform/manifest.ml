(* The speculation manifest: everything the compiler tells the runtime
   system about the transformed program.

   The paper communicates this through inserted calls (check_heap,
   private_read/private_write, value-prediction and control
   misspeculation tests) plus the heap assignment baked into allocation
   sites.  Here the allocation re-homing is the only IR rewrite, and
   the transformed program differs from the original in heap placement
   alone.  Every check is carried in this manifest and performed by the
   runtime at the same program points, with the same cost accounting:
   separation and reduction sanction per access site, value
   predictions and control speculation per loop (in its
   [assignment]).  The Figure-2 listing in bench prints the per-loop
   ones as comments beside the program. *)

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
  scalars : (string * Scalars.scalar_class) list;
  deferred_io : bool;
  extras : string list;
  assignment : Classify.assignment;
      (* the heap assignment, with the loop's value predictions and
         control-speculated branches *)
}

type t = {
  checks : site_check option array;
      (* indexed by site id, below the transformed program's [next_id];
         the worker hooks read it on every validated access *)
  loops : loop_spec list;
  site_heap : (Objname.site * Heap.kind) list;
}

let loop_spec t loop = List.find_opt (fun l -> l.loop = loop) t.loops

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
