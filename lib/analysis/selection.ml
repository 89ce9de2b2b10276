(* Loop selection (paper section 4.3): choose the hot loops to
   parallelize, validate DOALL applicability under the heap
   assignment, and resolve a single consistent allocation-site-to-heap
   mapping across the selected set. *)

open Privateer_ir
open Privateer_profile
module SS = Ast_util.String_set

type plan = {
  func : string;
  loop : Ast.node_id;
  var : string;
  init : Ast.expr;
  limit : Ast.expr;
  body : Ast.block;
  assignment : Classify.assignment;
  scalars : (string * Scalars.scalar_class) list;
  deferred_io : bool;
  site_heap : (Objname.site * Heap.kind) list;
  weight : int; (* profiled cycles spent in the loop *)
}

type rejection = { rloop : Ast.node_id; rfunc : string; reason : string }

type t = { plans : plan list; rejections : rejection list }

(* Break/Continue statements binding to this loop: directly in the
   body, not nested inside an inner loop. *)
let rec has_direct_exit blk =
  List.exists
    (fun (s : Ast.stmt) ->
      match s with
      | Break | Continue -> true
      | If (_, _, b1, b2) -> has_direct_exit b1 || has_direct_exit b2
      | While _ | For _ -> false (* inner loops capture their own exits *)
      | Assign _ | Store _ | Expr _ | Free _ | Return _ | Print _ -> false)
    blk

let has_return blk =
  Ast_util.exists_stmt (fun s -> match s with Return _ -> true | _ -> false) blk

(* Loops whose dynamic instances can be simultaneously active with
   [body]'s loop: loops nested in the body, plus loops in functions
   reachable from the body. *)
let active_within program body =
  let nested = List.map fst (Ast.loops_of_block body) in
  let called =
    SS.fold
      (fun name acc ->
        match Ast.find_func program name with
        | Some f -> List.map fst (Ast.loops_of_block f.body) @ acc
        | None -> acc)
      (Ast_util.reachable_funcs program body)
      []
  in
  nested @ called

let plan_loop program profiler ~func ~(stmt : Ast.stmt) =
  match stmt with
  | For (loop, var, init, limit, body) -> (
    let fail reason = Error { rloop = loop; rfunc = func; reason } in
    let weight =
      match Profiler.loop_summary profiler loop with
      | Some s -> s.loop_cycles
      | None -> 0
    in
    if weight = 0 then fail "loop never executed during profiling"
    else if has_return body then fail "loop body may return from the function"
    else if has_direct_exit body then fail "loop body may break out of the loop"
    else begin
      let assigned = Ast_util.assigned_locals body in
      if SS.mem var assigned then fail "induction variable is assigned in the body"
      else if not (Ast_util.loop_invariant ~assigned limit) then
        fail "loop bound is not loop-invariant"
      else begin
        let assignment = Classify.classify program profiler ~loop ~body in
        if not (Objname.Set.is_empty assignment.unrestricted) then
          fail
            (Printf.sprintf "unremovable cross-iteration flow dependences on {%s}"
               (String.concat ", "
                  (List.map Objname.to_string
                     (Objname.Set.elements assignment.unrestricted))))
        else
          match Scalars.classify ~induction:var body with
          | Scalars.Rejected reason -> fail reason
          | Scalars.Classified scalars -> (
            (* Resolve each allocation site to a single heap. *)
            let site_heaps = Hashtbl.create 16 in
            let conflict = ref None in
            Objname.Set.iter
              (fun name ->
                match Classify.heap_of assignment name with
                | None -> ()
                | Some h -> (
                  let site = Objname.site_of name in
                  match Hashtbl.find_opt site_heaps site with
                  | None -> Hashtbl.replace site_heaps site h
                  | Some h' when Heap.equal_kind h h' -> ()
                  | Some h' ->
                    conflict :=
                      Some
                        (Printf.sprintf
                           "allocation site %s serves objects in both %s and %s heaps"
                           (Objname.site_to_string site) (Heap.name h') (Heap.name h))))
              (Classify.all_names assignment);
            match !conflict with
            | Some reason -> fail reason
            | None ->
              let site_heap =
                Hashtbl.fold (fun s h acc -> (s, h) :: acc) site_heaps []
              in
              let deferred_io = Hashtbl.length assignment.footprint.print_sites > 0 in
              Ok
                { func; loop; var; init; limit; body; assignment; scalars;
                  deferred_io; site_heap; weight })
      end
    end)
  | While (loop, _, _) ->
    Error { rloop = loop; rfunc = func; reason = "not a counted (For) loop" }
  | _ -> invalid_arg "Selection.plan_loop: not a loop"

(* Do two plans assign some allocation site to different heaps? *)
let site_conflict a b =
  List.exists
    (fun (s, h) ->
      match List.assoc_opt s b.site_heap with
      | Some h' -> not (Heap.equal_kind h h')
      | None -> false)
    a.site_heap

let select program profiler =
  let candidates =
    Ast.loops_of_program program
    |> List.filter_map (fun ((f : Ast.func), (_, stmt)) ->
           match stmt with
           | Ast.For _ -> Some (f.fname, stmt)
           | _ -> None)
  in
  let planned, rejections =
    List.fold_left
      (fun (oks, errs) (func, stmt) ->
        match plan_loop program profiler ~func ~stmt with
        | Ok p -> (p :: oks, errs)
        | Error e -> (oks, e :: errs))
      ([], []) candidates
  in
  (* Greedy selection by weight under the compatibility constraints:
     no nested parallelism, no conflicting site assignments. *)
  let by_weight = List.sort (fun a b -> compare b.weight a.weight) planned in
  let selected =
    List.fold_left
      (fun acc p ->
        let inner_of q = List.mem p.loop (active_within program q.body) in
        let outer_of q = List.mem q.loop (active_within program p.body) in
        let compatible q =
          (not (inner_of q)) && (not (outer_of q)) && not (site_conflict p q)
        in
        if List.for_all compatible acc then p :: acc else acc)
      [] by_weight
  in
  { plans = List.rev selected; rejections = List.rev rejections }

(* The merged site->heap map across all selected loops. *)
let merged_site_heap t =
  List.concat_map (fun p -> p.site_heap) t.plans
  |> List.sort_uniq compare

(* Extra transformations a plan relies on, for the paper's Table 3
   "Extras" column. *)
let extras p =
  List.filter_map
    (fun x -> x)
    [ (if p.assignment.predictions <> [] then Some "Value" else None);
      (if p.assignment.control_spec <> [] then Some "Control" else None);
      (if p.deferred_io then Some "I/O" else None) ]
