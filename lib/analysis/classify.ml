(* Algorithm 1 (classify): partition a loop's memory footprint into
   the five logical heaps, refined with control speculation and value
   prediction.

   ShortLived: objects allocated and freed within one iteration.
   Redux: objects updated only by one associative-commutative operator
     and not otherwise read or written (the Reduction Criterion).
   Unrestricted: objects carrying a cross-iteration flow dependence
     that speculation could not remove.
   Private: all other written objects (the Privatization Criterion is
     then validated at runtime).
   ReadOnly: all other read objects. *)

open Privateer_ir
open Privateer_interp
open Privateer_profile

type prediction = {
  pred_global : string; (* object holding the predicted location *)
  pred_offset : int; (* byte offset within it *)
  pred_value : int;
  pred_deps : (int * int) list; (* the flow deps this prediction removes *)
}

type assignment = {
  loop : Ast.node_id;
  footprint : Footprint.t;
  short_lived : Objname.Set.t;
  redux : Objname.Set.t;
  redux_ops : Ast.binop Objname.Map.t;
  unrestricted : Objname.Set.t;
  priv : Objname.Set.t;
  read_only : Objname.Set.t;
  predictions : prediction list;
  (* Branches inside the region pruned by control speculation:
     (branch id, the side kept). *)
  control_spec : (Ast.node_id * bool) list;
}

(* The heap an object was assigned to, if any. *)
let heap_of a name : Heap.kind option =
  if Objname.Set.mem name a.short_lived then Some Heap.Short_lived
  else if Objname.Set.mem name a.redux then Some Heap.Redux
  else if Objname.Set.mem name a.unrestricted then Some Heap.Unrestricted
  else if Objname.Set.mem name a.priv then Some Heap.Private
  else if Objname.Set.mem name a.read_only then Some Heap.Read_only
  else None

let all_names a =
  List.fold_left Objname.Set.union Objname.Set.empty
    [ a.short_lived; a.redux; a.unrestricted; a.priv; a.read_only ]

(* Does a block contain a memory-access site the training run never
   executed?  Such sites touch objects the profiler could not name, so
   speculating the path away is the only way to classify the region. *)
let has_unprofiled_access profiler blk =
  let found = ref false in
  Ast.iter_exprs
    (fun e ->
      match e with
      | Ast.Load (id, _, _) ->
        if Objname.Set.is_empty (Profiler.objects_at_site profiler id) then found := true
      | Ast.Alloc (id, _, _, _) ->
        if Objname.Set.is_empty (Profiler.alloc_names profiler id) then found := true
      | _ -> ())
    blk;
  Ast.iter_stmts
    (fun s ->
      match s with
      | Ast.Store (id, _, _, _) ->
        if Objname.Set.is_empty (Profiler.objects_at_site profiler id) then found := true
      | _ -> ())
    blk;
  !found

(* Branches within the region (body + reachable callees) that the
   training run observed as fully biased *and* whose cold side
   contains never-executed memory accesses.  The paper "interprets
   profiling results conservatively": speculation that buys nothing
   (a biased branch whose both sides are fully profiled) only adds
   misspeculation risk, so it is not applied. *)
let biased_branches program profiler blk =
  let acc = ref [] in
  let visit_block b =
    Ast.iter_stmts
      (fun s ->
        match s with
        | If (id, _, b_then, b_else) -> (
          match Profiler.branch_bias profiler id with
          | Some taken ->
            let cold = if taken then b_else else b_then in
            if has_unprofiled_access profiler cold then acc := (id, taken) :: !acc
          | None -> ())
        | _ -> ())
      b
  in
  visit_block blk;
  Ast_util.String_set.iter
    (fun name ->
      match Ast.find_func program name with
      | Some f -> visit_block f.body
      | None -> ())
    (Ast_util.reachable_funcs program blk);
  List.rev !acc

let classify program profiler ~(loop : Ast.node_id) ~(body : Ast.block) =
  let control_spec = biased_branches program profiler body in
  let prune id = List.assoc_opt id control_spec in
  let fp = Footprint.compute ~prune program profiler body in
  let accessed = Objname.Set.union fp.reads fp.writes in
  (* Short-lived objects. *)
  let short_lived =
    Objname.Set.filter (fun o -> Profiler.is_short_lived profiler o ~loop) accessed
  in
  (* Reduction objects: in the reduction footprint and not read or
     written by any non-reduction operation in the loop. *)
  let redux =
    Objname.Set.filter
      (fun o -> (not (Objname.Set.mem o fp.reads)) && not (Objname.Set.mem o fp.writes))
      fp.redux
  in
  let redux_ops = Objname.Map.filter (fun o _ -> Objname.Set.mem o redux) fp.redux_ops in
  (* Cross-iteration flow dependences, with value prediction removing
     those that always flow one constant through one address of a
     global object. *)
  let deps = Profiler.flow_deps profiler ~loop in
  let predictions = ref [] in
  let residual = ref [] in
  List.iter
    (fun (w, r, (info : Profiler.dep_info)) ->
      let candidate =
        match (info.dep_value, info.dep_addr) with
        | Const (Value.VInt c), `Addr a -> (
          match Profiler.object_at_addr profiler a with
          | Some (Objname.Global g, base) -> Some (g, a - base, c)
          | Some _ | None -> None)
        | _ -> None
      in
      match candidate with
      | Some (g, off, c) -> (
        match
          List.find_opt
            (fun p -> p.pred_global = g && p.pred_offset = off && p.pred_value = c)
            !predictions
        with
        | Some p ->
          predictions :=
            { p with pred_deps = (w, r) :: p.pred_deps }
            :: List.filter (fun q -> q != p) !predictions
        | None ->
          predictions :=
            { pred_global = g; pred_offset = off; pred_value = c; pred_deps = [ (w, r) ] }
            :: !predictions)
      | None -> residual := (w, r) :: !residual)
    deps;
  (* Unrestricted: objects of residual dependences, minus those whose
     dependences are explained by short-lived or reduction semantics. *)
  let unrestricted =
    List.fold_left
      (fun acc (w, r) ->
        let f =
          Objname.Set.inter
            (Profiler.objects_at_site profiler w)
            (Profiler.objects_at_site profiler r)
        in
        Objname.Set.union acc (Objname.Set.diff (Objname.Set.diff f short_lived) redux))
      Objname.Set.empty !residual
  in
  (* Accesses the profiler could not map to an object can never be
     separated: force them unrestricted. *)
  let unrestricted =
    if Objname.Set.mem Objname.Unknown accessed then
      Objname.Set.add Objname.Unknown unrestricted
    else unrestricted
  in
  let minus a b = Objname.Set.diff a b in
  let priv = minus (minus (minus fp.writes short_lived) unrestricted) redux in
  let read_only = minus (minus (minus (minus fp.reads short_lived) unrestricted) redux) priv in
  { loop; footprint = fp; short_lived; redux; redux_ops; unrestricted; priv; read_only;
    predictions = !predictions; control_spec }

let to_string a =
  let set_str label s =
    Printf.sprintf "%s: {%s}" label
      (String.concat ", " (List.map Objname.to_string (Objname.Set.elements s)))
  in
  String.concat "\n"
    [ Printf.sprintf "heap assignment for loop %d:" a.loop;
      set_str "  short-lived " a.short_lived; set_str "  redux       " a.redux;
      set_str "  unrestricted" a.unrestricted; set_str "  private     " a.priv;
      set_str "  read-only   " a.read_only;
      Printf.sprintf "  predictions : %d, control-speculated branches: %s"
        (List.length a.predictions)
        (match a.control_spec with
        | [] -> "none"
        | cs ->
          String.concat ", "
            (List.map (fun (id, kept) -> Printf.sprintf "%d never %b" id (not kept)) cs)) ]
