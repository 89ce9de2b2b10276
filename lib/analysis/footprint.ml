(* Algorithm 2 (getFootprint): the read, write, and reduction
   footprints of a region, as sets of profiled object names.

   The walk recurses into called functions and can prune branches that
   control speculation removed (the paper notes limited profile
   coverage is tolerable because unprofiled paths are speculated
   away). *)

open Privateer_ir
open Privateer_profile

type t = {
  reads : Objname.Set.t;
  writes : Objname.Set.t;
  redux : Objname.Set.t;
  redux_ops : Ast.binop Objname.Map.t; (* per-object reduction operator *)
  (* Sites observed in the region, partitioned by role; the transform
     builds its runtime check map from these. *)
  load_sites : (int, unit) Hashtbl.t;
  store_sites : (int, unit) Hashtbl.t;
  redux_load_sites : (int, unit) Hashtbl.t;
  redux_store_sites : (int, Ast.binop) Hashtbl.t;
  alloc_sites : (int, unit) Hashtbl.t; (* allocation sites in the region *)
  free_sites : (int, unit) Hashtbl.t;
  print_sites : (int, unit) Hashtbl.t;
}

let empty () =
  { reads = Objname.Set.empty; writes = Objname.Set.empty; redux = Objname.Set.empty;
    redux_ops = Objname.Map.empty; load_sites = Hashtbl.create 32;
    store_sites = Hashtbl.create 32; redux_load_sites = Hashtbl.create 8;
    redux_store_sites = Hashtbl.create 8; alloc_sites = Hashtbl.create 8;
    free_sites = Hashtbl.create 8; print_sites = Hashtbl.create 8 }

(* [prune id] = Some taken: control speculation keeps only that side
   of branch [id]. *)
let compute ?(prune = fun _ -> None) program profiler blk =
  let fp = ref (empty ()) in
  let reads = ref Objname.Set.empty in
  let writes = ref Objname.Set.empty in
  let redux = ref Objname.Set.empty in
  let redux_ops = ref Objname.Map.empty in
  let conflicted = ref Objname.Set.empty in
  let visited_funcs = ref Ast_util.String_set.empty in
  let note_redux_obj op name =
    redux := Objname.Set.add name !redux;
    match Objname.Map.find_opt name !redux_ops with
    | None -> redux_ops := Objname.Map.add name op !redux_ops
    | Some op' when op' = op -> ()
    | Some _ ->
      (* Two different operators update this object: not a valid
         reduction; demote to an ordinary read+write object. *)
      conflicted := Objname.Set.add name !conflicted
  in
  let rec walk_block blk =
    let pairs = Reduction.pairs_in_block blk in
    let redux_loads = Hashtbl.create 8 in
    let redux_stores = Hashtbl.create 8 in
    List.iter
      (fun (p : Reduction.pair) ->
        Hashtbl.replace redux_loads p.load_site p.op;
        Hashtbl.replace redux_stores p.store_site p.op)
      pairs;
    let rec walk_expr (e : Ast.expr) =
      match e with
      | Int _ | Float _ | Local _ | Global_addr _ -> ()
      | Load (id, _, addr) ->
        walk_expr addr;
        let objs = Profiler.objects_at_site profiler id in
        (match Hashtbl.find_opt redux_loads id with
        | Some op ->
          Hashtbl.replace !fp.redux_load_sites id ();
          Objname.Set.iter (note_redux_obj op) objs
        | None ->
          Hashtbl.replace !fp.load_sites id ();
          reads := Objname.Set.union !reads objs)
      | Unop (_, a) -> walk_expr a
      | Binop (_, a, b) | And (a, b) | Or (a, b) ->
        walk_expr a;
        walk_expr b
      | Call (_, fn, args) ->
        List.iter walk_expr args;
        if not (Validate.is_builtin fn) then walk_func fn
      | Alloc (id, _, _, size) ->
        walk_expr size;
        Hashtbl.replace !fp.alloc_sites id ()
    in
    let rec walk_stmt (s : Ast.stmt) =
      match s with
      | Assign (_, e) | Expr e | Return (Some e) -> walk_expr e
      | Store (id, _, addr, value) ->
        walk_expr addr;
        walk_expr value;
        let objs = Profiler.objects_at_site profiler id in
        (match Hashtbl.find_opt redux_stores id with
        | Some op ->
          Hashtbl.replace !fp.redux_store_sites id op;
          Objname.Set.iter (note_redux_obj op) objs
        | None ->
          Hashtbl.replace !fp.store_sites id ();
          writes := Objname.Set.union !writes objs)
      | If (id, c, b1, b2) -> (
        walk_expr c;
        match prune id with
        | Some true -> List.iter walk_stmt b1
        | Some false -> List.iter walk_stmt b2
        | None ->
          List.iter walk_stmt b1;
          List.iter walk_stmt b2)
      | While (_, c, body) ->
        walk_expr c;
        List.iter walk_stmt body
      | For (_, _, init, limit, body) ->
        walk_expr init;
        walk_expr limit;
        List.iter walk_stmt body
      | Free (id, _, e) ->
        walk_expr e;
        Hashtbl.replace !fp.free_sites id ()
      | Print (id, _, args) ->
        List.iter walk_expr args;
        Hashtbl.replace !fp.print_sites id ()
      | Return None | Break | Continue -> ()
    in
    List.iter walk_stmt blk
  and walk_func name =
    if not (Ast_util.String_set.mem name !visited_funcs) then begin
      visited_funcs := Ast_util.String_set.add name !visited_funcs;
      match Ast.find_func program name with
      | Some f -> walk_block f.body
      | None -> ()
    end
  in
  walk_block blk;
  (* Demote conflicted reduction objects to plain read+write. *)
  Objname.Set.iter
    (fun name ->
      redux := Objname.Set.remove name !redux;
      redux_ops := Objname.Map.remove name !redux_ops;
      reads := Objname.Set.add name !reads;
      writes := Objname.Set.add name !writes)
    !conflicted;
  { !fp with reads = !reads; writes = !writes; redux = !redux; redux_ops = !redux_ops }
