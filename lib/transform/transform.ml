(* The privatization transformation (paper sections 4.4-4.6).

   4.4 Replace Allocation: globals and dynamic allocation sites are
       re-homed into their assigned logical heaps (a real IR rewrite:
       the global's placement and each Alloc's heap annotation).
   4.5 Add Separation Checks: every load/store site in the parallel
       region gets an expected-heap entry in the manifest; checks the
       static points-to analysis can prove are marked elided.
   4.6 Add Privacy Checks: the runtime updates shadow metadata on
       every access whose address carries the private tag, so privacy
       instrumentation needs no per-site registration; reduction sites
       are registered so their loads/stores of the redux heap are
       sanctioned.

   The rewritten program differs from the original only in heap
   placement: no check is inserted and no node id is minted, so
   non-speculative execution and recovery run the original code.
   Value predictions and control-speculated branches travel in the
   manifest's per-loop assignment: the parallel executor re-initializes
   predicted locations at iteration start and validates them at
   iteration end, and a worker misspeculates when a branch goes the
   side the profile never took (see Privateer_parallel). *)

open Privateer_ir
open Privateer_profile
open Privateer_analysis

type result = {
  program : Ast.program; (* rewritten *)
  manifest : Manifest.t;
  selection : Selection.t;
}

(* ---- allocation replacement ----------------------------------------- *)

let heap_for_site site_heap (s : Objname.site) = List.assoc_opt s site_heap

let rec rewrite_expr site_heap (e : Ast.expr) : Ast.expr =
  let r = rewrite_expr site_heap in
  match e with
  | Int _ | Float _ | Local _ | Global_addr _ -> e
  | Load (id, sz, a) -> Load (id, sz, r a)
  | Unop (op, a) -> Unop (op, r a)
  | Binop (op, a, b) -> Binop (op, r a, r b)
  | And (a, b) -> And (r a, r b)
  | Or (a, b) -> Or (r a, r b)
  | Call (id, fn, args) -> Call (id, fn, List.map r args)
  | Alloc (id, kind, _, size) ->
    Alloc (id, kind, heap_for_site site_heap (Objname.Alloc_site id), r size)

let rec rewrite_block site_heap blk = List.map (rewrite_stmt site_heap) blk

and rewrite_stmt site_heap (s : Ast.stmt) : Ast.stmt =
  let re = rewrite_expr site_heap in
  let rb = rewrite_block site_heap in
  match s with
  | Assign (x, e) -> Assign (x, re e)
  | Store (id, sz, a, v) -> Store (id, sz, re a, re v)
  | If (id, c, b1, b2) -> If (id, re c, rb b1, rb b2)
  | While (id, c, body) -> While (id, re c, rb body)
  | For (id, v, init, limit, body) -> For (id, v, re init, re limit, rb body)
  | Expr e -> Expr (re e)
  | Free (id, heap, e) -> Free (id, heap, re e)
  | Return (Some e) -> Return (Some (re e))
  | Print (id, fmt, args) -> Print (id, fmt, List.map re args)
  | Return None | Break | Continue -> s

(* ---- separation checks and eliding ----------------------------------- *)

(* Address expression and enclosing function of every load/store site. *)
let index_access_sites (program : Ast.program) =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun (f : Ast.func) ->
      Ast.iter_exprs
        (fun e ->
          match e with
          | Load (id, _, addr) -> Hashtbl.replace tbl id (f.fname, addr)
          | _ -> ())
        f.body;
      Ast.iter_stmts
        (fun s ->
          match s with
          | Store (id, _, addr, _) -> Hashtbl.replace tbl id (f.fname, addr)
          | _ -> ())
        f.body)
    program.funcs;
  tbl

(* The heap of an abstract points-to target under the merged site map. *)
let heap_of_abs site_heap (a : Static_pta.Abs.t) =
  match a with
  | AGlobal g -> heap_for_site site_heap (Objname.Global_site g)
  | ASite s -> heap_for_site site_heap (Objname.Alloc_site s)
  | ATop -> None

(* Can the compiler prove this access always lands in [expected]? *)
let provable pta site_heap ~fname addr expected =
  let pts = Static_pta.points_to pta ~fname addr in
  Static_pta.is_precise pts
  && Static_pta.Abs_set.for_all
       (fun a ->
         match heap_of_abs site_heap a with
         | Some h -> Heap.equal_kind h expected
         | None -> false)
       pts

(* Expected heap of an access site: the single heap its profiled
   objects were assigned to, if unique. *)
let expected_heap assignment profiler site =
  let objs = Profiler.objects_at_site profiler site in
  let heaps =
    Objname.Set.fold
      (fun o acc ->
        match Classify.heap_of assignment o with
        | Some h -> h :: acc
        | None -> acc)
      objs []
    |> List.sort_uniq compare
  in
  match heaps with [ h ] -> Some h | _ -> None

(* ---- main entry ------------------------------------------------------ *)

let apply (program : Ast.program) (profiler : Profiler.t) (selection : Selection.t) =
  let site_heap = Selection.merged_site_heap selection in
  (* Rewrite every function (allocation sites in callees of the
     parallel region must be re-homed too; sites outside any region
     are not in [site_heap] and stay untouched). *)
  let funcs =
    List.map
      (fun (f : Ast.func) ->
        { f with Ast.body = rewrite_block site_heap f.body })
      program.funcs
  in
  let globals =
    List.map
      (fun (g : Ast.global) ->
        { g with Ast.gheap = heap_for_site site_heap (Objname.Global_site g.gname) })
      program.globals
  in
  let program' = { program with Ast.funcs; globals } in
  Validate.check_exn program';
  (* Build the manifest against the rewritten program (same site ids). *)
  let pta = Static_pta.analyze program' in
  let access_index = index_access_sites program' in
  let checks = Array.make program'.next_id None in
  List.iter
    (fun (p : Selection.plan) ->
      let fp = p.assignment.footprint in
      let add_site ?redux_op site =
        let expected = expected_heap p.assignment profiler site in
        let elided =
          match (expected, Hashtbl.find_opt access_index site) with
          | Some h, Some (fname, addr) -> provable pta site_heap ~fname addr h
          | _ -> false
        in
        checks.(site) <- Some { Manifest.expected; elided; redux_op }
      in
      Hashtbl.iter (fun site () -> add_site site) fp.load_sites;
      Hashtbl.iter (fun site () -> add_site site) fp.store_sites;
      Hashtbl.iter (fun site () -> add_site site) fp.redux_load_sites;
      Hashtbl.iter (fun site op -> add_site ~redux_op:op site) fp.redux_store_sites)
    selection.plans;
  (* Redux load sites need their operator too (they are sanctioned
     reads of the redux heap). *)
  List.iter
    (fun (p : Selection.plan) ->
      let fp = p.assignment.footprint in
      Hashtbl.iter
        (fun site () ->
          match checks.(site) with
          | Some c when c.Manifest.redux_op = None ->
            (* Find the operator from the object assignment. *)
            let objs = Profiler.objects_at_site profiler site in
            let op =
              Objname.Set.fold
                (fun o acc ->
                  match Objname.Map.find_opt o p.assignment.redux_ops with
                  | Some op -> Some op
                  | None -> acc)
                objs None
            in
            checks.(site) <- Some { c with redux_op = op }
          | _ -> ())
        fp.redux_load_sites)
    selection.plans;
  let loops =
    List.map
      (fun (p : Selection.plan) ->
        { Manifest.loop = p.loop; func = p.func; var = p.var; scalars = p.scalars;
          deferred_io = p.deferred_io; extras = Selection.extras p;
          assignment = p.assignment })
      selection.plans
  in
  let manifest = { Manifest.checks; loops; site_heap } in
  { program = program'; manifest; selection }
