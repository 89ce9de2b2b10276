(* One profile's answers to every query family, as closures, so tests
   and benches can ask the same questions of the production profiler
   and of the {!Profiler_reference} oracle and compare the answers.
   Selection and transform read a profile only through these queries,
   so equal answers imply equal plans. *)

open Privateer_ir
open Privateer_interp
open Privateer_profile

type t = {
  all_objects : unit -> Objname.Set.t;
  object_size : Objname.t -> int option;
  objects_at_site : int -> Objname.Set.t;
  alloc_names : int -> Objname.Set.t;
  is_short_lived : Objname.t -> loop:int -> bool;
  flow_deps : loop:int -> (int * int * Profiler.dep_info) list;
  const_load_value : int -> Value.t option;
  branch_bias : int -> bool option;
  branch_counts : int -> int * int;
  loop_summary : int -> Profiler.loop_summary option;
  loops_by_weight : unit -> (int * int) list;
  object_at_addr : int -> (Objname.t * int) option;
}

let of_profiler p =
  { all_objects = (fun () -> Profiler.all_objects p);
    object_size = Profiler.object_size p;
    objects_at_site = Profiler.objects_at_site p;
    alloc_names = Profiler.alloc_names p;
    is_short_lived = Profiler.is_short_lived p;
    flow_deps = Profiler.flow_deps p;
    const_load_value = Profiler.const_load_value p;
    branch_bias = Profiler.branch_bias p;
    branch_counts = Profiler.branch_counts p;
    loop_summary = Profiler.loop_summary p;
    loops_by_weight = (fun () -> Profiler.loops_by_weight p);
    object_at_addr = Profiler.object_at_addr p }

let of_reference r =
  { all_objects = (fun () -> Profiler_reference.all_objects r);
    object_size = Profiler_reference.object_size r;
    objects_at_site = Profiler_reference.objects_at_site r;
    alloc_names = Profiler_reference.alloc_names r;
    is_short_lived = Profiler_reference.is_short_lived r;
    flow_deps = Profiler_reference.flow_deps r;
    const_load_value = Profiler_reference.const_load_value r;
    branch_bias = Profiler_reference.branch_bias r;
    branch_counts = Profiler_reference.branch_counts r;
    loop_summary = Profiler_reference.loop_summary r;
    loops_by_weight = (fun () -> Profiler_reference.loops_by_weight r);
    object_at_addr = Profiler_reference.object_at_addr r }

(* Profile one run of [program] with the production profiler or the
   oracle: [setup] runs after layout and before the entry, as in
   [Pipeline.profile]. *)
let run_fast ?(profilers = [ "all" ]) ?(setup = fun _ -> ()) program =
  let st = Interp.create program in
  let p = Profiler.create ~profilers () in
  Profiler.attach p st;
  setup st;
  ignore (Interp.run_entry st);
  (of_profiler p, st)

let run_reference ?(setup = fun _ -> ()) program =
  let st = Interp.create program in
  let r = Profiler_reference.create () in
  Profiler_reference.attach r st;
  setup st;
  ignore (Interp.run_entry st);
  (of_reference r, st)

let dep_info_eq (a : Profiler.dep_info) (b : Profiler.dep_info) =
  a.dep_count = b.dep_count
  && (match (a.dep_value, b.dep_value) with
     | Profiler.Const x, Profiler.Const y -> Value.equal x y
     | Profiler.Varying, Profiler.Varying -> true
     | _ -> false)
  && a.dep_addr = b.dep_addr

let deps_eq a b =
  List.length a = List.length b
  && List.for_all2
       (fun (w1, r1, i1) (w2, r2, i2) -> w1 = w2 && r1 = r2 && dep_info_eq i1 i2)
       a b

(* First query family on which [a] and [b] disagree over [program]'s
   sites, branches and loops, if any.  Covers all six families:
   pointer-to-object, lifetime, flow, constant loads, branch bias, and
   loop execution weight. *)
let diff (program : Ast.program) a b =
  let fail = ref None in
  let expect what ok = if !fail = None && not ok then fail := Some what in
  let objs_a = a.all_objects () in
  expect "all_objects" (Objname.Set.equal objs_a (b.all_objects ()));
  Objname.Set.iter (fun o -> expect "object_size" (a.object_size o = b.object_size o)) objs_a;
  let loads = ref [] and stores = ref [] and branches = ref [] and allocs = ref [] in
  List.iter
    (fun (f : Ast.func) ->
      Ast.iter_exprs
        (fun e ->
          match e with
          | Ast.Load (id, _, _) -> loads := id :: !loads
          | Ast.Alloc (id, _, _, _) -> allocs := id :: !allocs
          | _ -> ())
        f.body;
      Ast.iter_stmts
        (fun s ->
          match s with
          | Ast.Store (id, _, _, _) -> stores := id :: !stores
          | Ast.If (id, _, _, _) -> branches := id :: !branches
          | _ -> ())
        f.body)
    program.funcs;
  List.iter
    (fun site ->
      expect "objects_at_site"
        (Objname.Set.equal (a.objects_at_site site) (b.objects_at_site site)))
    (!loads @ !stores);
  List.iter
    (fun site ->
      expect "alloc_names" (Objname.Set.equal (a.alloc_names site) (b.alloc_names site)))
    !allocs;
  List.iter
    (fun site ->
      expect "const_load_value"
        (match (a.const_load_value site, b.const_load_value site) with
        | Some x, Some y -> Value.equal x y
        | None, None -> true
        | _ -> false))
    !loads;
  List.iter
    (fun br ->
      expect "branch_counts" (a.branch_counts br = b.branch_counts br);
      expect "branch_bias" (a.branch_bias br = b.branch_bias br))
    !branches;
  let loops = List.map (fun (_, (id, _)) -> id) (Ast.loops_of_program program) in
  List.iter
    (fun loop ->
      expect "flow_deps" (deps_eq (a.flow_deps ~loop) (b.flow_deps ~loop));
      expect "loop_summary" (a.loop_summary loop = b.loop_summary loop);
      Objname.Set.iter
        (fun o ->
          expect "is_short_lived" (a.is_short_lived o ~loop = b.is_short_lived o ~loop))
        objs_a)
    loops;
  expect "loops_by_weight" (a.loops_by_weight () = b.loops_by_weight ());
  !fail
