(* Facade over the shared event {!Frontend} and the registered
   per-profiler consumers ({!Prof_ptr}, {!Prof_lifetime}, {!Prof_flow},
   {!Prof_value}, {!Prof_exec}): typed queries over their state.
   Queries belonging to a profiler that was not enabled answer as if
   the profiler observed nothing. *)

open Privateer_ir
open Privateer_interp

type const_status = Profile_types.const_status = Const of Value.t | Varying

type dep_info = Profile_types.dep_info = {
  mutable dep_count : int;
  mutable dep_value : const_status;
  mutable dep_addr : [ `Addr of int | `Many ];
}

type loop_summary = Profile_types.loop_summary = {
  loop_invocations : int;
  loop_trips : int;
  loop_cycles : int;
}

type t = { f : Frontend.t; mutable wall_ns : float }

(* Referencing one value from each consumer module forces them to
   link (and so to self-register) even though dispatch below only
   mentions their [State] constructors. *)
let all_profilers = [ Prof_ptr.name; Prof_lifetime.name; Prof_flow.name;
                      Prof_value.name; Prof_exec.name ]

let available () = Frontend.registered ()

let create ?(profilers = [ "all" ]) () =
  ignore all_profilers;
  { f = Frontend.create ~profilers (); wall_ns = 0. }

let enabled p = Frontend.enabled p.f

let wall_ns p = p.wall_ns
let set_wall_ns p ns = p.wall_ns <- ns

(* ---- attaching to an interpreter ------------------------------------ *)

(* Only kinds in the frontend's [hook_mask] get real hooks; the rest
   keep the no-op defaults, so a restricted profiler set (say exec
   alone) pays nothing per load, store or branch — the interpreter
   calls straight into the same no-ops a plain run does. *)
let fast_hooks f : Hooks.t =
  let m = Frontend.hook_mask f in
  let on k real dflt = if m land Event.bit k <> 0 then real else dflt in
  let d = Hooks.default in
  { Hooks.default with
    on_load =
      on Event.load
        (fun id ~addr ~size ~value -> Frontend.on_load f id ~addr ~size ~value)
        d.on_load;
    on_store =
      on Event.store
        (fun id ~addr ~size ~value:_ -> Frontend.on_store f id ~addr ~size)
        d.on_store;
    on_alloc =
      (fun id ~ctx _kind _heap ~addr ~size -> Frontend.on_alloc f id ~ctx ~addr ~size);
    on_free = (fun _id ~addr ~size _heap -> Frontend.on_free f ~addr ~size);
    on_loop_enter = on Event.enter (fun id -> Frontend.on_loop_enter f id) d.on_loop_enter;
    on_loop_iter =
      on Event.iter (fun id ~iter -> Frontend.on_loop_iter f id ~iter) d.on_loop_iter;
    on_loop_exit =
      on Event.exit'
        (fun id ~trips -> Frontend.on_loop_exit f id ~trips)
        d.on_loop_exit;
    on_branch =
      on Event.branch (fun id ~taken -> Frontend.on_branch f id ~taken) d.on_branch }

let attach p (st : Interp.t) =
  let f = p.f in
  List.iter
    (fun (g : Ast.global) ->
      let addr = Hashtbl.find st.globals g.gname in
      Frontend.register_global f g.gname ~addr ~bytes:g.gbytes)
    st.program.globals;
  Frontend.set_get_cycles f (fun () -> st.cycles);
  st.hooks <- fast_hooks f

let profile_run ?profilers program =
  let st = Interp.create program in
  let p = create ?profilers () in
  attach p st;
  ignore (Interp.run_entry st);
  (p, st)

(* ---- post-run queries ------------------------------------------------ *)

let consumer f name = Frontend.consumer_state f name

let ids_to_set f ids =
  List.fold_left
    (fun acc id -> Objname.Set.add (Frontend.name_of f id) acc)
    Objname.Set.empty ids

let objects_at_site p site =
  match consumer p.f Prof_ptr.name with
  | Some (Prof_ptr.State st) -> ids_to_set p.f (Prof_ptr.objects_at_site st site)
  | _ -> Objname.Set.empty

let alloc_names p site =
  match consumer p.f Prof_ptr.name with
  | Some (Prof_ptr.State st) -> ids_to_set p.f (Prof_ptr.alloc_names st site)
  | _ -> Objname.Set.empty

let is_short_lived p name ~loop =
  match consumer p.f Prof_lifetime.name with
  | Some (Prof_lifetime.State st) -> (
    match Frontend.id_of_name p.f name with
    | Some id -> Prof_lifetime.is_short_lived st id loop
    | None -> false)
  | _ -> false

let flow_deps p ~loop =
  match consumer p.f Prof_flow.name with
  | Some (Prof_flow.State st) -> Prof_flow.flow_deps st loop
  | _ -> []

let const_load_value p site =
  match consumer p.f Prof_value.name with
  | Some (Prof_value.State st) -> Prof_value.const_load_value st site
  | _ -> None

let branch_bias p branch =
  match consumer p.f Prof_value.name with
  | Some (Prof_value.State st) -> Prof_value.branch_bias st branch
  | _ -> None

let branch_counts p branch =
  match consumer p.f Prof_value.name with
  | Some (Prof_value.State st) -> Prof_value.branch_counts st branch
  | _ -> (0, 0)

let loop_summary p loop =
  match consumer p.f Prof_exec.name with
  | Some (Prof_exec.State st) -> Prof_exec.loop_summary st loop
  | _ -> None

let loops_by_weight p =
  match consumer p.f Prof_exec.name with
  | Some (Prof_exec.State st) -> Prof_exec.loops_by_weight st
  | _ -> []

let all_objects p = Frontend.all_objects p.f
let object_size p name = Frontend.object_size p.f name
let object_at_addr p addr = Frontend.object_at_addr p.f addr
