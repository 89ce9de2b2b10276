(* The Privateer profilers (paper section 4.1) behind one module.

   [Profiler] owns the work every profiler shares and calls the five
   consumers ({!Prof_ptr}, {!Prof_lifetime}, {!Prof_flow},
   {!Prof_value}, {!Prof_exec}) directly from the interpreter hooks —
   no event is ever materialized:

   - object naming — a live-range interval map from addresses to
     interned object-name ids, fronted by a last-object cache so
     consecutive accesses inside one object never reach the tree;
   - loop context — one flat mutable (loop, invocation, iteration)
     stack ({!Loop_ctx}) updated once per loop transition and read by
     the lifetime and flow profilers (the reference rebuilds an
     immutable list per iteration);
   - typed queries over the five consumers' state. *)

open Privateer_support
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

type t = {
  live : int Interval_map.t; (* address range -> name id *)
  mutable names : Objname.t array; (* id -> name; id 0 = Unknown *)
  mutable n_names : int;
  name_ids : (Objname.t, int) Hashtbl.t;
  obj_size : (int, int) Hashtbl.t; (* name id -> max observed size *)
  mutable objects : Objname.Set.t;
  (* The last-object cache is valid only while [gen] is unchanged;
     every allocation, free and global registration bumps it. *)
  mutable gen : int;
  mutable last_gen : int;
  mutable last_lo : int;
  mutable last_hi : int;
  mutable last_id : int;
  ctx : Loop_ctx.t; (* shared by the lifetime and flow profilers *)
  ptr : Prof_ptr.t;
  lifetime : Prof_lifetime.t;
  flow : Prof_flow.t;
  value : Prof_value.t;
  exec : Prof_exec.t;
  mutable wall_ns : float;
}

let create () =
  let ctx = Loop_ctx.create () in
  let t =
    { live = Interval_map.create (); names = Array.make 64 Objname.Unknown;
      n_names = 1; name_ids = Hashtbl.create 64; obj_size = Hashtbl.create 32;
      objects = Objname.Set.empty; gen = 1; last_gen = 0; last_lo = 0;
      last_hi = 0; last_id = 0; ctx;
      ptr = Prof_ptr.create (); lifetime = Prof_lifetime.create ctx;
      flow = Prof_flow.create ctx; value = Prof_value.create ();
      exec = Prof_exec.create (); wall_ns = 0. }
  in
  (* Name id 0 is reserved for [Objname.Unknown]. *)
  Hashtbl.replace t.name_ids Objname.Unknown 0;
  t

let wall_ns p = p.wall_ns
let set_wall_ns p ns = p.wall_ns <- ns

(* ---- object naming --------------------------------------------------- *)

let intern t name =
  match Hashtbl.find_opt t.name_ids name with
  | Some id -> id
  | None ->
    let id = t.n_names in
    if id = Array.length t.names then begin
      let a = Array.make (2 * id) Objname.Unknown in
      Array.blit t.names 0 a 0 id;
      t.names <- a
    end;
    t.names.(id) <- name;
    t.n_names <- id + 1;
    Hashtbl.replace t.name_ids name id;
    id

(* Name a newly live object: intern [name], keep its largest size, and
   map [lo, hi) to it.  Bumping [gen] invalidates the cache. *)
let add_live t name ~size ~lo ~hi =
  let id = intern t name in
  t.objects <- Objname.Set.add name t.objects;
  (match Hashtbl.find_opt t.obj_size id with
  | Some s when s >= size -> ()
  | Some _ | None -> Hashtbl.replace t.obj_size id size);
  t.gen <- t.gen + 1;
  Interval_map.insert t.live lo hi id;
  id

(* Name id of the object containing [addr]: the last-object cache,
   then the interval map (refilling the cache on the way out).  Misses
   resolve to id 0 = Unknown and are not cached — in practice almost
   every access hits a registered object. *)
let resolve t addr =
  if t.last_gen = t.gen && addr >= t.last_lo && addr < t.last_hi then t.last_id
  else
    match Interval_map.find_opt t.live addr with
    | Some (lo, hi, id) ->
      t.last_gen <- t.gen;
      t.last_lo <- lo;
      t.last_hi <- hi;
      t.last_id <- id;
      id
    | None -> 0

(* ---- the hooks ------------------------------------------------------- *)

(* Globals are allocated by [Interp.create] before hooks can observe
   them, so [attach] names them directly; every hook then calls the
   consumers that need its event. *)
let attach p (st : Interp.t) =
  List.iter
    (fun (g : Ast.global) ->
      let lo = Hashtbl.find st.globals g.gname in
      ignore
        (add_live p (Objname.Global g.gname) ~size:g.gbytes ~lo ~hi:(lo + max 8 g.gbytes)))
    st.program.globals;
  st.hooks <-
    { on_load =
        (fun site ~addr ~size ~value ->
          Prof_ptr.access p.ptr site (resolve p addr);
          Prof_flow.on_load p.flow site addr size value;
          Prof_value.on_load p.value site value);
      on_store =
        (fun site ~addr ~size ~value:_ ->
          Prof_ptr.access p.ptr site (resolve p addr);
          Prof_flow.on_store p.flow site addr size);
      on_alloc =
        (fun site ~ctx _kind _heap ~addr ~size ->
          let id = add_live p (Objname.Site (site, ctx)) ~size ~lo:addr ~hi:(addr + size) in
          Prof_ptr.on_alloc p.ptr site id;
          Prof_lifetime.on_alloc p.lifetime addr id);
      on_free =
        (fun _site ~addr ~size _heap ->
          p.gen <- p.gen + 1;
          let id =
            match Interval_map.remove_start p.live addr with
            | Some (_, id) -> id
            | None -> -1
          in
          Prof_lifetime.on_free p.lifetime addr id;
          Prof_flow.on_free p.flow addr size);
      on_loop_enter =
        (fun loop ->
          Loop_ctx.enter p.ctx loop;
          Prof_lifetime.on_enter p.lifetime loop;
          Prof_exec.on_enter p.exec loop st.cycles);
      on_loop_iter = (fun loop ~iter -> Loop_ctx.iter p.ctx loop iter);
      on_loop_exit =
        (fun loop ~trips ->
          Loop_ctx.exit p.ctx loop;
          Prof_lifetime.on_exit p.lifetime loop;
          Prof_exec.on_exit p.exec loop trips st.cycles);
      on_branch = (fun id ~taken -> Prof_value.on_branch p.value id taken) }

(* ---- post-run queries ------------------------------------------------ *)

let ids_to_set p ids =
  List.fold_left (fun acc id -> Objname.Set.add p.names.(id) acc) Objname.Set.empty ids

let objects_at_site p site = ids_to_set p (Prof_ptr.objects_at_site p.ptr site)
let alloc_names p site = ids_to_set p (Prof_ptr.alloc_names p.ptr site)

let is_short_lived p name ~loop =
  match Hashtbl.find_opt p.name_ids name with
  | Some id -> Prof_lifetime.is_short_lived p.lifetime id loop
  | None -> false

let flow_deps p ~loop = Prof_flow.flow_deps p.flow loop
let const_load_value p site = Prof_value.const_load_value p.value site
let branch_bias p branch = Prof_value.branch_bias p.value branch
let branch_counts p branch = Prof_value.branch_counts p.value branch
let loop_summary p loop = Prof_exec.loop_summary p.exec loop
let loops_by_weight p = Prof_exec.loops_by_weight p.exec
let all_objects p = p.objects

let object_size p name =
  match Hashtbl.find_opt p.name_ids name with
  | None -> None
  | Some id -> Hashtbl.find_opt p.obj_size id

let object_at_addr p addr =
  match Interval_map.find_opt p.live addr with
  | Some (lo, _, id) -> Some (p.names.(id), lo)
  | None -> None
