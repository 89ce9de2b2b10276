(* The shared profiling frontend (PROMPT's shape): one fast event
   producer fed by the interpreter hooks, fanned out to independent
   per-profiler consumers registered through {!register}.

   The frontend owns the work every profiler shares:

   - object naming — a live-range interval map from addresses to
     interned object-name ids, fronted by a last-object cache and a
     direct-mapped page cache so the common strided/repeated access
     patterns never reach the tree;
   - loop context — one flat mutable (loop, invocation, iteration)
     stack ({!Loop_ctx}) updated once per loop transition, shared by
     every consumer that declares [d_needs_ctx] (the reference
     rebuilds an immutable list per iteration);
   - event dispatch — consumers are per-kind handler tables, and hooks
     call the handlers directly: no event is ever materialized, and
     kinds no enabled consumer handles are never even dispatched. *)

open Privateer_support

(* Extended by each profiler module with its own state constructor, so
   the facade can recover typed state from {!consumer_state}. *)
type state = ..

(* Per-kind handlers; operand order follows the {!Event} layout. *)
type consumer = {
  c_state : state;
  c_load : int -> int -> int -> int -> Privateer_interp.Value.t -> unit;
      (* site addr size name-id value *)
  c_store : int -> int -> int -> int -> unit; (* site addr size name-id *)
  c_alloc : int -> int -> int -> int -> unit; (* site addr size name-id *)
  c_free : int -> int -> int -> unit; (* addr size name-id (-1 unknown) *)
  c_enter : int -> int -> unit; (* loop cycles-at-entry *)
  c_iter : int -> int -> unit; (* loop iteration *)
  c_exit : int -> int -> int -> unit; (* loop trips cycles-at-exit *)
  c_branch : int -> int -> unit; (* branch-id taken(1/0) *)
}

(* All-no-op handler table; consumers override the kinds they declare
   in [d_kinds]. *)
let null_consumer st =
  { c_state = st;
    c_load = (fun _ _ _ _ _ -> ());
    c_store = (fun _ _ _ _ -> ());
    c_alloc = (fun _ _ _ _ -> ());
    c_free = (fun _ _ _ -> ());
    c_enter = (fun _ _ -> ());
    c_iter = (fun _ _ -> ());
    c_exit = (fun _ _ _ -> ());
    c_branch = (fun _ _ -> ()) }

type descriptor = {
  d_name : string;
  d_doc : string;
  d_needs_objects : bool;
      (* resolve an object name per load/store for this consumer? *)
  d_needs_ctx : bool; (* maintain a loop-context stack for it? *)
  d_kinds : int; (* Event.mask_of of the kinds it handles *)
  d_create : ctx:Loop_ctx.t -> consumer;
}

let registry : descriptor list ref = ref []

let register d =
  if List.exists (fun d' -> d'.d_name = d.d_name) !registry then
    invalid_arg ("Profile.Frontend.register: duplicate profiler " ^ d.d_name);
  registry := !registry @ [ d ]

let registered () = List.map (fun d -> d.d_name) !registry
let find name = List.find_opt (fun d -> d.d_name = name) !registry

type instance = { i_name : string; i_consumer : consumer; i_mask : int }

(* Page cache geometry: 4 KiB pages, 4096 direct-mapped slots. *)
let page_bits = 12
let pc_slots = 4096

let loop_kinds = Event.(mask_of [ enter; iter; exit' ])

type t = {
  live : int Interval_map.t; (* address range -> name id *)
  mutable names : Objname.t array; (* id -> name; id 0 = Unknown *)
  mutable n_names : int;
  name_ids : (Objname.t, int) Hashtbl.t;
  obj_size : (int, int) Hashtbl.t; (* name id -> max observed size *)
  mutable objects : Objname.Set.t;
  (* Caches are valid only while [gen] is unchanged; every allocation,
     free and global registration bumps it. *)
  mutable gen : int;
  mutable last_gen : int;
  mutable last_lo : int;
  mutable last_hi : int;
  mutable last_id : int;
  pc_gen : int array;
  pc_page : int array;
  pc_lo : int array;
  pc_hi : int array;
  pc_id : int array;
  resolve_names : bool; (* any enabled consumer needs per-access names *)
  needs_ctx : bool; (* any enabled consumer needs the loop context *)
  ctx : Loop_ctx.t; (* the shared stack *)
  wanted : int; (* kinds to dispatch *)
  (* Dispatch tables: the consumers handling each kind. *)
  h_load : (int -> int -> int -> int -> Privateer_interp.Value.t -> unit) array;
  h_store : (int -> int -> int -> int -> unit) array;
  h_alloc : (int -> int -> int -> int -> unit) array;
  h_free : (int -> int -> int -> unit) array;
  h_enter : (int -> int -> unit) array;
  h_iter : (int -> int -> unit) array;
  h_exit : (int -> int -> int -> unit) array;
  h_branch : (int -> int -> unit) array;
  consumers : instance array;
  mutable get_cycles : unit -> int;
}

let dedup names =
  List.fold_left (fun acc n -> if List.mem n acc then acc else acc @ [ n ]) [] names

let create ?(profilers = [ "all" ]) () =
  let descriptors =
    if List.mem "all" profilers then !registry
    else
      List.map
        (fun n ->
          match find n with
          | Some d -> d
          | None ->
            invalid_arg
              (Printf.sprintf "unknown profiler %S (registered: %s)" n
                 (String.concat ", " (registered ()))))
        (dedup profilers)
  in
  let ctx = Loop_ctx.create () in
  let consumers =
    Array.of_list
      (List.map
         (fun d -> { i_name = d.d_name; i_consumer = d.d_create ~ctx; i_mask = d.d_kinds })
         descriptors)
  in
  let handler_mask = List.fold_left (fun m d -> m lor d.d_kinds) 0 descriptors in
  let needs_ctx = List.exists (fun d -> d.d_needs_ctx) descriptors in
  let handlers bit proj =
    Array.of_list
      (List.filter_map
         (fun inst ->
           if inst.i_mask land bit <> 0 then Some (proj inst.i_consumer) else None)
         (Array.to_list consumers))
  in
  let t =
    { live = Interval_map.create (); names = Array.make 64 Objname.Unknown;
      n_names = 1; name_ids = Hashtbl.create 64; obj_size = Hashtbl.create 32;
      objects = Objname.Set.empty; gen = 1; last_gen = 0; last_lo = 0;
      last_hi = 0; last_id = 0; pc_gen = Array.make pc_slots 0;
      pc_page = Array.make pc_slots 0; pc_lo = Array.make pc_slots 0;
      pc_hi = Array.make pc_slots 0; pc_id = Array.make pc_slots 0;
      resolve_names = List.exists (fun d -> d.d_needs_objects) descriptors;
      needs_ctx; ctx; wanted = handler_mask;
      h_load = handlers (Event.bit Event.load) (fun c -> c.c_load);
      h_store = handlers (Event.bit Event.store) (fun c -> c.c_store);
      h_alloc = handlers (Event.bit Event.alloc) (fun c -> c.c_alloc);
      h_free = handlers (Event.bit Event.free) (fun c -> c.c_free);
      h_enter = handlers (Event.bit Event.enter) (fun c -> c.c_enter);
      h_iter = handlers (Event.bit Event.iter) (fun c -> c.c_iter);
      h_exit = handlers (Event.bit Event.exit') (fun c -> c.c_exit);
      h_branch = handlers (Event.bit Event.branch) (fun c -> c.c_branch);
      consumers; get_cycles = (fun () -> 0) }
  in
  (* Name id 0 is reserved for [Objname.Unknown]. *)
  Hashtbl.replace t.name_ids Objname.Unknown 0;
  t

let enabled t = Array.to_list (Array.map (fun i -> i.i_name) t.consumers)
let set_get_cycles t f = t.get_cycles <- f

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

let name_of t id =
  if id >= 0 && id < t.n_names then t.names.(id) else Objname.Unknown

let id_of_name t name = Hashtbl.find_opt t.name_ids name

let note_object t id size =
  t.objects <- Objname.Set.add t.names.(id) t.objects;
  match Hashtbl.find_opt t.obj_size id with
  | Some s when s >= size -> ()
  | Some _ | None -> Hashtbl.replace t.obj_size id size

(* Name id of the object containing [addr]: last-object cache, then
   the page cache, then the interval map (filling both caches on the
   way out).  Misses resolve to id 0 = Unknown and are not cached —
   in practice almost every access hits a registered object. *)
let resolve t addr =
  if t.last_gen = t.gen && addr >= t.last_lo && addr < t.last_hi then t.last_id
  else begin
    let page = addr lsr page_bits in
    let slot = page land (pc_slots - 1) in
    if
      t.pc_gen.(slot) = t.gen && t.pc_page.(slot) = page
      && addr >= t.pc_lo.(slot)
      && addr < t.pc_hi.(slot)
    then begin
      t.last_gen <- t.gen;
      t.last_lo <- t.pc_lo.(slot);
      t.last_hi <- t.pc_hi.(slot);
      t.last_id <- t.pc_id.(slot);
      t.last_id
    end
    else
      match Interval_map.find_opt t.live addr with
      | Some (lo, hi, id) ->
        t.last_gen <- t.gen;
        t.last_lo <- lo;
        t.last_hi <- hi;
        t.last_id <- id;
        t.pc_gen.(slot) <- t.gen;
        t.pc_page.(slot) <- page;
        t.pc_lo.(slot) <- lo;
        t.pc_hi.(slot) <- hi;
        t.pc_id.(slot) <- id;
        id
      | None -> 0
  end

(* ---- hook bodies ------------------------------------------------------ *)

(* Every hook first checks the event kind against [wanted]: kinds no
   enabled consumer consumes are never dispatched (an exec-only run
   does nothing at all on an access).  Naming (interval
   map, interning) is frontend state and is maintained regardless. *)

let[@inline] wants t k = t.wanted land (1 lsl Char.code k) <> 0

(* Kinds whose hooks must actually be invoked: wanted kinds, alloc and
   free unconditionally (they maintain object naming), and the loop
   kinds whenever the shared context stack is maintained.
   Callers can install no-op interpreter hooks for everything else. *)
let hook_mask t =
  t.wanted
  lor Event.(mask_of [ alloc; free ])
  lor (if t.needs_ctx then loop_kinds else 0)

let on_load t site ~addr ~size ~value =
  if wants t Event.load then begin
    let d = if t.resolve_names then resolve t addr else 0 in
    let hs = t.h_load in
    for i = 0 to Array.length hs - 1 do
      (Array.unsafe_get hs i) site addr size d value
    done
  end

let on_store t site ~addr ~size =
  if wants t Event.store then begin
    let d = if t.resolve_names then resolve t addr else 0 in
    let hs = t.h_store in
    for i = 0 to Array.length hs - 1 do
      (Array.unsafe_get hs i) site addr size d
    done
  end

let on_alloc t site ~ctx ~addr ~size =
  let id = intern t (Objname.Site (site, ctx)) in
  note_object t id size;
  t.gen <- t.gen + 1;
  Interval_map.insert t.live addr (addr + size) id;
  if wants t Event.alloc then begin
    let hs = t.h_alloc in
    for i = 0 to Array.length hs - 1 do
      (Array.unsafe_get hs i) site addr size id
    done
  end

let on_free t ~addr ~size =
  t.gen <- t.gen + 1;
  let d =
    match Interval_map.remove_start t.live addr with
    | Some (_, id) -> id
    | None -> -1
  in
  if wants t Event.free then begin
    let hs = t.h_free in
    for i = 0 to Array.length hs - 1 do
      (Array.unsafe_get hs i) addr size d
    done
  end

let on_loop_enter t loop =
  if t.needs_ctx then Loop_ctx.enter t.ctx loop;
  let hs = t.h_enter in
  if Array.length hs > 0 then begin
    let cy = t.get_cycles () in
    for i = 0 to Array.length hs - 1 do
      (Array.unsafe_get hs i) loop cy
    done
  end

let on_loop_iter t loop ~iter =
  if t.needs_ctx then Loop_ctx.iter t.ctx loop iter;
  let hs = t.h_iter in
  for i = 0 to Array.length hs - 1 do
    (Array.unsafe_get hs i) loop iter
  done

let on_loop_exit t loop ~trips =
  if t.needs_ctx then Loop_ctx.exit t.ctx loop;
  let hs = t.h_exit in
  if Array.length hs > 0 then begin
    let cy = t.get_cycles () in
    for i = 0 to Array.length hs - 1 do
      (Array.unsafe_get hs i) loop trips cy
    done
  end

let on_branch t id ~taken =
  if wants t Event.branch then begin
    let tk = if taken then 1 else 0 in
    let hs = t.h_branch in
    for i = 0 to Array.length hs - 1 do
      (Array.unsafe_get hs i) id tk
    done
  end

(* Globals are allocated by [Interp.create] before hooks can observe
   them; register them as named live objects directly (no event —
   nothing is born or freed). *)
let register_global t gname ~addr ~bytes =
  let id = intern t (Objname.Global gname) in
  note_object t id bytes;
  t.gen <- t.gen + 1;
  Interval_map.insert t.live addr (addr + max 8 bytes) id

(* ---- queries ---------------------------------------------------------- *)

let consumer_state t name =
  let found = ref None in
  Array.iter
    (fun inst ->
      if !found = None && inst.i_name = name then found := Some inst.i_consumer.c_state)
    t.consumers;
  !found

let all_objects t = t.objects

let object_size t name =
  match Hashtbl.find_opt t.name_ids name with
  | None -> None
  | Some id -> Hashtbl.find_opt t.obj_size id

let object_at_addr t addr =
  match Interval_map.find_opt t.live addr with
  | Some (lo, _, id) -> Some (t.names.(id), lo)
  | None -> None
