(* The original monolithic Privateer profiler (paper section 4.1),
   kept verbatim as the differential-testing oracle for
   [Privateer_profile.Profiler] — the same pattern as
   [Shadow_reference].  All five
   profilers run over one set of interpreter hooks:

   - pointer-to-object profiler: an interval map from live address
     ranges to object names records, for every load/store site, the
     set of objects it was observed to touch;
   - object lifetime profiler: marks objects allocated and freed
     within a single iteration of each enclosing loop (short-lived);
   - memory flow dependence profiler: records cross-iteration
     (loop-carried) flow dependences per loop at word granularity;
   - value-prediction profiler: finds load sites that always observe
     the same constant;
   - execution-time profiler: per-loop invocation/trip/cycle totals,
     used to find hot loops. *)

open Privateer_support
open Privateer_ir
open Privateer_interp
open Privateer_profile

type instance = {
  name : Objname.t;
  birth_vec : (int * int * int) list; (* (loop, invocation, iter) at birth *)
}

type write_rec = { wsite : int; wvec : (int * int * int) list }

type loop_stat = {
  mutable invocations : int;
  mutable trips : int;
  mutable cycles : int;
  mutable enter_cycles : int list; (* stack for nested invocations *)
}

type const_status = Profile_types.const_status = Const of Value.t | Varying

type dep_info = Profile_types.dep_info = {
  mutable dep_count : int;
  mutable dep_value : const_status;
  mutable dep_addr : [ `Addr of int | `Many ];
}

type t = {
  live : instance Interval_map.t;
  site_objects : (int, Objname.Set.t ref) Hashtbl.t;
  alloc_site_names : (int, Objname.Set.t ref) Hashtbl.t;
  (* (name, loop) pairs: allocations observed under the loop, and
     pairs disqualified from short-lived status. *)
  sl_seen : (Objname.t * int, unit) Hashtbl.t;
  sl_bad : (Objname.t * int, unit) Hashtbl.t;
  (* Live objects born during the current invocation of each loop. *)
  born_in : (int, (int, Objname.t) Hashtbl.t) Hashtbl.t;
  flow_deps : (int, (int * int, dep_info) Hashtbl.t) Hashtbl.t;
  branch_counts : (int, (int ref * int ref)) Hashtbl.t; (* taken, not taken *)
  last_write : (int, write_rec) Hashtbl.t; (* word address -> last writer *)
  load_const : (int, const_status) Hashtbl.t;
  loop_stats : (int, loop_stat) Hashtbl.t;
  mutable objects : Objname.Set.t;
  obj_size : (Objname.t, int) Hashtbl.t;
  (* Current loop iteration vector, innermost first. *)
  mutable vec : (int * int * int) list;
  mutable get_cycles : unit -> int;
}

let create () =
  { live = Interval_map.create (); site_objects = Hashtbl.create 64;
    alloc_site_names = Hashtbl.create 16; sl_seen = Hashtbl.create 32;
    sl_bad = Hashtbl.create 32; born_in = Hashtbl.create 8;
    flow_deps = Hashtbl.create 8; branch_counts = Hashtbl.create 32;
    last_write = Hashtbl.create 4096;
    load_const = Hashtbl.create 64; loop_stats = Hashtbl.create 16;
    objects = Objname.Set.empty; obj_size = Hashtbl.create 32; vec = [];
    get_cycles = (fun () -> 0) }

let note_object p name size =
  p.objects <- Objname.Set.add name p.objects;
  match Hashtbl.find_opt p.obj_size name with
  | Some s when s >= size -> ()
  | Some _ | None -> Hashtbl.replace p.obj_size name size

let add_to_set tbl key name =
  match Hashtbl.find_opt tbl key with
  | Some cell -> cell := Objname.Set.add name !cell
  | None -> Hashtbl.replace tbl key (ref (Objname.Set.singleton name))

let stat_of p loop =
  match Hashtbl.find_opt p.loop_stats loop with
  | Some s -> s
  | None ->
    let s = { invocations = 0; trips = 0; cycles = 0; enter_cycles = [] } in
    Hashtbl.replace p.loop_stats loop s;
    s

let mark_sl_bad p name loop = Hashtbl.replace p.sl_bad (name, loop) ()

(* ---- hook bodies ----------------------------------------------------- *)

let name_of_addr p addr =
  match Interval_map.find_opt p.live addr with
  | Some (_, _, inst) -> inst.name
  | None -> Objname.Unknown

let on_access p site addr =
  add_to_set p.site_objects site (name_of_addr p addr)

let word_of addr = addr lsr 3

let on_load p site addr size value =
  on_access p site addr;
  (* Value-prediction candidates. *)
  (match Hashtbl.find_opt p.load_const site with
  | None -> Hashtbl.replace p.load_const site (Const value)
  | Some (Const v) when Value.equal v value -> ()
  | Some (Const _) -> Hashtbl.replace p.load_const site Varying
  | Some Varying -> ());
  (* Cross-iteration flow dependences: did an earlier iteration of any
     currently-active loop write any word this load reads?  The word
     range spans [addr, addr + size), including the trailing word an
     unaligned access crosses into. *)
  for w = word_of addr to word_of (addr + max 1 size - 1) do
    match Hashtbl.find_opt p.last_write w with
    | None -> ()
    | Some { wsite; wvec } ->
      List.iter
        (fun (l, inv, it) ->
          match List.find_opt (fun (l', _, _) -> l' = l) wvec with
          | Some (_, inv', it') when inv' = inv && it' < it ->
            let deps =
              match Hashtbl.find_opt p.flow_deps l with
              | Some d -> d
              | None ->
                let d = Hashtbl.create 16 in
                Hashtbl.replace p.flow_deps l d;
                d
            in
            let info =
              match Hashtbl.find_opt deps (wsite, site) with
              | Some info -> info
              | None ->
                let info =
                  { dep_count = 0; dep_value = Const value; dep_addr = `Addr addr }
                in
                Hashtbl.replace deps (wsite, site) info;
                info
            in
            info.dep_count <- info.dep_count + 1;
            (match info.dep_value with
            | Const v when Value.equal v value -> ()
            | Const _ -> info.dep_value <- Varying
            | Varying -> ());
            (match info.dep_addr with
            | `Addr a when a = addr -> ()
            | `Addr _ -> info.dep_addr <- `Many
            | `Many -> ())
          | Some _ | None -> ())
        p.vec
  done

let on_store p site addr size =
  on_access p site addr;
  for w = word_of addr to word_of (addr + max 1 size - 1) do
    Hashtbl.replace p.last_write w { wsite = site; wvec = p.vec }
  done

let on_alloc p site ctx addr size =
  let name = Objname.Site (site, ctx) in
  note_object p name size;
  add_to_set p.alloc_site_names site name;
  Interval_map.insert p.live addr (addr + size) { name; birth_vec = p.vec };
  List.iter
    (fun (l, _, _) ->
      Hashtbl.replace p.sl_seen (name, l) ();
      match Hashtbl.find_opt p.born_in l with
      | Some tbl -> Hashtbl.replace tbl addr name
      | None ->
        let tbl = Hashtbl.create 16 in
        Hashtbl.replace p.born_in l tbl;
        Hashtbl.replace tbl addr name)
    p.vec

let on_free p addr size =
  (* Recycled ranges must not leave stale last-write records behind:
     a later object at the same address is a different object.  The
     cleared span mirrors the registered range (at least 8 bytes). *)
  for w = word_of addr to word_of (addr + max 8 size - 1) do
    Hashtbl.remove p.last_write w
  done;
  match Interval_map.remove_start p.live addr with
  | None -> () (* freeing something the profiler never saw allocated *)
  | Some (_, inst) ->
    (* Short-lived check: every loop active at birth must still be in
       the same invocation and iteration now; loops active now but not
       at birth saw the object cross into them from outside. *)
    List.iter
      (fun (l, inv, it) ->
        (match List.find_opt (fun (l', _, _) -> l' = l) p.vec with
        | Some (_, inv', it') when inv' = inv && it' = it -> ()
        | Some _ | None -> mark_sl_bad p inst.name l);
        match Hashtbl.find_opt p.born_in l with
        | Some tbl -> Hashtbl.remove tbl addr
        | None -> ())
      inst.birth_vec;
    List.iter
      (fun (l, _, _) ->
        if not (List.exists (fun (l', _, _) -> l' = l) inst.birth_vec) then
          mark_sl_bad p inst.name l)
      p.vec

let on_loop_enter p loop =
  let s = stat_of p loop in
  s.invocations <- s.invocations + 1;
  s.enter_cycles <- p.get_cycles () :: s.enter_cycles;
  p.vec <- (loop, s.invocations, -1) :: p.vec;
  (match Hashtbl.find_opt p.born_in loop with
  | Some tbl -> Hashtbl.reset tbl
  | None -> Hashtbl.replace p.born_in loop (Hashtbl.create 16))

let on_loop_iter p loop iter =
  p.vec <-
    List.map (fun (l, inv, it) -> if l = loop then (l, inv, iter) else (l, inv, it)) p.vec

let on_loop_exit p loop trips =
  let s = stat_of p loop in
  s.trips <- s.trips + trips;
  (match s.enter_cycles with
  | enter :: rest ->
    s.enter_cycles <- rest;
    s.cycles <- s.cycles + (p.get_cycles () - enter)
  | [] -> ());
  (match p.vec with
  | (l, _, _) :: rest when l = loop -> p.vec <- rest
  | _ -> p.vec <- List.filter (fun (l, _, _) -> l <> loop) p.vec);
  (* Objects born in this invocation and still live are not
     short-lived with respect to this loop. *)
  match Hashtbl.find_opt p.born_in loop with
  | None -> ()
  | Some tbl ->
    Hashtbl.iter (fun _addr name -> mark_sl_bad p name loop) tbl;
    Hashtbl.reset tbl

(* ---- attaching to an interpreter ------------------------------------ *)

(* Register the program's globals as named objects (they are allocated
   by Interp.create before hooks can observe them). *)
let register_globals p (st : Interp.t) =
  List.iter
    (fun (g : Ast.global) ->
      let addr = Hashtbl.find st.globals g.gname in
      let name = Objname.Global g.gname in
      note_object p name g.gbytes;
      Interval_map.insert p.live addr (addr + max 8 g.gbytes) { name; birth_vec = [] })
    st.program.globals

let hooks p : Hooks.t =
  { on_load = (fun id ~addr ~size ~value -> on_load p id addr size value);
    on_store = (fun id ~addr ~size ~value:_ -> on_store p id addr size);
    on_alloc = (fun id ~ctx _kind _heap ~addr ~size -> on_alloc p id ctx addr size);
    on_free = (fun _id ~addr ~size _heap -> on_free p addr size);
    on_loop_enter = (fun id -> on_loop_enter p id);
    on_loop_iter = (fun id ~iter -> on_loop_iter p id iter);
    on_loop_exit = (fun id ~trips -> on_loop_exit p id trips);
    on_branch =
      (fun id ~taken ->
        let t, f =
          match Hashtbl.find_opt p.branch_counts id with
          | Some cell -> cell
          | None ->
            let cell = (ref 0, ref 0) in
            Hashtbl.replace p.branch_counts id cell;
            cell
        in
        incr (if taken then t else f)) }

let attach p (st : Interp.t) =
  register_globals p st;
  p.get_cycles <- (fun () -> st.cycles);
  st.hooks <- hooks p

(* Profile a whole program run; returns the profiler and final state. *)
let profile_run program =
  let st = Interp.create program in
  let p = create () in
  attach p st;
  ignore (Interp.run_entry st);
  (p, st)

(* ---- post-run queries ------------------------------------------------ *)

let objects_at_site p site =
  match Hashtbl.find_opt p.site_objects site with
  | Some cell -> !cell
  | None -> Objname.Set.empty

let alloc_names p site =
  match Hashtbl.find_opt p.alloc_site_names site with
  | Some cell -> !cell
  | None -> Objname.Set.empty

let is_short_lived p name ~loop =
  Hashtbl.mem p.sl_seen (name, loop) && not (Hashtbl.mem p.sl_bad (name, loop))

(* Canonical order (writer site, reader site): hash-table fold order
   would differ between implementations of the same dependence set. *)
let flow_deps p ~loop =
  match Hashtbl.find_opt p.flow_deps loop with
  | None -> []
  | Some tbl ->
    Hashtbl.fold (fun (w, r) info acc -> (w, r, info) :: acc) tbl []
    |> List.sort (fun (w1, r1, _) (w2, r2, _) -> compare (w1, r1) (w2, r2))

(* Branch bias: Some true = always taken, Some false = never taken,
   None = mixed or never executed. *)
let branch_bias p branch =
  match Hashtbl.find_opt p.branch_counts branch with
  | None -> None
  | Some (t, f) ->
    if !t > 0 && !f = 0 then Some true
    else if !f > 0 && !t = 0 then Some false
    else None

let branch_counts p branch =
  match Hashtbl.find_opt p.branch_counts branch with
  | None -> (0, 0)
  | Some (t, f) -> (!t, !f)

let const_load_value p site =
  match Hashtbl.find_opt p.load_const site with
  | Some (Const v) -> Some v
  | Some Varying | None -> None

type loop_summary = Profile_types.loop_summary = {
  loop_invocations : int;
  loop_trips : int;
  loop_cycles : int;
}

let loop_summary p loop =
  match Hashtbl.find_opt p.loop_stats loop with
  | None -> None
  | Some s ->
    Some { loop_invocations = s.invocations; loop_trips = s.trips; loop_cycles = s.cycles }

let all_objects p = p.objects

let object_size p name = Hashtbl.find_opt p.obj_size name

(* The object containing [addr] (and its base address) at the current
   point in the run; used post-run to resolve value-prediction
   addresses against still-live objects such as globals. *)
let object_at_addr p addr =
  match Interval_map.find_opt p.live addr with
  | Some (lo, _, inst) -> Some (inst.name, lo)
  | None -> None

(* Loops sorted by total cycle weight, heaviest first; ties break on
   the loop id so hot-loop selection order is stable. *)
let loops_by_weight p =
  Hashtbl.fold (fun l s acc -> (l, s.cycles) :: acc) p.loop_stats []
  |> List.sort (fun (la, a) (lb, b) ->
         match compare b a with 0 -> compare la lb | c -> c)
