(* Worker processes and inline validation (paper section 5.1).

   Each worker owns a copy-on-write snapshot of the main process (its
   page map), a copied register frame, and a simulated clock.  Inline
   validation — separation by address tag, privacy via the shadow
   metadata machine, short-lived lifetimes by allocation balance,
   control speculation at branches, value predictions at iteration
   boundaries — runs from the manifest, through the interpreter hooks
   installed here and around each iteration; the program carries no
   checks.  Checkpoint contribution and recovery live in [Commit] and
   [Recovery]; the [Executor] driver wires the layers together. *)

open Privateer_ir
open Privateer_machine
open Privateer_interp
open Privateer_analysis
open Privateer_transform
open Privateer_runtime

(* What the manifest fixed per site, as tables indexed by node id, so
   a hook decides a site with array reads. *)
type sites = {
  check_tags : int array;
      (* the heap tag the site's live separation check expects; -1 when
         it has none (no check, an elided one, or no single heap) *)
  redux_sites : bool array; (* the site is a sanctioned reduction access *)
  cold_sides : int array;
      (* per branch, the side control speculation says is never taken
         (1: true, 0: false); -1 when the branch is not speculated *)
}

let sites (manifest : Manifest.t) =
  let checks = manifest.checks in
  let cold_sides = Array.make (Array.length checks) (-1) in
  List.iter
    (fun (l : Manifest.loop_spec) ->
      List.iter
        (fun (id, kept) -> cold_sides.(id) <- Bool.to_int (not kept))
        l.assignment.control_spec)
    manifest.loops;
  { check_tags =
      Array.map
        (function
          | Some { Manifest.expected = Some h; elided = false; _ } -> Heap.tag h
          | Some _ | None -> -1)
        checks;
    redux_sites =
      Array.map
        (function Some { Manifest.redux_op = Some _; _ } -> true | Some _ | None -> false)
        checks;
    cold_sides }

(* The layers below the driver share this environment instead of
   reaching back into [Executor.t]. *)
type env = {
  cm : Cost_model.t;
  stats : Stats.t;
  sites : sites; (* built once per executor *)
  validate : bool;
  inject : (int -> bool) option;
}

(* Per-worker simulated process. *)
type t = {
  w_id : int;
  w_st : Interp.t;
  w_frame : Interp.frame;
  mutable w_clock : int; (* absolute simulated time *)
  mutable w_beta : int;
  mutable w_sl_balance : int;
  mutable w_instr : int; (* instrumentation cycles this iteration *)
}

exception Worker_misspec of int * Misspec.reason (* iteration, reason *)

(* ---- worker hooks ---------------------------------------------------- *)

let charge_instr w n =
  w.w_st.cycles <- w.w_st.cycles + n;
  w.w_instr <- w.w_instr + n

(* An address tag's heap, from [Heap]'s own encoding: the hot path
   makes no cross-module call to find it.  Shared by every worker. *)
let heaps = Array.init 8 Heap.of_tag
let tag_mask = Heap.tag_mask
let tag_shift = Heap.tag_shift

let hooks (env : env) w : Hooks.t =
  let cm = env.cm in
  let stats = env.stats in
  let check_tags = env.sites.check_tags and redux_sites = env.sites.redux_sites in
  let cold_sides = env.sites.cold_sides in
  let on_access ~is_read id ~addr ~size =
    let tag = (addr land tag_mask) lsr tag_shift in
    (if id < Array.length check_tags then
       let expected = Array.unsafe_get check_tags id in
       if expected >= 0 then begin
         charge_instr w cm.c_check_heap;
         stats.separation_checks <- stats.separation_checks + 1;
         if tag <> expected then
           raise
             (Misspec.Misspeculation
                (Misspec.Separation { site = id; addr; expected = heaps.(expected) }))
       end);
    match heaps.(tag) with
    | Heap.Private ->
      if is_read then begin
        charge_instr w (cm.c_private_read * ((size + 7) / 8));
        stats.private_bytes_read <- stats.private_bytes_read + size;
        stats.cyc_private_read <- stats.cyc_private_read + cm.c_private_read;
        Shadow.access w.w_st.machine Shadow.Read ~addr ~size ~beta:w.w_beta
      end
      else begin
        charge_instr w (cm.c_private_write * ((size + 7) / 8));
        stats.private_bytes_written <- stats.private_bytes_written + size;
        stats.cyc_private_write <- stats.cyc_private_write + cm.c_private_write;
        Shadow.access w.w_st.machine Shadow.Write ~addr ~size ~beta:w.w_beta
      end
    | Heap.Read_only ->
      if not is_read then
        raise (Misspec.Misspeculation (Misspec.Foreign_heap { addr }))
    | Heap.Redux ->
      if not (id < Array.length redux_sites && Array.unsafe_get redux_sites id) then
        raise (Misspec.Misspeculation (Misspec.Redux_violation { site = id; addr }))
    | Heap.Short_lived | Heap.Stack -> ()
    | Heap.Default | Heap.Unrestricted | Heap.Shadow ->
      raise (Misspec.Misspeculation (Misspec.Foreign_heap { addr }))
  in
  if not env.validate then
    (* No validation: a private write is still stamped, uncharged and
       uncounted, so the checkpoint commits it; nothing else runs.
       With no read marks, no write can fail Table 2. *)
    { Hooks.default with
      on_store =
        (fun _ ~addr ~size ~value:_ ->
          if Heap.equal_kind heaps.((addr land tag_mask) lsr tag_shift) Heap.Private then
            Shadow.access w.w_st.machine Shadow.Write ~addr ~size ~beta:w.w_beta) }
  else
    { Hooks.default with
      on_load = (fun id ~addr ~size ~value:_ -> on_access ~is_read:true id ~addr ~size);
      on_store = (fun id ~addr ~size ~value:_ -> on_access ~is_read:false id ~addr ~size);
      on_alloc =
        (fun _ ~ctx:_ _ heap ~addr:_ ~size:_ ->
          if Heap.equal_kind heap Heap.Short_lived then
            w.w_sl_balance <- w.w_sl_balance + 1);
      on_free =
        (fun _ ~addr:_ ~size:_ heap ->
          if Heap.equal_kind heap Heap.Short_lived then
            w.w_sl_balance <- w.w_sl_balance - 1);
      (* Control speculation: going the way the profile never went
         misspeculates, before that side runs. *)
      on_branch =
        (fun id ~taken ->
          if
            id < Array.length cold_sides
            && Array.unsafe_get cold_sides id = if taken then 1 else 0
          then raise (Misspec.Misspeculation (Misspec.Control { site = id }))) }

(* ---- value predictions ----------------------------------------------- *)

(* Each prediction with its predicted word's address, resolved once per
   invocation (workers share the main process's global layout). *)
let resolve_predictions (st : Interp.t) predictions =
  List.map
    (fun (p : Classify.prediction) ->
      (Hashtbl.find st.globals p.pred_global + p.pred_offset, p))
    predictions

(* Runtime-performed re-initialization of a predicted location at
   iteration start (a sanctioned private write). *)
let apply_predictions (env : env) w predictions =
  let cm = env.cm in
  List.iter
    (fun (addr, (p : Classify.prediction)) ->
      charge_instr w (cm.c_prediction + cm.base.c_store + cm.c_private_write);
      env.stats.private_bytes_written <- env.stats.private_bytes_written + 8;
      env.stats.cyc_private_write <- env.stats.cyc_private_write + cm.c_private_write;
      Shadow.access w.w_st.machine Shadow.Write ~addr ~size:8 ~beta:w.w_beta;
      Machine.set_int w.w_st.machine addr p.pred_value)
    predictions

(* End-of-iteration prediction validation (a sanctioned private read). *)
let validate_predictions (env : env) w predictions =
  let cm = env.cm in
  List.iter
    (fun (addr, (p : Classify.prediction)) ->
      charge_instr w (cm.c_prediction + cm.base.c_load + cm.c_private_read);
      env.stats.private_bytes_read <- env.stats.private_bytes_read + 8;
      env.stats.cyc_private_read <- env.stats.cyc_private_read + cm.c_private_read;
      if env.validate then
        Shadow.access w.w_st.machine Shadow.Read ~addr ~size:8 ~beta:w.w_beta;
      let v = Machine.get_int w.w_st.machine addr in
      if v <> p.pred_value then
        raise
          (Misspec.Misspeculation
             (Misspec.Value_prediction
                { global = p.pred_global; offset = p.pred_offset;
                  expected = p.pred_value })))
    predictions

(* ---- loop-spec derived data ------------------------------------------ *)

(* Reduction registers of a loop spec. *)
let reduction_regs (spec : Manifest.loop_spec) =
  List.filter_map
    (fun (name, cls) ->
      match (cls : Scalars.scalar_class) with
      | Reduction_reg op -> Some (name, op)
      | Induction | Private_reg | Live_in -> None)
    spec.scalars

(* Redux heap ranges: (base address, byte size, operator). *)
let redux_ranges (st : Interp.t) (spec : Manifest.loop_spec) =
  Privateer_profile.Objname.Map.fold
    (fun name op acc ->
      match name with
      | Privateer_profile.Objname.Global g -> (
        match (Ast.find_global st.program g, Hashtbl.find_opt st.globals g) with
        | Some gl, Some base -> (base, max 8 gl.gbytes, op) :: acc
        | _ -> acc)
      | Privateer_profile.Objname.Site _ | Privateer_profile.Objname.Unknown -> acc)
    spec.assignment.redux_ops []

(* Absolute values of the reduction words at (re)spawn time; worker
   partials are folded over these at each checkpoint. *)
let read_redux_base (st : Interp.t) ranges =
  List.concat_map
    (fun (base, size, _op) ->
      List.init ((size + 7) / 8) (fun i ->
          let addr = base + (8 * i) in
          let bits, is_float = Machine.read_word st.machine addr in
          (addr, Value.of_bits bits is_float)))
    ranges

(* ---- spawn and iteration execution ----------------------------------- *)

(* Spawn-time snapshot setup for one worker: fork (copy-on-write page
   share), frame copy, reduction re-initialization. *)
let setup_worker (env : env) (st : Interp.t) fr spec ranges ~now i =
  let cm = env.cm in
  let wst = Interp.fork st in
  let frame = Interp.copy_frame fr in
  (* Reduction registers restart from the operator's identity. *)
  List.iter
    (fun (name, op) -> Interp.set_local frame name (Reduction.identity_value op))
    (reduction_regs spec);
  (* The reduction heap is replaced by identity-initialized pages
     (paper 3.2) — bulk word fill, one page resolution per page. *)
  List.iter
    (fun (base, size, op) ->
      let bits, is_float = Reduction.identity_bits op in
      Machine.fill_words wst.machine base ~words:((size + 7) / 8) bits is_float)
    ranges;
  Memory.clear_dirty wst.machine.Machine.mem;
  let w =
    { w_id = i; w_st = wst; w_frame = frame; w_clock = now + ((i + 1) * cm.c_fork);
      w_beta = 0; w_sl_balance = 0; w_instr = 0 }
  in
  wst.hooks <- hooks env w;
  w

let spawn (env : env) (st : Interp.t) fr spec ranges n_workers ~now =
  let cm = env.cm in
  let t0 = Privateer_support.Clock.now_ns () in
  let workers = List.init n_workers (setup_worker env st fr spec ranges ~now) in
  env.stats.ns_spawn <- env.stats.ns_spawn +. (Privateer_support.Clock.now_ns () -. t0);
  (* One aggregate charge: the sum of every worker's fork cost. *)
  env.stats.cyc_spawn <-
    env.stats.cyc_spawn + (n_workers * (n_workers + 1) / 2 * cm.c_fork);
  workers

(* Retire a cohort once nothing reads its workers again: each worker's
   unshared pages become spares of the run.  The workers must not run
   after it. *)
let retire workers =
  List.iter (fun w -> Memory.release w.w_st.Interp.machine.Machine.mem) workers

(* Execute one iteration on a worker.  Raises Worker_misspec. *)
let exec_iteration (env : env) w loop ~init_value ~iter ~interval_start ~predictions
    ~io =
  w.w_beta <- Shadow.timestamp ~iter ~interval_start;
  w.w_sl_balance <- 0;
  w.w_instr <- 0;
  let cycles_before = w.w_st.cycles in
  w.w_st.emit <- (fun s -> Deferred_io.emit io ~iter s);
  (try
     apply_predictions env w predictions;
     Interp.run_iteration w.w_st w.w_frame loop (init_value + iter);
     validate_predictions env w predictions;
     if env.validate && w.w_sl_balance <> 0 then
       raise
         (Misspec.Misspeculation (Misspec.Short_lived_escape { unfreed = w.w_sl_balance }));
     match env.inject with
     | Some f when f iter -> raise (Misspec.Misspeculation Misspec.Injected)
     | Some _ | None -> ()
   with
  | Misspec.Misspeculation r ->
    let delta = w.w_st.cycles - cycles_before in
    w.w_clock <- w.w_clock + delta;
    raise (Worker_misspec (iter, r))
  | Interp.Runtime_error msg ->
    let delta = w.w_st.cycles - cycles_before in
    w.w_clock <- w.w_clock + delta;
    raise (Worker_misspec (iter, Misspec.Worker_fault msg)));
  let delta = w.w_st.cycles - cycles_before in
  w.w_clock <- w.w_clock + delta;
  env.stats.cyc_useful <- env.stats.cyc_useful + (delta - w.w_instr);
  env.stats.iterations <- env.stats.iterations + 1
