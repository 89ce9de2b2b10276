(* Checkpoint collection, phase 2, and commit (paper section 5.2).

   Per interval, each worker adds its speculative state to the
   interval's one table (a scan of its marked shadow pages); phase 2
   probes that table with every worker's live-in bytes; a clean
   interval commits into the main process: the table's private bytes,
   absolute reduction values, register-reduction folds, deferred
   output in iteration order, and per-worker metadata reset (which
   visits only pages holding timestamps, while the simulated per-page
   charge stays on every mapped shadow page).  The final interval
   additionally adopts allocator state and live-out private registers
   from the worker that ran the last iteration.

   Phase 2 here is the only check of cross-worker conflicts, in both
   validation modes: `--validation eager` stops an interval only on a
   worker's own misspeculation, before it reaches this module.  It
   sees every live-in mark of the cohort, but only the writes of its
   own interval: the table does not outlive the interval.  A read of a
   word that another worker of the cohort wrote in an earlier interval
   is therefore caught by no layer, and the reader's stale snapshot
   value commits (ROADMAP item 7). *)

open Privateer_machine
open Privateer_interp
open Privateer_analysis
open Privateer_transform
open Privateer_runtime

(* Everything one worker cohort's commits need; rebuilt at each
   (re)spawn because the reduction bases are read from the main
   process at that point. *)
type ctx = {
  env : Worker.env;
  ranges : (int * int * Privateer_ir.Ast.binop) list; (* redux heap ranges *)
  reg_ops : (string * Privateer_ir.Ast.binop) list; (* register reductions *)
  redux_base : (int * Value.t) list;
      (* absolute redux words at spawn, in [ranges] word order *)
  reg_base : (string * Value.t) list; (* redux register values at spawn *)
  io : Deferred_io.t;
  emit_main : string -> unit;
  serial_commit : bool;
}

(* A reduction register's value; reading one the program never bound
   is the sequential run's fault too. *)
let local_exn fr name =
  match Interp.find_local fr name with
  | Some v -> v
  | None -> raise (Interp.Runtime_error ("unbound local " ^ name))

let make_ctx (env : Worker.env) (st : Interp.t) fr spec ~io ~emit_main ~serial_commit =
  let ranges = Worker.redux_ranges st spec in
  let reg_ops = Worker.reduction_regs spec in
  { env; ranges; reg_ops; redux_base = Worker.read_redux_base st ranges;
    reg_base = List.map (fun (name, _) -> (name, local_exn fr name)) reg_ops;
    io; emit_main; serial_commit }

let write_value_word machine addr (v : Value.t) =
  let bits, is_float = Value.to_bits v in
  Machine.write_word machine addr bits is_float

(* Build the interval's table from every worker, timed into the run's
   Stats (host instrumentation only), and put each worker's
   page-granular copy cost on its clock. *)
let collect ctx workers =
  let cm = ctx.env.Worker.cm in
  let stats = ctx.env.Worker.stats in
  let reqs =
    List.map
      (fun (w : Worker.t) ->
        { Checkpoint.req_worker = w.w_id; req_machine = w.w_st.machine;
          req_redux_ranges = ctx.ranges;
          req_reg_partials =
            List.map (fun (name, _) -> (name, local_exn w.w_frame name)) ctx.reg_ops })
      workers
  in
  let t0 = Privateer_support.Clock.now_ns () in
  let cp = Checkpoint.extract reqs in
  stats.ns_extract <- stats.ns_extract +. (Privateer_support.Clock.now_ns () -. t0);
  List.iter2
    (fun (w : Worker.t) (c : Checkpoint.contribution) ->
      let copy_cost =
        cm.c_checkpoint_base + (c.Checkpoint.pages_touched * cm.c_checkpoint_page)
      in
      w.w_clock <- w.w_clock + copy_cost;
      stats.cyc_checkpoint <- stats.cyc_checkpoint + copy_cost)
    workers cp.Checkpoint.contributions;
  cp

(* Phase 2 on the interval's table, timed into the run's Stats.  A
   write-free interval can convict no read, so it reads no clock. *)
let merge ctx (cp : Checkpoint.t) =
  if Hashtbl.length cp.Checkpoint.words = 0 then None
  else begin
    let stats = ctx.env.Worker.stats in
    let t0 = Privateer_support.Clock.now_ns () in
    let violation = Checkpoint.validate cp in
    stats.ns_merge_validate <-
      stats.ns_merge_validate +. (Privateer_support.Clock.now_ns () -. t0);
    violation
  end

(* Commit a clean interval [lo, hi) into the main process.  Returns the
   simulated time at which the checkpoint retires. *)
let commit_interval ctx (st : Interp.t) fr workers (m : Checkpoint.t) ~lo ~hi =
  let cm = ctx.env.Worker.cm in
  let stats = ctx.env.Worker.stats in
  (* Private bytes, absolute reduction values, deferred output. *)
  Checkpoint.apply_overlay st.machine m;
  List.iter
    (fun (addr, v) -> write_value_word st.machine addr v)
    (Checkpoint.merge_redux ~redux_ranges:ctx.ranges ~base:ctx.redux_base
       m.Checkpoint.contributions);
  List.iter
    (fun (name, v) -> Interp.set_local fr name v)
    (Checkpoint.merge_reg_partials ~ops:ctx.reg_ops ~base:ctx.reg_base
       m.Checkpoint.contributions);
  Deferred_io.commit_range ctx.io ~lo ~hi ~sink:ctx.emit_main;
  stats.checkpoints <- stats.checkpoints + 1;
  (* Metadata reset + dirty clear per worker, charged per mapped
     shadow page. *)
  List.iter
    (fun (w : Worker.t) ->
      let t0 = Privateer_support.Clock.now_ns () in
      let pages = Shadow.reset_interval w.w_st.machine in
      stats.ns_reset <- stats.ns_reset +. (Privateer_support.Clock.now_ns () -. t0);
      let cost = pages * cm.c_reset_page in
      w.w_clock <- w.w_clock + cost;
      stats.cyc_checkpoint <- stats.cyc_checkpoint + cost;
      Memory.clear_dirty w.w_st.machine.Machine.mem)
    workers;
  (* Workers merge their own contributions into the checkpoint object
     (paper 5.2: per-checkpoint locks, no barrier); the per-page copy
     cost is already on their clocks.  The checkpoint retires when the
     last worker has added its state. *)
  let serial_tail =
    if ctx.serial_commit then cm.c_merge_page * m.Checkpoint.total_pages else 0
  in
  let checkpoint_done =
    List.fold_left (fun acc (w : Worker.t) -> max acc w.w_clock) 0 workers
    + cm.c_checkpoint_base + serial_tail
  in
  (* A serial commit stalls every worker behind the central process
     (the STMLite bottleneck). *)
  if ctx.serial_commit then
    List.iter
      (fun (w : Worker.t) -> w.w_clock <- max w.w_clock checkpoint_done)
      workers;
  checkpoint_done

(* Final commit after the last interval: allocator state, live-out
   frame scalars, join.  [last] ran the invocation's last iteration.
   Returns the invocation's end time. *)
let commit_final ctx (st : Interp.t) fr (spec : Manifest.loop_spec) workers
    ~(last : Worker.t) ~checkpoint_done =
  let cm = ctx.env.Worker.cm in
  let stats = ctx.env.Worker.stats in
  Machine.commit_allocators st.machine ~last:last.w_st.machine
    ~all:(List.map (fun (w : Worker.t) -> w.w_st.machine) workers);
  List.iter
    (fun (name, cls) ->
      match (cls : Scalars.scalar_class) with
      | Private_reg -> (
        match Interp.find_local last.w_frame name with
        | Some v -> Interp.set_local fr name v
        | None -> ())
      | Induction | Live_in | Reduction_reg _ -> ())
    spec.scalars;
  let end_time = checkpoint_done + cm.c_join in
  List.iter
    (fun (w : Worker.t) ->
      stats.cyc_join <- stats.cyc_join + max 0 (end_time - w.w_clock))
    workers;
  end_time
