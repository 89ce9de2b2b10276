(* The speculative DOALL engine driver (paper section 5).

   Intercepts a selected For loop and wires the engine's layers around
   it: [Schedule] assigns iterations to simulated worker processes,
   [Worker] executes them under inline validation, [Commit] builds
   each interval's checkpoint table, validates it and commits clean
   intervals, and [Recovery] squashes and re-executes misspeculated
   intervals — with an optional adaptive checkpoint period and a
   per-loop misspeculation throttle that demotes chronically
   misspeculating loops to sequential execution.

   Timing is simulated: workers accumulate cycle clocks (application
   costs from the interpreter's table, runtime costs from Cost_model),
   and the invocation's wall time is the checkpointed maximum, charged
   back to the main interpreter's cycle counter. *)

open Privateer_ir
open Privateer_machine
open Privateer_interp
open Privateer_transform
open Privateer_runtime

type t = {
  manifest : Manifest.t;
  sites : Worker.sites; (* the manifest's per-site decisions, for every cohort *)
  config : Runtime_config.t;
  stats : Stats.t;
  mutable fallbacks : int; (* invocations run sequentially (failed preheader) *)
  suspended : (Ast.node_id, unit) Hashtbl.t;
      (* loops whose speculation the throttle has suspended *)
}

let create manifest (config : Runtime_config.t) =
  Runtime_config.validate config;
  let stats = Stats.create () in
  stats.workers <- config.workers;
  { manifest; sites = Worker.sites manifest; config; stats; fallbacks = 0;
    suspended = Hashtbl.create 4 }

let env t =
  { Worker.cm = t.config.costs; stats = t.stats; sites = t.sites;
    validate = t.config.validate; inject = t.config.inject }

(* True once the throttle has demoted the loop: later invocations of
   this run execute it sequentially. *)
let loop_suspended t loop = Hashtbl.mem t.suspended loop

let suspend_loop t loop = Hashtbl.replace t.suspended loop ()

(* ---- main invocation driver ------------------------------------------ *)

let auto_period n = max 1 (min Shadow.max_interval ((n + 5) / 6))

let run_invocation t (st : Interp.t) fr (spec : Manifest.loop_spec) loop ~init_value
    ~n =
  (* Eager validation: a worker's own misspeculation stops the sweep.
     Without validation nothing misspeculates but injection and
     faults, so --no-validate ablations run commit's sweep in either
     mode. *)
  let eager = t.config.validation = Runtime_config.Eager && t.config.validate in
  let env = env t in
  let stats = t.stats in
  let ls = Stats.loop_stats stats spec.loop in
  stats.invocations <- stats.invocations + 1;
  ls.l_invocations <- ls.l_invocations + 1;
  let predictions = Worker.resolve_predictions st spec.assignment.predictions in
  let finish_induction () =
    (* Induction variable's final value, as after a sequential For. *)
    Interp.set_induction fr loop (init_value + n)
  in
  let preheader_ok () =
    List.for_all
      (fun (addr, (p : Privateer_analysis.Classify.prediction)) ->
        Machine.get_int st.machine addr = p.pred_value)
      predictions
  in
  if loop_suspended t spec.loop then begin
    (* The throttle suspended this loop: non-speculative execution. *)
    ls.l_suspended_invocations <- ls.l_suspended_invocations + 1;
    ignore (Recovery.run_sequentially st fr loop ~init_value ~lo:0 ~hi:(n - 1));
    finish_induction ()
  end
  else if not (preheader_ok ()) then begin
    (* Preheader: live-in values must match the predictions, otherwise
       fall back to sequential, non-speculative execution. *)
    t.fallbacks <- t.fallbacks + 1;
    ignore (Recovery.run_sequentially st fr loop ~init_value ~lo:0 ~hi:(n - 1));
    finish_induction ()
  end
  else begin
    let k =
      match t.config.checkpoint_period with Some k -> k | None -> auto_period n
    in
    let period = Recovery.make_period ~adaptive:t.config.adaptive_period k in
    let throttle = Recovery.make_throttle t.config.throttle in
    let timeline = ref 0 in
    let c_start = st.cycles in
    let io = Deferred_io.create () in
    let emit_main = st.emit in
    let nw = t.config.workers in
    let rec parallel_from start_iter =
      if start_iter >= n then ()
      else if Recovery.should_demote throttle then begin
        (* Demotion: the invocation burned its misspeculation budget.
           Finish sequentially and suspend the loop. *)
        ls.l_demotions <- ls.l_demotions + 1;
        suspend_loop t spec.loop;
        let cycles =
          Recovery.run_sequentially st fr loop ~init_value ~lo:start_iter ~hi:(n - 1)
        in
        timeline := !timeline + cycles
      end
      else if not (preheader_ok ()) then begin
        (* The recovered (or entry) state contradicts the value
           predictions: speculation cannot resume yet.  Execute one
           iteration non-speculatively and try again — the prediction
           typically re-establishes itself (e.g. the queue drains). *)
        timeline :=
          !timeline
          + Recovery.reestablish_step env st fr loop ~init_value ~iter:start_iter;
        parallel_from (start_iter + 1)
      end
      else begin
        let ctx =
          Commit.make_ctx env st fr spec ~io ~emit_main
            ~serial_commit:t.config.serial_commit
        in
        let workers = Worker.spawn env st fr spec ctx.Commit.ranges nw ~now:!timeline in
        let rec interval_loop i0 =
          let hi = min n (i0 + Recovery.current_period period) in
          let owner =
            Schedule.owner t.config.schedule ~workers:nw ~spawn_start:start_iter
              ~lo:i0 ~hi
          in
          (* Execute every worker's iterations of [i0, hi).  In eager
             mode the first misspeculation a worker raises itself
             (Table 2, separation, a value prediction, control,
             injection or a fault) squashes the whole sweep: the
             observing worker stops, and every worker after it in the
             (deterministic) sweep order never runs this interval,
             which is the mode's entire saving.  Commit mode
             reproduces the paper's behavior: every worker burns its
             full slice and the discard happens below.  Cross-worker
             conflicts are phase 2's alone, in both modes. *)
          let misspecs = ref [] in
          let executed = ref 0 in
          let eager_killed = ref false in
          (try
             List.iter
               (fun (w : Worker.t) ->
                 try
                   for iter = i0 to hi - 1 do
                     if owner iter = w.Worker.w_id then begin
                       incr executed;
                       Worker.exec_iteration env w loop ~init_value ~iter
                         ~interval_start:i0 ~predictions ~io
                     end
                   done
                 with Worker.Worker_misspec (iter, reason) ->
                   misspecs := (iter, reason) :: !misspecs;
                   if eager then begin
                     eager_killed := true;
                     raise Exit
                   end)
               workers
           with Exit -> ());
          (* The interval's table and phase-2 validation. *)
          let checkpoint = if !misspecs <> [] then None else Some (Commit.collect ctx workers) in
          let violation =
            match (!misspecs, checkpoint) with
            | (_ :: _ as ms), _ ->
              (* Workers record the earliest misspeculated iteration
                 (paper 5.3). *)
              let earliest_iter, reason =
                List.fold_left
                  (fun (bi, br) (i, r) -> if i < bi then (i, r) else (bi, br))
                  (max_int, Misspec.Injected) ms
              in
              Some (earliest_iter, reason)
            | [], Some cp -> (
              match Commit.merge ctx cp with
              | Some r -> Some (hi - 1, r) (* unknown iteration: recover interval *)
              | None -> None)
            | [], None -> None
          in
          match violation with
          | Some (miss_iter, _reason) ->
            (* Every speculatively executed iteration of a squashed
               interval is wasted work — the comparison metric between
               the two validation modes.  An eager kill additionally
               records how much of commit mode's waste it skipped, and
               hands the adaptive period the observed conflict
               distance (something merge-time detection, pinned to the
               interval end, cannot know). *)
            stats.squashed_iterations <- stats.squashed_iterations + !executed;
            if !eager_killed then begin
              stats.eager_kills <- stats.eager_kills + 1;
              stats.avoided_iterations <-
                stats.avoided_iterations + (hi - i0 - !executed)
            end;
            if eager then Recovery.period_note_eager period ~interval_start:i0 ~miss_iter;
            Recovery.period_on_misspec period;
            Recovery.throttle_note_misspec throttle;
            ls.l_misspeculations <- ls.l_misspeculations + 1;
            timeline :=
              List.fold_left
                (fun acc (w : Worker.t) -> max acc w.w_clock)
                !timeline workers;
            timeline :=
              !timeline
              + Recovery.recover env st fr loop ~init_value ~io ~emit_main
                  ~interval_start:i0 ~miss_iter;
            parallel_from (miss_iter + 1)
          | None ->
            Recovery.period_on_clean period;
            let checkpoint_done =
              Commit.commit_interval ctx st fr workers (Option.get checkpoint) ~lo:i0 ~hi
            in
            if hi >= n then begin
              (* Final commit: allocator state, frame scalars, join. *)
              let last_iter = n - 1 in
              let last =
                List.find (fun (w : Worker.t) -> owner last_iter = w.Worker.w_id) workers
              in
              let end_time =
                Commit.commit_final ctx st fr spec workers ~last ~checkpoint_done
              in
              timeline := max !timeline end_time
            end
            else interval_loop hi
        in
        interval_loop start_iter
      end
    in
    parallel_from 0;
    finish_induction ();
    st.emit <- emit_main;
    stats.wall_cycles <- stats.wall_cycles + !timeline;
    ls.l_wall_cycles <- ls.l_wall_cycles + !timeline;
    (* Charge the invocation's wall time to the main process clock. *)
    st.cycles <- c_start + !timeline
  end

(* ---- installation ---------------------------------------------------- *)

(* Install the executor on an interpreter: selected loops run in
   parallel, everything else is untouched. *)
let install t (st : Interp.t) =
  st.parallel_for <-
    Some
      (fun st fr loop ~init ~limit ->
        match Manifest.loop_spec t.manifest (Interp.loop_id loop) with
        | None -> false
        | Some spec ->
          let n = limit - init in
          (* An empty invocation only sets the induction variable: no
             loop hook fires. *)
          if n <= 0 then Interp.set_induction fr loop init
          else run_invocation t st fr spec loop ~init_value:init ~n;
          true)
