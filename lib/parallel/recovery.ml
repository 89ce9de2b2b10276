(* Misspeculation recovery and robustness policies (paper section 5.3).

   Recovery squashes the failed interval (contributions and buffered
   output) and re-executes it sequentially on the main process — which
   holds exactly the last valid checkpoint — through the earliest
   misspeculated iteration; speculation then resumes.

   Two policies harden repeated misspeculation:

   - an *adaptive checkpoint period*: after a misspeculated interval
     the period halves (bounding the sequential re-execution of the
     next failure), and it doubles back toward the configured period
     after consecutive clean intervals — so clean runs are untouched
     and misspec-heavy runs pay for shorter intervals only while
     failures cluster;

   - a *per-loop misspeculation throttle*: after N misspeculations in
     one invocation the loop is demoted to non-speculative sequential
     execution for the rest of the invocation, and speculation on that
     loop stays suspended across later invocations — the paper's §5.3
     "re-enable speculative execution" discipline made explicit. *)

open Privateer_interp
open Privateer_runtime

(* Sequential (non-speculative) execution of iterations [lo, hi] on
   the main process: recovery, demotion, and preheader fallback.
   Returns the cycles consumed. *)
let run_sequentially (st : Interp.t) fr loop ~init_value ~lo ~hi =
  let saved_hooks = st.hooks in
  st.hooks <- Hooks.default;
  let c0 = st.cycles in
  for iter = lo to hi do
    Interp.run_iteration st fr loop (init_value + iter)
  done;
  st.hooks <- saved_hooks;
  st.cycles - c0

(* ---- adaptive checkpoint period -------------------------------------- *)

type period = {
  p_base : int; (* the configured (or auto) period *)
  p_adaptive : bool;
  mutable p_current : int;
  mutable p_clean_streak : int;
  mutable p_miss_streak : int;
}

let make_period ~adaptive k =
  let k = max 1 (min Shadow.max_interval k) in
  { p_base = k; p_adaptive = adaptive; p_current = k; p_clean_streak = 0;
    p_miss_streak = 0 }

let current_period p = p.p_current

(* Shrink once misspeculation *clusters* — two failed intervals with
   no clean one between them — so the next failure re-executes at most
   half as many iterations.  An isolated misspec does not shrink:
   paying extra checkpoints for a one-off failure never amortizes. *)
let period_on_misspec p =
  if p.p_adaptive then begin
    p.p_clean_streak <- 0;
    p.p_miss_streak <- p.p_miss_streak + 1;
    if p.p_miss_streak >= 2 then p.p_current <- max 1 (p.p_current / 2)
  end

(* Grow back after two consecutive clean intervals, toward the
   configured period (never beyond Shadow.max_interval, which
   [make_period] already enforces on the base). *)
let period_on_clean p =
  if p.p_adaptive then begin
    p.p_miss_streak <- 0;
    if p.p_current < p.p_base then begin
      p.p_clean_streak <- p.p_clean_streak + 1;
      if p.p_clean_streak >= 2 then begin
        p.p_clean_streak <- 0;
        p.p_current <- min p.p_base (p.p_current * 2)
      end
    end
  end

(* The eager validator's extra signal: unlike a merge-time violation
   (pinned to the interval's last iteration), an eager kill knows the
   distance from the interval start to the earliest violating
   iteration.  Clamp the adaptive period down to that observed
   conflict horizon, so the very next interval checkpoints right
   around where conflicts are appearing instead of waiting for
   [period_on_misspec]'s halving to catch up; the usual two-clean
   doubling grows it back once the contention passes. *)
let period_note_eager p ~interval_start ~miss_iter =
  if p.p_adaptive then
    p.p_current <- max 1 (min p.p_current (miss_iter - interval_start + 1))

(* ---- per-loop misspeculation throttle -------------------------------- *)

type throttle = {
  t_limit : int option; (* None: throttling disabled *)
  mutable t_misspecs : int; (* misspeculations this invocation *)
}

let make_throttle limit = { t_limit = limit; t_misspecs = 0 }

let throttle_note_misspec t = t.t_misspecs <- t.t_misspecs + 1

(* True once the invocation has burned through its misspeculation
   budget: demote to sequential execution and suspend the loop. *)
let should_demote t =
  match t.t_limit with None -> false | Some n -> t.t_misspecs >= n

(* ---- recovery proper -------------------------------------------------- *)

(* Squash interval [interval_start, ...) and re-execute sequentially
   through [miss_iter] (paper 5.3).  The caller resumes speculation at
   [miss_iter + 1].  Returns the recovery's sequential cycles, already
   added to [stats]. *)
let recover (env : Worker.env) (st : Interp.t) fr loop ~init_value ~io ~emit_main
    ~interval_start ~miss_iter =
  let stats = env.Worker.stats in
  stats.misspeculations <- stats.misspeculations + 1;
  Deferred_io.discard_from io ~from:interval_start;
  st.emit <- emit_main;
  let rec_cycles =
    run_sequentially st fr loop ~init_value ~lo:interval_start ~hi:miss_iter
  in
  stats.recovered_iterations <-
    stats.recovered_iterations + (miss_iter - interval_start + 1);
  stats.cyc_recovery <- stats.cyc_recovery + rec_cycles;
  rec_cycles

(* One non-speculative iteration executed because the recovered (or
   entry) state contradicts the value predictions: speculation cannot
   resume until they re-establish themselves (e.g. the queue
   drains). *)
let reestablish_step (env : Worker.env) (st : Interp.t) fr loop ~init_value ~iter =
  let stats = env.Worker.stats in
  let rec_cycles = run_sequentially st fr loop ~init_value ~lo:iter ~hi:iter in
  stats.recovered_iterations <- stats.recovered_iterations + 1;
  stats.cyc_recovery <- stats.cyc_recovery + rec_cycles;
  rec_cycles
