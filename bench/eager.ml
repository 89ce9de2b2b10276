(* The `eager` experiment: does stopping an interval at a worker's
   own first misspeculation actually reduce the work wasted on
   squashed intervals, without perturbing anything else?

   Two measurements:

   - *wasted work* on a misspeculation-heavy run (dijkstra under
     deterministically spaced injected misspeculation, adaptive
     checkpoint period): at each injection rate, run once with
     `--validation commit` (every worker burns its whole interval
     before the discard) and once with `--validation eager` (the
     first misspeculation a worker raises squashes the interval
     mid-sweep).  Eager mode must not execute *more* doomed
     iterations at any rate and must skip some in aggregate
     (`wasted_reduced`);

   - *identity*: on the clean (injection-free) workload, eager and
     commit validation must be byte-identical — output, result,
     verdicts, wall cycles, checkpoints — and eager must report zero
     kills (`no_false_kills`): a run without a kill cannot tell the
     modes apart.  Under injection cycles legitimately diverge (that
     is the saving), so there the oracle is the harness's own
     output/result check on every run. *)

open Privateer_support
module Runtime_config = Privateer_parallel.Runtime_config

let workload = Privateer_workloads.Dijkstra.workload
let rates = [ 0.05; 0.1; 0.2 ]

(* One (rate, validation) run: misspeculation-heavy settings — a
   sizable fixed checkpoint period so commit mode has a whole interval
   to burn, adaptive so the eager signal reaches the period policy. *)
let heavy_run c ~rate ~validation =
  Harness.run_parallel ~checkpoint_period:24 ~adaptive:true
    ?inject:(Harness.spaced_injection rate) ~validation c

let run () =
  Harness.section "eager: squash at a worker's own misspeculation";
  let c = Harness.compiled workload in
  let open Privateer.Pipeline in
  let heavy =
    List.map
      (fun rate ->
        let commit = heavy_run c ~rate ~validation:Runtime_config.Commit in
        let eager = heavy_run c ~rate ~validation:Runtime_config.Eager in
        (rate, commit, eager))
      rates
  in
  let t =
    Table.create
      ~aligns:(Table.Left :: List.init 8 (fun _ -> Table.Right))
      [ "inject rate"; "misspecs"; "squashed (commit)"; "squashed (eager)"; "avoided";
        "kills"; "cycles (commit)"; "cycles (eager)"; "eager/commit" ]
  in
  List.iter
    (fun (rate, (commit : par_run), (eager : par_run)) ->
      Table.add_row t
        [ Printf.sprintf "%.2f" rate;
          string_of_int eager.stats.misspeculations;
          string_of_int commit.stats.squashed_iterations;
          string_of_int eager.stats.squashed_iterations;
          string_of_int eager.stats.avoided_iterations;
          string_of_int eager.stats.eager_kills;
          string_of_int commit.par_cycles;
          string_of_int eager.par_cycles;
          Printf.sprintf "%.3f"
            (float_of_int eager.par_cycles /. float_of_int commit.par_cycles) ])
    heavy;
  Table.print t;
  let wasted_reduced =
    List.for_all
      (fun (_, (commit : par_run), (eager : par_run)) ->
        eager.stats.squashed_iterations <= commit.stats.squashed_iterations)
      heavy
    && List.exists
         (fun (_, (commit : par_run), (eager : par_run)) ->
           eager.stats.squashed_iterations < commit.stats.squashed_iterations)
         heavy
  in
  Printf.printf "\neager reduces wasted (squashed) iteration work: %s\n"
    (if wasted_reduced then "yes" else "NO (BUG)");

  (* eager = commit identity on the clean workload *)
  let commit = Harness.run_parallel ~validation:Runtime_config.Commit c in
  let eager = Harness.run_parallel ~validation:Runtime_config.Eager c in
  let identical =
    commit.par_cycles = eager.par_cycles
    && commit.stats.wall_cycles = eager.stats.wall_cycles
    && commit.stats.checkpoints = eager.stats.checkpoints
    && commit.stats.misspeculations = eager.stats.misspeculations
    && String.equal commit.par_output eager.par_output
    && commit.par_result = eager.par_result
  in
  let no_false_kills = eager.stats.eager_kills = 0 in
  Printf.printf
    "\nclean-run identity (%s): %d vs %d wall cycles, eager vs commit: %s; false kills: %s\n"
    workload.Privateer_workloads.Workload.name commit.stats.wall_cycles
    eager.stats.wall_cycles
    (if identical then "identical" else "DIFFERS (BUG)")
    (if no_false_kills then "none" else "SOME (BUG)");
  Harness.require
    [ ("eager: wasted_reduced", wasted_reduced);
      ("eager: identity.identical", identical);
      ("eager: identity.no_false_kills", no_false_kills) ]
