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
     mid-sweep).  Both runs must reproduce the sequential output;
     eager mode must not execute *more* doomed iterations at any rate
     and must skip some in aggregate (`wasted_reduced`);

   - *identity*: on the clean (injection-free) workload, eager and
     commit validation must be byte-identical — output, result,
     verdicts, wall cycles, checkpoints — and eager must report zero
     kills (`no_false_kills`): a run without a kill cannot tell the
     modes apart.  Under injection cycles legitimately diverge (that
     is the saving), so there the oracle is output/result identity
     only.

   Results go to BENCH_eager.json; the binary exits non-zero when a
   gate fails.  Everything here is simulated state, so there are no
   timing rounds and no ITERS knob. *)

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

let wasted_work () =
  let c = Harness.compiled workload in
  List.map
    (fun rate ->
      let commit = heavy_run c ~rate ~validation:Runtime_config.Commit in
      let eager = heavy_run c ~rate ~validation:Runtime_config.Eager in
      (rate, commit, eager))
    rates

(* ---- eager = commit identity on the clean workload --------------------- *)

let identity () =
  let c = Harness.compiled workload in
  let open Privateer.Pipeline in
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
  (commit, eager, identical)

(* ---- driver ------------------------------------------------------------- *)

let run () =
  Printf.printf
    "\n================ eager: squash at a worker's own misspeculation ================\n\n";
  let c = Harness.compiled workload in
  let open Privateer.Pipeline in
  let heavy = wasted_work () in
  let t =
    Table.create
      ~aligns:
        [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right;
          Table.Right; Table.Right ]
      [ "inject rate"; "misspecs"; "squashed (commit)"; "squashed (eager)";
        "avoided"; "kills"; "cycles eager/commit" ]
  in
  let outputs_ok = ref true in
  List.iter
    (fun (rate, (commit : par_run), (eager : par_run)) ->
      outputs_ok :=
        !outputs_ok
        && String.equal commit.par_output c.Harness.seq.seq_output
        && String.equal eager.par_output c.Harness.seq.seq_output
        && commit.par_result = c.Harness.seq.seq_result
        && eager.par_result = c.Harness.seq.seq_result;
      Table.add_row t
        [ Printf.sprintf "%.2f" rate;
          string_of_int eager.stats.misspeculations;
          string_of_int commit.stats.squashed_iterations;
          string_of_int eager.stats.squashed_iterations;
          string_of_int eager.stats.avoided_iterations;
          string_of_int eager.stats.eager_kills;
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
  Printf.printf
    "\nboth modes reproduce the sequential output at every rate: %s\n"
    (if !outputs_ok then "yes" else "NO (BUG)");
  Printf.printf "eager reduces wasted (squashed) iteration work: %s\n"
    (if wasted_reduced then "yes" else "NO (BUG)");

  let commit, eager, identical = identity () in
  let no_false_kills = eager.stats.eager_kills = 0 in
  Printf.printf
    "\nclean-run identity (%s): %d vs %d wall cycles, eager vs commit: %s; false kills: %s\n"
    workload.Privateer_workloads.Workload.name commit.stats.wall_cycles
    eager.stats.wall_cycles
    (if identical then "identical" else "DIFFERS (BUG)")
    (if no_false_kills then "none" else "SOME (BUG)");

  let json =
    let open Json in
    Obj
      [ ("experiment", String "eager");
        ("workload", String workload.Privateer_workloads.Workload.name);
        ( "wasted_work",
          List
            (List.map
               (fun (rate, (commit : par_run), (eager : par_run)) ->
                 Obj
                   [ ("inject_rate", Float rate);
                     ("misspeculations", Int eager.stats.misspeculations);
                     ( "squashed_iterations_commit",
                       Int commit.stats.squashed_iterations );
                     ( "squashed_iterations_eager",
                       Int eager.stats.squashed_iterations );
                     ("avoided_iterations", Int eager.stats.avoided_iterations);
                     ("eager_kills", Int eager.stats.eager_kills);
                     ("cycles_commit", Int commit.par_cycles);
                     ("cycles_eager", Int eager.par_cycles) ])
               heavy) );
        ("outputs_match_sequential", Bool !outputs_ok);
        ("wasted_reduced", Bool wasted_reduced);
        ( "identity",
          Obj
            [ ("identical", Bool identical);
              ("no_false_kills", Bool no_false_kills);
              ("wall_cycles_commit", Int commit.stats.wall_cycles);
              ("wall_cycles_eager", Int eager.stats.wall_cycles) ] ) ]
  in
  let oc = open_out "BENCH_eager.json" in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  print_endline "\nwrote BENCH_eager.json";
  Harness.require
    [ ("wasted_reduced", wasted_reduced);
      ("outputs_match_sequential", !outputs_ok);
      ("identity.identical", identical);
      ("identity.no_false_kills", no_false_kills) ]
