(* The `scale` experiment: the --scale large-input mode of the five
   ports.

   Each port declares a max_scale and scaled parameter tables; at
   scale 1 the parameters are byte-for-byte the paper-sized inputs
   every other experiment uses.  Per (port, scale) this experiment
   re-profiles on the scaled train input, runs the scaled ref input
   sequentially and in parallel, and checks:

   - *growth*: sequential cycles and private-heap write traffic grow
     strictly with the scale factor on every port — the knob actually
     enlarges the input, deterministically;
   - *fidelity*: the parallel output matches the sequential output at
     every scale;
   - *host identity at scale*: the paper's determinism contract holds
     on the enlarged inputs — a run with the pooled interval reset is
     cycle- and byte-identical to the pool-less reference cell, and
     the reset and merge paths are actually exercised (checkpoints
     committed).  This is the scaled re-statement of the pooled reset
     guarantee: host-side wins must never move simulated state.

   SCALE_MAX caps the scale sweep (default 3, clamped per port;
   the ports themselves go to 4), SCALE_WORKERS the worker count.
   Results go to BENCH_scale.json and the binary exits non-zero when
   a gate fails.  Simulated state only: no timing rounds, no ITERS. *)

open Privateer_support
open Privateer_workloads
module Pipeline = Privateer.Pipeline
module Page_pool = Privateer_runtime.Page_pool

let env_int name default =
  match Sys.getenv_opt name with
  | Some v -> ( match int_of_string_opt v with Some n when n >= 1 -> n | _ -> default)
  | None -> default

let scale_cap () = env_int "SCALE_MAX" 3
let workers () = env_int "SCALE_WORKERS" 8

type cell = {
  c_scale : int;
  c_params : (string * int) list; (* ref-input parameters at this scale *)
  c_seq : Pipeline.seq_run;
  c_par : Pipeline.par_run; (* reference host cell: no page pool *)
  c_host : Pipeline.par_run; (* pooled reset *)
}

let run_port wl =
  let program = Workload.program wl in
  let scales =
    List.init (min (scale_cap ()) wl.Workload.max_scale) (fun i -> i + 1)
  in
  List.map
    (fun s ->
      let tr, _ =
        Pipeline.compile ~setup:(Workload.setup ~scale:s wl Workload.Train) program
      in
      let setup = Workload.setup ~scale:s wl Workload.Ref in
      let seq = Pipeline.run_sequential ~setup program in
      let par ~pool_cap =
        Pipeline.run_parallel ~setup
          ~config:
            { Privateer_parallel.Runtime_config.default with
              workers = workers (); adaptive_period = false; pool_cap }
          tr
      in
      { c_scale = s; c_params = Workload.params ~scale:s wl Workload.Ref;
        c_seq = seq; c_par = par ~pool_cap:0; c_host = par ~pool_cap:Page_pool.unbounded })
    scales

let strictly_increasing = function
  | [] | [ _ ] -> true
  | x :: rest -> fst (List.fold_left (fun (ok, prev) v -> (ok && v > prev, v)) (true, x) rest)

let host_identical (c : cell) =
  let open Pipeline in
  c.c_par.par_cycles = c.c_host.par_cycles
  && c.c_par.stats.wall_cycles = c.c_host.stats.wall_cycles
  && c.c_par.stats.checkpoints = c.c_host.stats.checkpoints
  && String.equal c.c_par.par_output c.c_host.par_output
  && c.c_par.par_result = c.c_host.par_result

let run () =
  Printf.printf "\n================ scale: large-input mode of the five ports ================\n\n";
  Printf.printf "scale sweep 1..%d (per-port cap), %d workers\n\n" (scale_cap ())
    (workers ());
  let open Pipeline in
  let ports = Workloads.builtin in
  let results = List.map (fun wl -> (wl, run_port wl)) ports in
  let t =
    Table.create
      ~aligns:
        [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right;
          Table.Right; Table.Left ]
      [ "port"; "scale"; "seq cycles"; "par cycles"; "speedup"; "priv KB written";
        "host cell" ]
  in
  List.iter
    (fun (wl, cells) ->
      List.iter
        (fun c ->
          Table.add_row t
            [ wl.Workload.name; string_of_int c.c_scale;
              string_of_int c.c_seq.seq_cycles; string_of_int c.c_par.par_cycles;
              Printf.sprintf "%.2f"
                (float_of_int c.c_seq.seq_cycles /. float_of_int c.c_par.par_cycles);
              string_of_int (c.c_par.stats.private_bytes_written / 1024);
              (if host_identical c then "identical" else "DIFFERS (BUG)") ])
        cells)
    results;
  Table.print t;
  let per_port =
    List.map
      (fun (wl, cells) ->
        let cycles = List.map (fun c -> c.c_seq.seq_cycles) cells in
        let footprint = List.map (fun c -> c.c_par.stats.private_bytes_written) cells in
        let outputs_ok =
          List.for_all
            (fun c ->
              String.equal c.c_par.par_output c.c_seq.seq_output
              && c.c_par.par_result = c.c_seq.seq_result)
            cells
        in
        let identity_ok = List.for_all host_identical cells in
        (* The pooled reset and the merge must actually run at the top
           scale for the identity above to certify anything: every
           committed checkpoint runs both. *)
        let exercised =
          match List.rev cells with
          | top :: _ -> top.c_host.stats.checkpoints > 0
          | [] -> false
        in
        (wl, cells, strictly_increasing cycles, strictly_increasing footprint,
         outputs_ok, identity_ok, exercised))
      results
  in
  let all b = List.for_all b per_port in
  let cycles_grow = all (fun (_, _, g, _, _, _, _) -> g) in
  let footprint_grows = all (fun (_, _, _, g, _, _, _) -> g) in
  let outputs_ok = all (fun (_, _, _, _, o, _, _) -> o) in
  let identity_ok = all (fun (_, _, _, _, _, i, _) -> i) in
  let exercised = all (fun (_, _, _, _, _, _, e) -> e) in
  Printf.printf "\nsequential cycles grow strictly with scale on every port: %s\n"
    (if cycles_grow then "yes" else "NO (BUG)");
  Printf.printf "private write footprint grows strictly with scale: %s\n"
    (if footprint_grows then "yes" else "NO (BUG)");
  Printf.printf "parallel output matches sequential at every scale: %s\n"
    (if outputs_ok then "yes" else "NO (BUG)");
  Printf.printf
    "host cell (pooled reset) identical at every scale: %s\n"
    (if identity_ok then "yes" else "NO (BUG)");
  Printf.printf "pooled reset and merge paths exercised at top scale: %s\n"
    (if exercised then "yes" else "NO (BUG)");
  let json =
    let open Json in
    Obj
      [ ("experiment", String "scale"); ("scale_cap", Int (scale_cap ()));
        ("workers", Int (workers ()));
        ( "ports",
          List
            (List.map
               (fun (wl, cells, cyc, fp, out, ident, ex) ->
                 Obj
                   [ ("workload", String wl.Workload.name);
                     ("max_scale", Int wl.Workload.max_scale);
                     ( "cells",
                       List
                         (List.map
                            (fun c ->
                              Obj
                                [ ("scale", Int c.c_scale);
                                  ( "params",
                                    Obj (List.map (fun (k, v) -> (k, Int v)) c.c_params) );
                                  ("seq_cycles", Int c.c_seq.seq_cycles);
                                  ("par_cycles", Int c.c_par.par_cycles);
                                  ( "speedup",
                                    Float
                                      (float_of_int c.c_seq.seq_cycles
                                      /. float_of_int c.c_par.par_cycles) );
                                  ( "private_bytes_written",
                                    Int c.c_par.stats.private_bytes_written );
                                  ("checkpoints", Int c.c_par.stats.checkpoints);
                                  ( "misspeculations",
                                    Int c.c_par.stats.misspeculations );
                                  ("host_identical", Bool (host_identical c)) ])
                            cells) );
                     ("cycles_monotonic", Bool cyc);
                     ("footprint_monotonic", Bool fp);
                     ("outputs_match_sequential", Bool out);
                     ("host_identity", Bool ident);
                     ("pooled_paths_exercised", Bool ex) ])
               per_port) );
        ("cycles_monotonic", Bool cycles_grow);
        ("footprint_monotonic", Bool footprint_grows);
        ("outputs_match_sequential", Bool outputs_ok);
        ("host_identity", Bool identity_ok);
        ("pooled_paths_exercised", Bool exercised) ]
  in
  let oc = open_out "BENCH_scale.json" in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  print_endline "\nwrote BENCH_scale.json";
  Harness.require
    [ ("cycles_monotonic", cycles_grow); ("footprint_monotonic", footprint_grows);
      ("outputs_match_sequential", outputs_ok); ("host_identity", identity_ok);
      ("pooled_paths_exercised", exercised) ]
