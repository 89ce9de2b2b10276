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
   - *checkpoints committed*: the interval reset and the merge
     actually run at the top scale of every port.

   SCALE_MAX caps the scale sweep (default 3, clamped per port;
   the ports themselves go to 4), SCALE_WORKERS the worker count.
   Results go to BENCH_scale.json and the binary exits non-zero when
   a gate fails.  Each cell also reports the host wall time of its
   sequential and parallel runs ([seq_ms], [par_ms]) and the
   sequential interpreter's simulated-cycle rate
   ([seq_mcycles_per_s]); those columns are one unrepeated sample on
   a host that drifts, so they are reported and never gated. *)

open Privateer_support
open Privateer_workloads
module Pipeline = Privateer.Pipeline

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
  c_par : Pipeline.par_run;
  c_seq_ms : float; (* host wall time of the sequential run *)
  c_par_ms : float; (* host wall time of the parallel run *)
}

let timed f =
  let t0 = Clock.now_ns () in
  let r = f () in
  (r, (Clock.now_ns () -. t0) /. 1e6)

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
      let seq, seq_ms = timed (fun () -> Pipeline.run_sequential ~setup program) in
      let par, par_ms =
        timed (fun () ->
            Pipeline.run_parallel ~setup
              ~config:
                { Privateer_parallel.Runtime_config.default with
                  workers = workers (); adaptive_period = false }
              tr)
      in
      { c_scale = s; c_params = Workload.params ~scale:s wl Workload.Ref;
        c_seq = seq; c_par = par; c_seq_ms = seq_ms; c_par_ms = par_ms })
    scales

(* Simulated Mcycles the sequential run retired per host second. *)
let seq_mcycles_per_s c = float_of_int c.c_seq.seq_cycles /. 1e3 /. c.c_seq_ms

let strictly_increasing = function
  | [] | [ _ ] -> true
  | x :: rest -> fst (List.fold_left (fun (ok, prev) v -> (ok && v > prev, v)) (true, x) rest)

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
          Table.Right; Table.Right; Table.Right; Table.Right ]
      [ "port"; "scale"; "seq cycles"; "par cycles"; "speedup"; "priv KB written";
        "seq ms"; "par ms"; "seq Mcyc/s" ]
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
              Printf.sprintf "%.1f" c.c_seq_ms; Printf.sprintf "%.1f" c.c_par_ms;
              Printf.sprintf "%.1f" (seq_mcycles_per_s c) ])
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
        (* Every committed checkpoint runs the interval reset and the
           merge, so the top scale must commit at least one. *)
        let committed =
          match List.rev cells with
          | top :: _ -> top.c_par.stats.checkpoints > 0
          | [] -> false
        in
        (wl, cells, strictly_increasing cycles, strictly_increasing footprint,
         outputs_ok, committed))
      results
  in
  let all b = List.for_all b per_port in
  let cycles_grow = all (fun (_, _, g, _, _, _) -> g) in
  let footprint_grows = all (fun (_, _, _, g, _, _) -> g) in
  let outputs_ok = all (fun (_, _, _, _, o, _) -> o) in
  let committed = all (fun (_, _, _, _, _, c) -> c) in
  Printf.printf "\nsequential cycles grow strictly with scale on every port: %s\n"
    (if cycles_grow then "yes" else "NO (BUG)");
  Printf.printf "private write footprint grows strictly with scale: %s\n"
    (if footprint_grows then "yes" else "NO (BUG)");
  Printf.printf "parallel output matches sequential at every scale: %s\n"
    (if outputs_ok then "yes" else "NO (BUG)");
  Printf.printf "checkpoints committed at top scale: %s\n"
    (if committed then "yes" else "NO (BUG)");
  let json =
    let open Json in
    Obj
      [ ("experiment", String "scale"); ("scale_cap", Int (scale_cap ()));
        ("workers", Int (workers ()));
        ( "ports",
          List
            (List.map
               (fun (wl, cells, cyc, fp, out, ckpt) ->
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
                                  ("seq_ms", Float c.c_seq_ms);
                                  ("par_ms", Float c.c_par_ms);
                                  ("seq_mcycles_per_s", Float (seq_mcycles_per_s c)) ])
                            cells) );
                     ("cycles_monotonic", Bool cyc);
                     ("footprint_monotonic", Bool fp);
                     ("outputs_match_sequential", Bool out);
                     ("checkpoints_committed", Bool ckpt) ])
               per_port) );
        ("cycles_monotonic", Bool cycles_grow);
        ("footprint_monotonic", Bool footprint_grows);
        ("outputs_match_sequential", Bool outputs_ok);
        ("checkpoints_committed", Bool committed) ]
  in
  let oc = open_out "BENCH_scale.json" in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  print_endline "\nwrote BENCH_scale.json";
  Harness.require
    [ ("cycles_monotonic", cycles_grow); ("footprint_monotonic", footprint_grows);
      ("outputs_match_sequential", outputs_ok); ("checkpoints_committed", committed) ]
