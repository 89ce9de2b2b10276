(* The `scale` experiment: the --scale large-input mode of the five
   ports.

   Each port declares a max_scale and scaled parameter tables; at
   scale 1 the parameters are byte-for-byte the paper-sized inputs
   every other experiment uses.  Per (port, scale) this experiment
   re-profiles on the scaled train input, runs the scaled ref input
   sequentially and in parallel on 8 workers (the harness checks each
   parallel output against the sequential one), and checks:

   - *growth*: sequential cycles and private-heap write traffic grow
     strictly with the scale factor on every port — the knob actually
     enlarges the input, deterministically;
   - *checkpoints committed*: the interval reset and the merge
     actually run at the top scale of every port.

   Host time is perfbench's; every column here is simulated. *)

open Privateer_support
open Privateer_workloads
module Pipeline = Privateer.Pipeline

let workers = 8

let strictly_increasing = function
  | [] | [ _ ] -> true
  | x :: rest -> fst (List.fold_left (fun (ok, prev) v -> (ok && v > prev, v)) (true, x) rest)

let run () =
  Harness.section "scale: large-input mode of the five ports";
  Printf.printf "each port from scale 1 to its max_scale, %d workers\n\n" workers;
  let ports =
    List.map
      (fun wl ->
        ( wl,
          List.init wl.Workload.max_scale (fun i ->
              let scale = i + 1 in
              (Harness.compiled ~scale wl, Harness.matrix_run ~scale wl workers)) ))
      (Workloads.all ())
  in
  let t =
    Table.create
      ~aligns:(Table.Left :: Table.Right :: Table.Left :: List.init 6 (fun _ -> Table.Right))
      [ "port"; "scale"; "ref params"; "seq cycles"; "par cycles"; "speedup";
        "priv bytes written"; "checkpoints"; "misspecs" ]
  in
  List.iter
    (fun (wl, cells) ->
      List.iter
        (fun ((c : Harness.compiled), (par : Pipeline.par_run)) ->
          Table.add_row t
            [ wl.Workload.name; string_of_int c.scale;
              String.concat " "
                (List.map
                   (fun (k, v) -> Printf.sprintf "%s=%d" k v)
                   (Workload.params ~scale:c.scale wl Workload.Ref));
              string_of_int c.seq.seq_cycles; string_of_int par.par_cycles;
              Printf.sprintf "%.2f" (Harness.speedup c par);
              string_of_int par.stats.private_bytes_written;
              string_of_int par.stats.checkpoints;
              string_of_int par.stats.misspeculations ])
        cells)
    ports;
  Table.print t;
  let all f = List.for_all (fun (_, cells) -> f cells) ports in
  let grows f = all (fun cells -> strictly_increasing (List.map f cells)) in
  let cycles_grow = grows (fun ((c : Harness.compiled), _) -> c.seq.seq_cycles) in
  let footprint_grows =
    grows (fun (_, (par : Pipeline.par_run)) -> par.stats.private_bytes_written)
  in
  (* Every committed checkpoint runs the interval reset and the merge,
     so the top scale must commit at least one. *)
  let committed =
    all (fun cells ->
        match List.rev cells with
        | (_, (top : Pipeline.par_run)) :: _ -> top.stats.checkpoints > 0
        | [] -> false)
  in
  Printf.printf "\nsequential cycles grow strictly with scale on every port: %s\n"
    (if cycles_grow then "yes" else "NO (BUG)");
  Printf.printf "private write footprint grows strictly with scale: %s\n"
    (if footprint_grows then "yes" else "NO (BUG)");
  Printf.printf "checkpoints committed at top scale: %s\n"
    (if committed then "yes" else "NO (BUG)");
  Harness.require
    [ ("scale: cycles_monotonic", cycles_grow);
      ("scale: footprint_monotonic", footprint_grows);
      ("scale: checkpoints_committed", committed) ]
