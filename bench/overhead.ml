(* The `overhead` experiment: host-time and simulated-cycle breakdowns
   for the metadata hot paths the page-index refactor targets —
   inline shadow validation, checkpoint extraction + merge, and
   checkpoint metadata reset.

   Host times compare the indexed implementation against the retained
   per-byte reference (Shadow_reference), so the wall-clock effect of
   range-granular metadata is measured inside one binary.  Simulated
   cycles come from a real dijkstra run at 24 workers: they are part
   of the deterministic cycle model and must NOT move across
   refactors (the page indexes change host time only).

   Results are printed as a table and written to BENCH_overhead.json
   so the perf trajectory is tracked PR over PR.  Iteration counts
   scale down via OVERHEAD_ITERS (CI smoke runs use a small value). *)

open Privateer_ir
open Privateer_machine
open Privateer_runtime
open Privateer_oracle
open Privateer_support

let iters () =
  match Sys.getenv_opt "OVERHEAD_ITERS" with
  | Some s -> (try max 1 (int_of_string s) with Failure _ -> 200)
  | None -> 200

let now () = Unix.gettimeofday ()

(* ns per call of [f], amortized over [reps] calls x [rounds] rounds,
   with [prep] run untimed before each round (resets mutated state). *)
let time_ns ?(prep = fun () -> ()) ~rounds ~reps f =
  prep ();
  f (); (* warmup *)
  let total = ref 0.0 in
  for _ = 1 to rounds do
    prep ();
    let t0 = now () in
    for _ = 1 to reps do
      f ()
    done;
    total := !total +. (now () -. t0)
  done;
  !total *. 1e9 /. float_of_int (rounds * reps)

let words = 512 (* one page of private words *)

let populate access m =
  for i = 0 to words - 1 do
    access m Shadow.Write ~addr:(Heap.base Heap.Private + (i * 8)) ~size:8 ~beta:5
  done

(* ---- the three hot paths ---------------------------------------------- *)

(* 8-byte private-write validation, amortized per access. *)
let bench_validation access =
  let m = Machine.create () in
  let i = ref 0 in
  time_ns ~rounds:(iters ()) ~reps:words (fun () ->
      access m Shadow.Write
        ~addr:(Heap.base Heap.Private + (!i mod words * 8))
        ~size:8 ~beta:7;
      incr i)

(* Metadata reset of one fully-timestamped page, per reset; the
   repopulation runs untimed between rounds. *)
let bench_reset access reset =
  let m = Machine.create () in
  time_ns
    ~prep:(fun () -> populate access m)
    ~rounds:(iters ()) ~reps:1
    (fun () -> ignore (reset m))

(* Checkpoint extraction + phase-2 merge for one worker with a dirty
   page of timestamps plus live-in reads (extraction does not mutate,
   so rounds share one populated machine). *)
let bench_checkpoint () =
  let m = Machine.create () in
  populate Shadow.access m;
  for i = 0 to 63 do
    Shadow.access m Shadow.Read
      ~addr:(Heap.base Heap.Private + Memory.page_size + (i * 8))
      ~size:8 ~beta:7
  done;
  time_ns ~rounds:(iters ()) ~reps:1 (fun () ->
      let c =
        Checkpoint.contribution_of_worker ~worker:0 ~interval_start:0 m
          ~redux_ranges:[] ~reg_partials:[]
      in
      ignore (Checkpoint.merge [ c ]))

(* ---- simulated-cycle breakdown ---------------------------------------- *)

let simulated () =
  let par = Harness.matrix_run Privateer_workloads.Dijkstra.workload 24 in
  let s : Privateer_runtime.Stats.t = par.Privateer.Pipeline.stats in
  [ ("cyc_private_read", s.cyc_private_read); ("cyc_private_write", s.cyc_private_write);
    ("cyc_checkpoint", s.cyc_checkpoint); ("cyc_recovery", s.cyc_recovery);
    ("wall_cycles", s.wall_cycles) ]

(* ---- driver ------------------------------------------------------------ *)

let run () =
  Printf.printf
    "\n================ overhead: metadata hot paths, host time ================\n\n";
  let v_new = bench_validation Shadow.access in
  let v_ref = bench_validation Shadow_reference.access in
  let r_new = bench_reset Shadow.access (fun m -> Shadow.reset_interval m) in
  let r_ref =
    bench_reset Shadow_reference.access (fun m -> Shadow_reference.reset_interval m)
  in
  let ckpt = bench_checkpoint () in
  let t =
    Table.create
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ]
      [ "hot path"; "indexed ns"; "per-byte ref ns"; "speedup" ]
  in
  let row name a b =
    Table.add_row t
      [ name; Printf.sprintf "%.1f" a;
        (match b with Some b -> Printf.sprintf "%.1f" b | None -> "-");
        (match b with Some b -> Printf.sprintf "%.1fx" (b /. a) | None -> "-") ]
  in
  row "shadow validation (8B write)" v_new (Some v_ref);
  row "checkpoint reset (1 page)" r_new (Some r_ref);
  row "checkpoint extract + merge" ckpt None;
  Table.print t;
  let sim = simulated () in
  Printf.printf "\nsimulated cycles (dijkstra, 24 workers; refactor-invariant):\n";
  List.iter (fun (k, v) -> Printf.printf "  %-18s %d\n" k v) sim;
  let json =
    let open Json in
    Obj
      [ ("experiment", String "overhead");
        ( "host_ns",
          Obj
            [ ( "shadow_validation_8B",
                Obj
                  [ ("indexed", Float v_new); ("reference", Float v_ref);
                    ("speedup", Float (v_ref /. v_new)) ] );
              ( "checkpoint_reset_page",
                Obj
                  [ ("indexed", Float r_new); ("reference", Float r_ref);
                    ("speedup", Float (r_ref /. r_new)) ] );
              ("checkpoint_extract_merge", Obj [ ("indexed", Float ckpt) ]) ] );
        ( "simulated_cycles",
          Obj [ ("dijkstra_24w", Obj (List.map (fun (k, v) -> (k, Int v)) sim)) ] ) ]
  in
  let oc = open_out "BENCH_overhead.json" in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  print_endline "\nwrote BENCH_overhead.json"
