(* The `profile` experiment: overhead and fidelity of the rebuilt
   profiling framework.

   Measures, per (port, scale) and over a seeded scenario corpus:

   - *overhead*: wall time of the instrumented training run (fast
     frontend with all five profilers, and the monolithic
     Profiler_reference oracle from the test library) against plain
     uninstrumented
     interpretation of the same program + input;
   - *reference-vs-fast*: what the rebuild buys.  The interpreter
     dominates wall time on every program (hooks fire either way), so
     the headline gate compares *profiling overhead* — instrumented
     minus plain — and wants (ref - plain) >= 2x (fast - plain) on at
     least one top-scale port or on the corpus aggregate.  The three
     configurations are timed in interleaved rounds (best-of each) so
     machine-load drift hits all three alike;
   - *per-profiler breakdown*: each profiler enabled alone over the
     scale-1 ports + corpus, so the cost of ptr/lifetime/flow/value/
     exec is attributable;
   - *query identity* (hard gate): for every measured program, the
     fast and reference profilers must answer every query family
     identically — the differential-oracle restatement of "same
     answers, faster".  Selection and transform read a profile only
     through these queries, so identical answers mean identical plans.

   PROFILE_SCALE_MAX caps the port scale sweep (default 4, clamped per
   port), PROFILE_ITERS the timing rounds (best-of, default 3),
   PROFILE_CORPUS / PROFILE_SEED size and seed the scenario corpus.
   Results go to BENCH_profile.json; the binary exits non-zero when
   query identity fails. *)

open Privateer_support
open Privateer_workloads
module Pipeline = Privateer.Pipeline
module Profiler = Privateer_profile.Profiler
module RC = Privateer_parallel.Runtime_config
module Answers = Privateer_oracle.Profile_answers

let env_int name default =
  match Sys.getenv_opt name with
  | Some v -> ( match int_of_string_opt v with Some n when n >= 1 -> n | _ -> default)
  | None -> default

let scale_cap () = env_int "PROFILE_SCALE_MAX" 4
let iters () = env_int "PROFILE_ITERS" 3
let corpus_count () = env_int "PROFILE_CORPUS" 12
let corpus_seed () = env_int "PROFILE_SEED" 42
let now () = Unix.gettimeofday ()

(* Best-of-[iters] wall nanoseconds of [f] (the whole call: interpreter
   layout + instrumented run + profiler sync). *)
let once f =
  let t0 = now () in
  f ();
  (now () -. t0) *. 1e9

let time_ns f =
  let best = ref infinity in
  for _ = 1 to iters () do
    let dt = once f in
    if dt < !best then best := dt
  done;
  !best

(* Best-of-[iters] for several configurations with the rounds
   interleaved — round r times every configuration once before round
   r+1 starts — so a slow patch on a shared machine degrades all
   configurations rather than whichever one it happened to span. *)
let time_interleaved fs =
  let best = Array.make (Array.length fs) infinity in
  for _ = 1 to iters () do
    Array.iteri
      (fun i f ->
        let dt = once f in
        if dt < best.(i) then best.(i) <- dt)
      fs
  done;
  best

let config_for profilers = { RC.default with RC.profilers }

type row = {
  r_name : string;
  r_kind : string; (* "port" | "scenario" *)
  r_scale : int;
  r_plain_ns : float;
  r_fast_ns : float;
  r_ref_ns : float;
  r_identical : bool;
}

(* The oracle's training run: layout, instrumented run, no queries. *)
let profile_reference setup program () = ignore (Answers.run_reference ~setup program)

let measure ~kind ~scale ~name program setup =
  let best =
    time_interleaved
      [| (fun () -> ignore (Pipeline.run_sequential ~setup program));
         (fun () -> ignore (Pipeline.profile ~setup ~config:(config_for [ "all" ]) program));
         profile_reference setup program |]
  in
  let plain_ns = best.(0) and fast_ns = best.(1) and ref_ns = best.(2) in
  let identical =
    Answers.diff program (fst (Answers.run_fast ~setup program))
      (fst (Answers.run_reference ~setup program))
    = None
  in
  { r_name = name; r_kind = kind; r_scale = scale; r_plain_ns = plain_ns;
    r_fast_ns = fast_ns; r_ref_ns = ref_ns; r_identical = identical }

(* Whole-set pass under one profiler selection, for the breakdown. *)
let run_set profilers set () =
  List.iter
    (fun (program, setup) ->
      ignore (Pipeline.profile ~setup ~config:(config_for profilers) program))
    set

let run_set_reference set () =
  List.iter (fun (program, setup) -> profile_reference setup program ()) set

let ratio num den = if den > 0.0 then num /. den else 0.0

(* The gate statistic: profiling overhead (instrumented minus plain)
   of the reference over the fast frontend.  0.0 when noise leaves
   either overhead non-positive — a near-zero denominator must not
   award the gate to noise. *)
let overhead_ratio ~plain ~fast ~rf =
  let fo = fast -. plain and ro = rf -. plain in
  if fo > 0.0 && ro > 0.0 then ro /. fo else 0.0

let run () =
  Printf.printf
    "\n================ profile: frontend overhead vs reference oracle ================\n\n";
  Printf.printf
    "scales 1..%d (per-port cap), best of %d rounds, corpus %d scenarios (seed %d)\n"
    (scale_cap ()) (iters ()) (corpus_count ()) (corpus_seed ());
  Printf.printf "profilers: %s\n\n" (String.concat ", " (Profiler.available ()));
  let port_rows =
    List.concat_map
      (fun wl ->
        let program = Workload.program wl in
        List.map
          (fun s ->
            measure ~kind:"port" ~scale:s ~name:wl.Workload.name program
              (Workload.setup ~scale:s wl Workload.Train))
          (List.init (min (scale_cap ()) wl.Workload.max_scale) (fun i -> i + 1)))
      Workloads.builtin
  in
  let corpus =
    Privateer_gen.Scenario_gen.corpus ~seed:(corpus_seed ()) ~count:(corpus_count ())
  in
  let scenario_rows =
    List.map
      (fun (sc : Privateer_gen.Scenario_gen.t) ->
        let wl = sc.sc_workload in
        measure ~kind:"scenario" ~scale:1 ~name:sc.sc_name (Workload.program wl)
          (Workload.setup ~scale:1 wl Workload.Train))
      corpus
  in
  let rows = port_rows @ scenario_rows in
  (* Corpus aggregate: summed wall time over all scenarios, the stable
     statistic for programs too small to time individually. *)
  let sum f = List.fold_left (fun a r -> a +. f r) 0.0 scenario_rows in
  let corpus_plain = sum (fun r -> r.r_plain_ns) in
  let corpus_fast = sum (fun r -> r.r_fast_ns) in
  let corpus_ref = sum (fun r -> r.r_ref_ns) in
  let corpus_speedup = ratio corpus_ref corpus_fast in
  let t =
    Table.create
      ~aligns:
        [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right;
          Table.Right; Table.Right; Table.Right; Table.Right; Table.Left ]
      [ "program"; "scale"; "plain ms"; "fast ms"; "ref ms"; "fast ovh"; "ref ovh";
        "ref/fast"; "ovh ratio"; "plan" ]
  in
  let add_line name scale plain fast rf identical =
    Table.add_row t
      [ name; scale; Printf.sprintf "%.2f" (plain /. 1e6);
        Printf.sprintf "%.2f" (fast /. 1e6); Printf.sprintf "%.2f" (rf /. 1e6);
        Printf.sprintf "%.2fx" (ratio fast plain);
        Printf.sprintf "%.2fx" (ratio rf plain); Printf.sprintf "%.2fx" (ratio rf fast);
        Printf.sprintf "%.2fx" (overhead_ratio ~plain ~fast ~rf);
        (if identical then "identical" else "DIFFERS (BUG)") ]
  in
  List.iter
    (fun r -> add_line r.r_name (string_of_int r.r_scale) r.r_plain_ns r.r_fast_ns r.r_ref_ns r.r_identical)
    port_rows;
  add_line
    (Printf.sprintf "corpus (%d scenarios)" (List.length scenario_rows))
    "-" corpus_plain corpus_fast corpus_ref
    (List.for_all (fun r -> r.r_identical) scenario_rows);
  Table.print t;
  (* Per-profiler breakdown: each profiler alone over the top-scale
     ports + the corpus, against the all-five and plain passes over
     the same set.  All configurations run in interleaved rounds, the
     same discipline as the per-program rows. *)
  let set =
    List.map
      (fun wl ->
        let s = min (scale_cap ()) wl.Workload.max_scale in
        (Workload.program wl, Workload.setup ~scale:s wl Workload.Train))
      Workloads.builtin
    @ List.map
        (fun (sc : Privateer_gen.Scenario_gen.t) ->
          ( Workload.program sc.sc_workload,
            Workload.setup ~scale:1 sc.sc_workload Workload.Train ))
        corpus
  in
  let singles = Profiler.available () in
  let best =
    time_interleaved
      (Array.of_list
         ((fun () -> List.iter (fun (p, setup) -> ignore (Pipeline.run_sequential ~setup p)) set)
          :: run_set [ "all" ] set
          :: run_set_reference set
          :: List.map (fun p -> run_set [ p ] set) singles))
  in
  let set_plain = best.(0) and set_fast = best.(1) and set_ref = best.(2) in
  let breakdown = List.mapi (fun i p -> (p, best.(i + 3))) singles in
  Printf.printf
    "\nper-profiler cost over top-scale ports + corpus (plain %.2f ms):\n"
    (set_plain /. 1e6);
  List.iter
    (fun (p, ns) ->
      Printf.printf "  %-10s %8.2f ms  (%.2fx plain)\n" p (ns /. 1e6)
        (ratio ns set_plain))
    breakdown;
  Printf.printf "  %-10s %8.2f ms  (%.2fx plain)   reference %8.2f ms  (%.2fx plain)\n"
    "all five" (set_fast /. 1e6) (ratio set_fast set_plain) (set_ref /. 1e6)
    (ratio set_ref set_plain);
  let identical_all = List.for_all (fun r -> r.r_identical) rows in
  (* The gate sweeps the top measured scale of every port plus the
     corpus aggregate — the rows large enough for the overheads to
     stand clear of timer noise. *)
  let top_scale name =
    List.fold_left (fun m r -> if r.r_name = name then max m r.r_scale else m) 0
      port_rows
  in
  let corpus_ratio =
    overhead_ratio ~plain:corpus_plain ~fast:corpus_fast ~rf:corpus_ref
  in
  let best_row =
    List.fold_left
      (fun (bn, bs) r ->
        let s = overhead_ratio ~plain:r.r_plain_ns ~fast:r.r_fast_ns ~rf:r.r_ref_ns in
        if r.r_scale = top_scale r.r_name && s > bs then
          (Printf.sprintf "%s@%d" r.r_name r.r_scale, s)
        else (bn, bs))
      ("corpus", corpus_ratio) port_rows
  in
  let speedup_max = snd best_row in
  let speedup_ok = speedup_max >= 2.0 in
  Printf.printf
    "\nfast and reference answer every query identically on every program: %s\n"
    (if identical_all then "yes" else "NO (BUG)");
  Printf.printf
    "best reference/fast profiling-overhead ratio: %.2fx at %s (gate >= 2.0x: %s)\n"
    speedup_max (fst best_row)
    (if speedup_ok then "pass" else "FAIL");
  let json =
    let open Json in
    Obj
      [ ("experiment", String "profile"); ("scale_cap", Int (scale_cap ()));
        ("iters", Int (iters ())); ("corpus_count", Int (corpus_count ()));
        ("corpus_seed", Int (corpus_seed ()));
        ( "programs",
          List
            (List.map
               (fun r ->
                 Obj
                   [ ("name", String r.r_name); ("kind", String r.r_kind);
                     ("scale", Int r.r_scale); ("plain_ns", Float r.r_plain_ns);
                     ("fast_ns", Float r.r_fast_ns);
                     ("reference_ns", Float r.r_ref_ns);
                     ("fast_overhead", Float (ratio r.r_fast_ns r.r_plain_ns));
                     ("reference_overhead", Float (ratio r.r_ref_ns r.r_plain_ns));
                     ("ref_over_fast", Float (ratio r.r_ref_ns r.r_fast_ns));
                     ( "overhead_ratio",
                       Float
                         (overhead_ratio ~plain:r.r_plain_ns ~fast:r.r_fast_ns
                            ~rf:r.r_ref_ns) );
                     ("queries_identical", Bool r.r_identical) ])
               rows) );
        ( "breakdown",
          Obj
            [ ("set", String "ports@top-scale+corpus"); ("plain_ns", Float set_plain);
              ("fast_ns", Float set_fast); ("reference_ns", Float set_ref);
              ( "profilers",
                List
                  (List.map
                     (fun (p, ns) ->
                       Obj
                         [ ("name", String p); ("ns", Float ns);
                           ("overhead", Float (ratio ns set_plain)) ])
                     breakdown) ) ] );
        ("corpus_plain_ns", Float corpus_plain); ("corpus_fast_ns", Float corpus_fast);
        ("corpus_reference_ns", Float corpus_ref);
        ("corpus_speedup", Float corpus_speedup);
        ("corpus_overhead_ratio", Float corpus_ratio);
        ("queries_identical_all", Bool identical_all);
        ("gate_metric", String "(reference_ns - plain_ns) / (fast_ns - plain_ns)");
        ("fast_speedup_max", Float speedup_max);
        ("fast_speedup_at", String (fst best_row));
        ("fast_speedup_ok", Bool speedup_ok) ]
  in
  let oc = open_out "BENCH_profile.json" in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  print_endline "\nwrote BENCH_profile.json";
  Harness.require [ ("queries_identical_all", identical_all) ]
