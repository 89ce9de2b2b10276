(* The privateer command-line driver.

     privateer list
     privateer plan <workload>
     privateer dump <workload> [--transformed]
     privateer run <workload> [-w N] [-i ref] [--scale S] [--inject RATE]
     privateer compare <workload> [-w N]
     privateer gen <spec> [--meta]     -- emit a generated scenario
     privateer file <path.cm> [-w N]   -- full pipeline on a Cmini file
     privateer serve <manifest> [--max-inflight N] [--queue-cap N]

   <workload> is any registry name, including scenario:<spec> — the
   generated scenario joins the registry and runs like a builtin.
*)

open Cmdliner
open Privateer
open Privateer_workloads

(* Workload names resolve through the shared source loader, so
   scenario:<spec> works everywhere a workload name does and the
   unknown-workload error string is the registry's canonical one. *)
let workload_conv =
  let parse s =
    match Privateer_gen.Sources.lookup_workload s with
    | Ok w -> Ok w
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, fun fmt (w : Workload.t) -> Format.pp_print_string fmt w.name)

let input_conv =
  let parse s = Result.map_error (fun m -> `Msg m) (Workload.input_of_name s) in
  Arg.conv (parse, fun fmt i -> Format.pp_print_string fmt (Workload.input_name i))

let wl_arg = Arg.(required & pos 0 (some workload_conv) None & info [] ~docv:"WORKLOAD")

let input_arg =
  Arg.(value & opt input_conv Workload.Ref
       & info [ "i"; "input" ] ~docv:"INPUT" ~doc:"Input set (train|ref|alt).")

let scale_arg =
  Arg.(value & opt int 1
       & info [ "scale" ] ~docv:"S"
           ~doc:"Input scale factor (1 = paper-sized; see each workload's max).")

(* Validate --scale against the workload's cap before running. *)
let checked_scale (wl : Workload.t) scale =
  match Workload.check_scale wl scale with
  | Ok () -> scale
  | Error msg ->
    Printf.eprintf "privateer: %s\n" msg;
    exit 124

let inject_arg =
  Arg.(value & opt float 0.0
       & info [ "inject" ] ~docv:"RATE"
           ~doc:"Inject misspeculation at this per-iteration rate.")

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit a machine-readable JSON report.")

(* ---- runtime tuning flags, derived from Runtime_config ---------------- *)

module RC = Privateer_parallel.Runtime_config

(* Every engine-tuning flag (--workers, --checkpoint, --schedule,
   --adaptive, --throttle, --validation, ...) comes
   from [Runtime_config.cli_bindings]: one optional string argument
   per table entry, folded over a base config.  Adding a knob to the
   table adds the flag here with no CLI change. *)
let bindings_term =
  List.fold_left
    (fun acc (b : RC.binding) ->
      let vopt = if b.b_flag_like then Some (Some "true") else None in
      let arg =
        Arg.(value
             & opt ?vopt (some string) None
             & info b.b_flags ~docv:b.b_docv ~doc:b.b_doc)
      in
      Term.(const (fun xs v -> (b, v) :: xs) $ acc $ arg))
    (Term.const []) RC.cli_bindings

(* Deterministically spaced injection at a given rate. *)
let spaced_injection rate =
  if rate <= 0.0 then None
  else
    Some
      (fun iter ->
        int_of_float (float_of_int (iter + 1) *. rate)
        > int_of_float (float_of_int iter *. rate))

(* The CLI's base config: library defaults with the historical 24
   simulated workers.  Unpassed flags leave the base untouched. *)
let config ?(inject = 0.0) bindings =
  let base = { RC.default with workers = 24 } in
  match RC.apply_bindings base bindings with
  | Ok c -> { c with RC.inject = spaced_injection inject }
  | Error msg ->
    Printf.eprintf "privateer: %s\n" msg;
    exit 124

(* ---- commands --------------------------------------------------------- *)

let list_cmd =
  let run () =
    List.iter
      (fun (w : Workload.t) ->
        Printf.printf "%-14s (scale 1..%d) %s\n" w.name w.max_scale w.description)
      (Workloads.all ())
  in
  Cmd.v (Cmd.info "list" ~doc:"List the registered workloads")
    Term.(const run $ const ())

let plan_cmd =
  let run wl =
    let program = Workload.program wl in
    let profiler, _ = Pipeline.profile ~setup:(Workload.setup wl Train) program in
    let selection = Privateer_analysis.Selection.select program profiler in
    List.iter
      (fun (p : Privateer_analysis.Selection.plan) ->
        Printf.printf "selected loop %d in %s (weight %d, extras: %s)\n" p.loop p.func
          p.weight
          (String.concat ", " (Privateer_analysis.Selection.extras p));
        print_endline (Privateer_analysis.Classify.to_string p.assignment);
        List.iter
          (fun (s, h) ->
            Printf.printf "  site %-20s -> %s heap\n"
              (Privateer_profile.Objname.site_to_string s)
              (Privateer_ir.Heap.name h))
          p.site_heap)
      selection.plans;
    List.iter
      (fun (r : Privateer_analysis.Selection.rejection) ->
        Printf.printf "rejected loop %d in %s: %s\n" r.rloop r.rfunc r.reason)
      selection.rejections
  in
  Cmd.v (Cmd.info "plan" ~doc:"Show the heap assignment and loop selection")
    Term.(const run $ wl_arg)

let dump_cmd =
  let transformed =
    Arg.(value & flag & info [ "transformed" ] ~doc:"Dump after privatization.")
  in
  let run wl transformed =
    let program = Workload.program wl in
    if transformed then begin
      let tr, _ = Pipeline.compile ~setup:(Workload.setup wl Train) program in
      print_endline (Privateer_ir.Pp.program_str tr.program)
    end
    else print_endline (Privateer_ir.Pp.program_str program)
  in
  Cmd.v (Cmd.info "dump" ~doc:"Pretty-print a workload's IR")
    Term.(const run $ wl_arg $ transformed)

(* The engine configuration that shaped a run, so bench/CI JSON is
   self-describing instead of inferred from the invocation. *)
let config_json (cfg : RC.t) =
  let open Privateer_support.Json in
  Obj
    [ ("workers", Int cfg.workers);
      ("schedule", String (Privateer_parallel.Schedule.to_string cfg.schedule));
      ("validation", String (RC.validation_to_string cfg.validation)) ]

(* Machine-readable report: the configuration, whole-run numbers,
   every stats counter, the Figure 8 breakdown, and the per-loop
   engine-health table. *)
let json_report ~config:cfg ~profile_ns ~seq ~(par : Pipeline.par_run) ~fallbacks =
  let open Privateer_support.Json in
  let stats = par.stats in
  let b = Privateer_runtime.Stats.breakdown stats in
  let loops =
    List.map
      (fun (loop, (ls : Privateer_runtime.Stats.loop_stats)) ->
        Obj
          [ ("loop", Int loop); ("invocations", Int ls.l_invocations);
            ("misspeculations", Int ls.l_misspeculations);
            ("wall_cycles", Int ls.l_wall_cycles); ("demotions", Int ls.l_demotions);
            ("suspended_invocations", Int ls.l_suspended_invocations) ])
      (Pipeline.loop_report par)
  in
  Obj
    [ ("config", config_json cfg);
      ("sequential_cycles", Int seq.Pipeline.seq_cycles);
      ("parallel_cycles", Int par.par_cycles);
      ( "speedup",
        Float (float_of_int seq.Pipeline.seq_cycles /. float_of_int par.par_cycles) );
      ("output_identical", Bool (String.equal seq.seq_output par.par_output));
      ("invocations", Int stats.invocations); ("checkpoints", Int stats.checkpoints);
      ("misspeculations", Int stats.misspeculations);
      ("recovered_iterations", Int stats.recovered_iterations);
      ("fallbacks", Int fallbacks); ("iterations", Int stats.iterations);
      ("private_bytes_read", Int stats.private_bytes_read);
      ("private_bytes_written", Int stats.private_bytes_written);
      ("separation_checks", Int stats.separation_checks);
      ("cyc_checkpoint", Int stats.cyc_checkpoint);
      ("cyc_recovery", Int stats.cyc_recovery);
      ("wall_cycles", Int stats.wall_cycles); ("workers", Int stats.workers);
      ( "breakdown",
        Obj
          [ ("useful", Float b.useful); ("private_read", Float b.private_read);
            ("private_write", Float b.private_write);
            ("checkpoint", Float b.checkpoint); ("spawn_join", Float b.spawn_join);
            ("other", Float b.other) ] );
      (* Host wall time of the profiling training run — instrumentation
         like merge_phase_ns, not part of the deterministic simulation
         (varies run to run; exemption table in docs/RUNTIME.md). *)
      ("profile_ns", Float profile_ns);
      (* Host wall time per merge phase — instrumentation, not part of
         the deterministic simulation (varies run to run). *)
      ( "merge_phase_ns",
        Obj
          [ ("index_fill", Float stats.ns_merge_fill);
            ("validate", Float stats.ns_merge_validate);
            ("sweep", Float stats.ns_merge_sweep) ] );
      (* Host wall time of the other interval stages — instrumentation
         like merge_phase_ns (varies run to run). *)
      ( "host_stages",
        Obj
          [ ("ns_reset", Float stats.ns_reset);
            ("ns_extract", Float stats.ns_extract);
            ("ns_spawn", Float stats.ns_spawn) ] );
      (* Eager in-flight validation counters: deterministic for a given
         validation mode, but exempt from the cross-MODE identity
         contract (commit mode reports zeros for kills/checks/hits; the
         authoritative exemption table lives in docs/RUNTIME.md). *)
      ( "eager",
        Obj
          [ ("eager_kills", Int stats.eager_kills);
            ("eager_checks", Int stats.eager_checks);
            ("eager_hits", Int stats.eager_hits);
            ("squashed_iterations", Int stats.squashed_iterations);
            ("avoided_iterations", Int stats.avoided_iterations) ] );
      ("loops", List loops) ]

let report_run ~seq ~(par : Pipeline.par_run) ~fallbacks =
  let stats = par.stats in
  Printf.printf "sequential cycles : %d\n" seq.Pipeline.seq_cycles;
  Printf.printf "parallel cycles   : %d\n" par.par_cycles;
  Printf.printf "whole-program speedup: %.2fx\n"
    (float_of_int seq.Pipeline.seq_cycles /. float_of_int par.par_cycles);
  Printf.printf "output identical  : %b\n" (String.equal seq.seq_output par.par_output);
  Printf.printf
    "invocations %d, checkpoints %d, misspeculations %d (recovered %d iterations), fallbacks %d\n"
    stats.invocations stats.checkpoints stats.misspeculations
    stats.recovered_iterations fallbacks;
  Printf.printf "private bytes: %s read, %s written\n"
    (Privateer_support.Table.fbytes stats.private_bytes_read)
    (Privateer_support.Table.fbytes stats.private_bytes_written);
  let b = Privateer_runtime.Stats.breakdown stats in
  Printf.printf
    "overhead breakdown: useful %.1f%%, priv-read %.1f%%, priv-write %.1f%%, checkpoint %.1f%%, spawn/join %.1f%%\n"
    b.useful b.private_read b.private_write b.checkpoint b.spawn_join

let run_cmd =
  let run wl bindings input scale inject json =
    let scale = checked_scale wl scale in
    let program = Workload.program wl in
    let cfg = config ~inject bindings in
    let tr, profiler = Pipeline.compile ~setup:(Workload.setup ~scale wl Train) program in
    let seq =
      Pipeline.run_sequential ~setup:(Workload.setup ~scale wl input) program
    in
    let par =
      Pipeline.run_parallel ~setup:(Workload.setup ~scale wl input) ~config:cfg tr
    in
    if json then
      print_endline
        (Privateer_support.Json.to_string
           (json_report ~config:cfg
              ~profile_ns:(Privateer_profile.Profiler.wall_ns profiler)
              ~seq ~par ~fallbacks:par.fallbacks))
    else report_run ~seq ~par ~fallbacks:par.fallbacks
  in
  Cmd.v (Cmd.info "run" ~doc:"Profile, privatize and run a workload in parallel")
    Term.(const run $ wl_arg $ bindings_term $ input_arg $ scale_arg $ inject_arg
          $ json_arg)

let compare_cmd =
  let run wl bindings scale =
    let scale = checked_scale wl scale in
    let program = Workload.program wl in
    let cfg = config bindings in
    let tr, profiler = Pipeline.compile ~setup:(Workload.setup ~scale wl Train) program in
    let seq =
      Pipeline.run_sequential ~setup:(Workload.setup ~scale wl Ref) program
    in
    let workers = cfg.RC.workers in
    let par =
      Pipeline.run_parallel ~setup:(Workload.setup ~scale wl Ref) ~config:cfg tr
    in
    let report = Privateer_baselines.Doall_only.select program profiler in
    let dst, _, _ =
      Privateer_baselines.Doall_only.run ~workers program report
        ~setup:(Workload.setup ~scale wl Ref)
    in
    Printf.printf "%-14s sequential: %d cycles\n" wl.name seq.seq_cycles;
    Printf.printf "  DOALL-only : %.2fx (%d provable loops)\n"
      (float_of_int seq.seq_cycles /. float_of_int dst.cycles)
      (List.length report.chosen);
    Printf.printf "  Privateer  : %.2fx\n"
      (float_of_int seq.seq_cycles /. float_of_int par.par_cycles)
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Privateer vs the non-speculative DOALL-only baseline")
    Term.(const run $ wl_arg $ bindings_term $ scale_arg)

(* privateer file <src>: the full pipeline on any loader source — a
   bare path, file:<path>, workload:<name> or scenario:<spec> — via
   the same Sources interface the jobs manifest uses, so both report
   identical errors.  A malformed source exits 124; a program fault
   exits 3, the code serve uses for a failed job. *)
let file_cmd =
  let src_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"SOURCE") in
  let run src bindings =
    let src = if String.contains src ':' then src else "file:" ^ src in
    let source =
      match Privateer_gen.Sources.parse src with
      | Ok s -> s
      | Error msg ->
        Printf.eprintf "privateer: %s\n" msg;
        exit 124
    in
    let program = source.Privateer_gen.Sources.src_fresh () in
    let train, runset =
      match source.Privateer_gen.Sources.src_workload with
      | Some wl -> (Workload.setup wl Train, Workload.setup wl Ref)
      | None -> (Pipeline.no_setup, Pipeline.no_setup)
    in
    let cfg = config bindings in
    match
      let tr, _ = Pipeline.compile ~setup:train program in
      let seq = Pipeline.run_sequential ~setup:runset program in
      (seq, Pipeline.run_parallel ~setup:runset ~config:cfg tr)
    with
    | seq, par ->
      print_string par.par_output;
      report_run ~seq ~par ~fallbacks:par.fallbacks
    | exception Privateer_interp.Interp.Runtime_error msg ->
      Printf.eprintf "privateer: runtime error: %s\n" msg;
      exit 3
  in
  Cmd.v
    (Cmd.info "file"
       ~doc:
         "Run the full pipeline on a source (a Cmini file path, file:<path>, \
          workload:<name> or scenario:<spec>)")
    Term.(const run $ src_arg $ bindings_term)

(* privateer gen <spec>: emit a generated scenario — the Cmini source
   on stdout, or with --meta a JSON object carrying the canonical
   spec, the expected classification and the planted-conflict shape
   (the oracle side of the corpus). *)
let gen_cmd =
  let spec_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"SPEC"
             ~doc:"Comma-separated knobs, e.g. seed=7,trip=96,misspec=0.1.")
  in
  let meta_arg =
    Arg.(value & flag
         & info [ "meta" ] ~doc:"Emit JSON metadata (oracle) instead of source.")
  in
  let run spec meta =
    match Privateer_gen.Scenario_gen.knobs_of_spec spec with
    | Error msg ->
      Printf.eprintf "privateer gen: %s\n" msg;
      exit 124
    | Ok knobs ->
      let sc = Privateer_gen.Scenario_gen.generate knobs in
      if not meta then print_string sc.sc_source
      else
        let open Privateer_support.Json in
        let e = sc.sc_expect in
        print_endline
          (to_string
             (Obj
                [ ("name", String sc.sc_name);
                  ( "spec",
                    String (Privateer_gen.Scenario_gen.spec_of_knobs sc.sc_knobs) );
                  ( "expect",
                    Obj
                      [ ( "private",
                          List (List.map (fun s -> String s) e.x_private) );
                        ("redux", List (List.map (fun s -> String s) e.x_redux));
                        ( "readonly",
                          List (List.map (fun s -> String s) e.x_readonly) );
                        ("hot_loops", Int e.x_hot_loops) ] );
                  ( "conflict_period",
                    match sc.sc_conflict_period with Some m -> Int m | None -> Null );
                  ( "conflict_offsets",
                    List (List.map (fun o -> Int o) sc.sc_conflict_offsets) ) ]))
  in
  Cmd.v
    (Cmd.info "gen"
       ~doc:
         "Generate a synthetic Cmini scenario from a knob spec (seed, loops, trip, \
          heap, reuse, redux, misspec)")
    Term.(const run $ spec_arg $ meta_arg)

(* privateer serve <manifest>: run every job in the manifest through
   the job server — many concurrent speculative pipelines over one
   domain pool — and emit the aggregate JSON report
   (throughput, latency percentiles, per-job results).  Exits 3 when
   any job failed, so smoke tests can assert success without parsing. *)
let serve_cmd =
  let path =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"MANIFEST")
  in
  let run path bindings =
    let base = config bindings in
    let specs =
      try Privateer_server.Jobs_manifest.load ~base path
      with Failure msg ->
        Printf.eprintf "privateer serve: %s: %s\n" path msg;
        exit 125
    in
    let server = Privateer_server.Job_server.run_jobs ~config:base specs in
    print_endline
      (Privateer_support.Json.to_string (Privateer_server.Job_server.report server));
    let failed =
      List.exists
        (fun j ->
          match Privateer_server.Job_server.state server j with
          | Privateer_server.Job_server.Failed _ -> true
          | _ -> false)
        (Privateer_server.Job_server.jobs server)
    in
    if failed then exit 3
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run a jobs manifest through the job server (concurrent speculative \
          pipelines over one shared domain pool) and emit the aggregate JSON \
          report")
    Term.(const run $ path $ bindings_term)

let () =
  let doc = "Privateer: speculative separation for privatization and reductions" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "privateer" ~doc)
          [ list_cmd; plan_cmd; dump_cmd; run_cmd; compare_cmd; gen_cmd; file_cmd;
            serve_cmd ]))
