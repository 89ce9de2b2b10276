(* The privateer command-line driver.

     privateer list
     privateer plan <source>
     privateer dump <source> [--transformed]
     privateer run <source> [-w N] [-i ref] [--scale S] [--inject RATE] [--json]
     privateer compare <source> [-w N]
     privateer gen <spec> [--meta]     -- emit a generated scenario
     privateer serve <manifest> [--max-inflight N]

   <source> is anything a jobs-manifest line names (workload:<name>,
   scenario:<spec>, file:<path>); a bare argument is a port if it
   names one and a Cmini file path otherwise.
*)

open Cmdliner
open Privateer
open Privateer_workloads
module Sources = Privateer_gen.Sources
module Job_server = Privateer_server.Job_server

(* Fail closed on a bad argument: one [privateer:] line, exit 124. *)
let fail_closed msg =
  Printf.eprintf "privateer: %s\n" msg;
  exit 124

let source_arg =
  Arg.(required & pos 0 (some string) None
       & info [] ~docv:"SOURCE"
           ~doc:
             "A port's name, a Cmini file path, or workload:NAME, file:PATH or \
              scenario:SPEC.")

(* Resolve a SOURCE through the loader the jobs manifest uses, so both
   report identical errors: a malformed file fails here with its
   positioned Cmini message. *)
let source_of_arg arg =
  let src =
    if String.contains arg ':' then arg
    else if Option.is_some (Workloads.find arg) then "workload:" ^ arg
    else "file:" ^ arg
  in
  match Sources.parse src with Ok s -> s | Error msg -> fail_closed msg

(* Run [f] on a SOURCE argument; a program fault exits 3, the code
   serve uses for a failed job. *)
let on_source arg f =
  let source = source_of_arg arg in
  try f source
  with Privateer_interp.Interp.Runtime_error msg ->
    Printf.eprintf "privateer: runtime error: %s\n" msg;
    exit 3

(* A source's (train, run) setups: a workload's inputs at [scale], or
   none for a file, which takes neither option. *)
let setups (source : Sources.t) ?input ?scale () =
  match source.src_workload with
  | Some wl ->
    let scale = Option.value scale ~default:1 in
    Result.iter_error fail_closed (Workload.check_scale wl scale);
    ( Workload.setup ~scale wl Train,
      Workload.setup ~scale wl (Option.value input ~default:Workload.Ref) )
  | None ->
    let only flag = fail_closed (flag ^ " only applies to workload: and scenario: sources") in
    if Option.is_some input then only "--input";
    if Option.is_some scale then only "--scale";
    (Pipeline.no_setup, Pipeline.no_setup)

let input_conv =
  let parse s = Result.map_error (fun m -> `Msg m) (Workload.input_of_name s) in
  Arg.conv (parse, fun fmt i -> Format.pp_print_string fmt (Workload.input_name i))

let input_arg =
  Arg.(value & opt (some input_conv) None
       & info [ "i"; "input" ] ~docv:"INPUT" ~doc:"Input set (train|ref|alt; default ref).")

let scale_arg =
  Arg.(value & opt (some int) None
       & info [ "scale" ] ~docv:"S"
           ~doc:"Input scale factor (1 = paper-sized; see each workload's max).")

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
  | Error msg -> fail_closed msg

(* ---- commands --------------------------------------------------------- *)

let list_cmd =
  let run () =
    List.iter
      (fun (w : Workload.t) ->
        Printf.printf "%-14s (scale 1..%d) %s\n" w.name w.max_scale w.description)
      (Workloads.all ())
  in
  Cmd.v (Cmd.info "list" ~doc:"List the workloads")
    Term.(const run $ const ())

let plan_cmd =
  let run arg =
    on_source arg @@ fun source ->
    let train, _ = setups source () in
    let program = source.src_fresh () in
    let profiler, _ = Pipeline.profile ~setup:train program in
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
    Term.(const run $ source_arg)

let dump_cmd =
  let transformed =
    Arg.(value & flag & info [ "transformed" ] ~doc:"Dump after privatization.")
  in
  let run arg transformed =
    on_source arg @@ fun source ->
    let train, _ = setups source () in
    let program = source.src_fresh () in
    if transformed then begin
      let tr, _ = Pipeline.compile ~setup:train program in
      print_endline (Privateer_ir.Pp.program_str tr.program)
    end
    else print_endline (Privateer_ir.Pp.program_str program)
  in
  Cmd.v (Cmd.info "dump" ~doc:"Pretty-print a source's IR")
    Term.(const run $ source_arg $ transformed)

let report_run (r : Job_server.job_result) =
  let stats = r.jr_stats in
  let seq_cycles = Option.get r.jr_baseline_cycles in
  Printf.printf "sequential cycles : %d\n" seq_cycles;
  Printf.printf "parallel cycles   : %d\n" r.jr_cycles;
  Printf.printf "whole-program speedup: %.2fx\n"
    (float_of_int seq_cycles /. float_of_int (max 1 r.jr_cycles));
  Printf.printf "output identical  : %b\n" (Option.get r.jr_output_identical);
  Printf.printf
    "invocations %d, checkpoints %d, misspeculations %d (recovered %d iterations), fallbacks %d\n"
    stats.invocations stats.checkpoints stats.misspeculations
    stats.recovered_iterations r.jr_fallbacks;
  Printf.printf "private bytes: %s read, %s written\n"
    (Privateer_support.Table.fbytes stats.private_bytes_read)
    (Privateer_support.Table.fbytes stats.private_bytes_written);
  let b = Privateer_runtime.Stats.breakdown stats in
  Printf.printf
    "overhead breakdown: useful %.1f%%, priv-read %.1f%%, priv-write %.1f%%, checkpoint %.1f%%, spawn/join %.1f%%\n"
    b.useful b.private_read b.private_write b.checkpoint b.spawn_join

(* [run]'s exit code when the parallel run's output differs from the
   sequential baseline's: a wrong answer fails closed. *)
let exit_wrong_output = 4

(* privateer run <source>: one job, through the job server's own
   pipeline and report, with the sequential baseline. *)
let run_cmd =
  let run arg bindings input scale inject json =
    on_source arg @@ fun source ->
    let train, run = setups source ?input ?scale () in
    let spec =
      Job_server.job_spec ~train ~run ~config:(config ~inject bindings) ~baseline:true
        ~name:arg (source.src_fresh ())
    in
    let r = Job_server.execute spec in
    if json then print_endline (Privateer_support.Json.to_string (Job_server.result_json spec r))
    else begin
      print_string r.jr_output;
      report_run r
    end;
    if r.jr_output_identical = Some false then begin
      prerr_endline "privateer: the parallel run's output differs from the sequential run's";
      exit exit_wrong_output
    end
  in
  let exits =
    Cmd.Exit.info 3 ~doc:"on a program fault (a runtime error), as $(b,serve) does for a failed job."
    :: Cmd.Exit.info exit_wrong_output
         ~doc:"when the parallel run's output differs from the sequential run's."
    :: Cmd.Exit.defaults
  in
  Cmd.v
    (Cmd.info "run" ~exits
       ~doc:
         "Profile, privatize and run a source in parallel (a port, a Cmini file, \
          or a workload:, file: or scenario: source)")
    Term.(const run $ source_arg $ bindings_term $ input_arg $ scale_arg $ inject_arg
          $ json_arg)

let compare_cmd =
  let run arg bindings scale =
    on_source arg @@ fun source ->
    let train, run = setups source ?scale () in
    let program = source.src_fresh () in
    let cfg = config bindings in
    let tr, profiler = Pipeline.compile ~setup:train program in
    let seq = Pipeline.run_sequential ~setup:run program in
    let par = Pipeline.run_parallel ~setup:run ~config:cfg tr in
    let report = Privateer_baselines.Doall_only.select program profiler in
    let dst, _, _ =
      Privateer_baselines.Doall_only.run ~workers:cfg.RC.workers program report ~setup:run
    in
    Printf.printf "%-14s sequential: %d cycles\n" arg seq.seq_cycles;
    Printf.printf "  DOALL-only : %.2fx (%d provable loops)\n"
      (float_of_int seq.seq_cycles /. float_of_int dst.cycles)
      (List.length report.chosen);
    Printf.printf "  Privateer  : %.2fx\n"
      (float_of_int seq.seq_cycles /. float_of_int par.par_cycles)
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Privateer vs the non-speculative DOALL-only baseline")
    Term.(const run $ source_arg $ bindings_term $ scale_arg)

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
   the job server — many concurrent speculative pipelines on the
   server's own domains — and emit the aggregate JSON report
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
          pipelines, one domain each) and emit the aggregate JSON report")
    Term.(const run $ path $ bindings_term)

let () =
  let doc = "Privateer: speculative separation for privatization and reductions" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "privateer" ~doc)
          [ list_cmd; plan_cmd; dump_cmd; run_cmd; compare_cmd; gen_cmd; serve_cmd ]))
