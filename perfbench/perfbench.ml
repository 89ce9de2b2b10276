(* The Privateer end-to-end benchmark.

   One process runs one workload for a fixed time, checks every job's
   output against the sequential run and the golden simulated surface,
   and prints a context line followed by one JSON result line:
   end-to-end metrics untraced ([--trace 0]), per-layer metrics from a
   traced run ([--trace 1]).  It drives the public API from outside the
   program and puts its spans around those calls; nothing here reaches
   into [lib/].

   Workloads (why each was chosen is in NOTES.md):
   - paper-ports: the five registered ports through the body of
     [privateer run], one client, one job after another;
   - misspec-eager: the same jobs under eager validation, the adaptive
     period and 1% injected misspeculation phased by the seed;
   - serve-corpus: a seeded scenario corpus through the job server with
     [nproc] jobs outstanding, then a serial stage probe over the same
     corpus for the compile and run figures. *)

open Privateer_support
module Num = Privateer_support.Stats
module Pipeline = Privateer.Pipeline
module RC = Privateer_parallel.Runtime_config
module Stats = Privateer_runtime.Stats
module Selection = Privateer_analysis.Selection
module Transform = Privateer_transform.Transform
module Manifest = Privateer_transform.Manifest
module Workload = Privateer_workloads.Workload
module Workloads = Privateer_workloads.Workloads
module Scenario_gen = Privateer_gen.Scenario_gen
module Job_server = Privateer_server.Job_server

let workloads = [ "paper-ports"; "misspec-eager"; "serve-corpus" ]
let ports = [ "052.alvinn"; "dijkstra"; "blackscholes"; "swaptions"; "enc-md5" ]
let nproc = Domain.recommended_domain_count ()

(* Set-up is repeated and its median reported, so one slow repetition
   does not move [setup_s]. *)
let setup_reps = 5

(* One server lifetime serves one corpus pass of this many jobs: many
   passes fit in a run, so job_ms.p95 has far more than ten samples
   beyond it, and the server's job history stays bounded. *)
let corpus_count = 200

(* Share of [--seconds] the serve-corpus job-server phase gets; the
   serial stage probe gets the rest. *)
let serve_share = 0.75
let inject_rate = 0.01

(* ---- configuration: every field explicit, no environment defaults ---- *)

let config ?(validation = RC.Commit) ?(adaptive = false) ?inject ~workers ~host_domains () =
  let c : RC.t =
    { workers; host_domains; merge_shards = 8; pool_kind = Domain_pool.Work_stealing;
      host_controller = Privateer_parallel.Host_controller.Auto;
      schedule = Privateer_parallel.Schedule.Cyclic; checkpoint_period = None;
      adaptive_period = adaptive; throttle = None;
      pool_cap = Privateer_runtime.Page_pool.unbounded;
      costs = Privateer_parallel.Cost_model.default; inject; validate = true; validation;
      serial_commit = false; max_inflight = nproc; queue_cap = 0; profilers = [ "all" ] }
  in
  RC.validate c;
  c

(* The CLI's deterministically spaced injection with its phase shifted
   by the seed.  Phases 57..59 put the first kill at iteration 40..42
   of every invocation, inside even dijkstra's 48, so every port
   misspeculates at every seed and the seed moves only where. *)
let phased_injection ~seed iter =
  let i = iter + 57 + (seed mod 3) in
  int_of_float (float_of_int (i + 1) *. inject_rate)
  > int_of_float (float_of_int i *. inject_rate)

(* ---- jobs --------------------------------------------------------------- *)

type template = {
  key : string;  (** golden key *)
  source : string;
  train : Pipeline.setup;
  run : Pipeline.setup;
  cfg : RC.t;
}

(* Stage times and counts of a benchmark-side pipeline job. *)
type stages = {
  parse_ns : float;
  profile_ns : float;
  select_ns : float;
  transform_ns : float;
  seq_ns : float;
  par_ns : float;
  plain_train_ns : float;  (** traced jobs only: train input, no profiler *)
  selected : int;
  rejected : int;
  checks_live : int;
  checks_elided : int;
}

(* Host times the job server stamps on a served job. *)
type served = { queue_ns : float; service_ns : float; server_profile_ns : float }

(* One settled job, from either path. *)
type job = {
  tpl : template;
  traced : bool;
  job_ns : float;  (** pipeline: the whole job; served: submit to settle *)
  probe_before : float;  (** {!Speed} probes around the job, ns *)
  probe_after : float;
  seq_cycles : int;
  par_cycles : int;
  stats : Stats.t option;  (** kept for traced jobs only *)
  fallbacks : int;
  stages : stages option;
  served : served option;
}

let compile_ns s = s.parse_ns +. s.profile_ns +. s.select_ns +. s.transform_ns

(* Host ns of the part of job [j] from [start] to [stop] ns after it
   began, scaled to the reference speed: the probe time is interpolated
   linearly between the probes around the job, at the part's
   midpoint. *)
let scaled j ~start ~stop =
  let w = if j.job_ns > 0.0 then (start +. stop) /. 2.0 /. j.job_ns else 0.5 in
  let probe = j.probe_before +. (w *. (j.probe_after -. j.probe_before)) in
  (stop -. start) *. Speed.reference_ns /. probe

let scaled_job_ns j = scaled j ~start:0.0 ~stop:j.job_ns

type tally = {
  ck : Golden.checker;
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;  (** the first few, for stderr *)
}

let fail tally msg =
  tally.failed <- tally.failed + 1;
  if List.length tally.errors < 5 then tally.errors <- msg :: tally.errors

(* Count one job; [true] when its output and simulated surface hold. *)
let settle tally ~key ~identical ~seq_cycles ~par_cycles ~output ~fingerprint =
  tally.attempted <- tally.attempted + 1;
  let entry =
    { Golden.seq_cycles; par_cycles; output_md5 = Digest.to_hex (Digest.string output);
      fingerprint }
  in
  if not identical then begin
    fail tally (key ^ ": parallel output differs from sequential");
    false
  end
  else if not (Golden.check tally.ck ~job:key entry) then begin
    fail tally (key ^ ": golden mismatch");
    false
  end
  else true

(* The body of [privateer run], one span per stage. *)
let pipeline_job sp tally ~id tpl =
  let time name f = Span.time sp ~job:id name f in
  match
    time "job" (fun () ->
        let program, parse_ns = time "lang.parse" (fun () -> Pipeline.parse tpl.source) in
        let (profiler, _), profile_ns =
          time "profile.train" (fun () ->
              Pipeline.profile ~setup:tpl.train ~config:tpl.cfg program)
        in
        let sel, select_ns =
          time "analysis.select" (fun () -> Selection.select program profiler)
        in
        let tr, transform_ns =
          time "transform.apply" (fun () -> Transform.apply program profiler sel)
        in
        let seq, seq_ns =
          time "interp.seq" (fun () -> Pipeline.run_sequential ~setup:tpl.run program)
        in
        let par, par_ns =
          time "parallel.run" (fun () ->
              Pipeline.run_parallel ~setup:tpl.run ~config:tpl.cfg tr)
        in
        ( program, seq, par,
          { parse_ns; profile_ns; select_ns; transform_ns; seq_ns; par_ns;
            plain_train_ns = 0.0; selected = List.length sel.Selection.plans;
            rejected = List.length sel.Selection.rejections;
            checks_live = Manifest.live_check_count tr.Transform.manifest;
            checks_elided = Manifest.elided_check_count tr.Transform.manifest } ))
  with
  | exception e ->
    tally.attempted <- tally.attempted + 1;
    fail tally (Printf.sprintf "%s: %s" tpl.key (Printexc.to_string e));
    None
  | (program, seq, par, stages), job_ns ->
    (* The profiler's cost base: the same train input without it.  Kept
       outside the job span, so it never counts as job time. *)
    let plain_train_ns =
      if sp.Span.on then
        snd
          (time "probe.train_plain" (fun () ->
               Pipeline.run_sequential ~setup:tpl.train program))
      else 0.0
    in
    let fingerprint =
      Job_server.fingerprint_of_run ~output:par.par_output
        ~result:(Privateer_interp.Value.to_string par.par_result) ~cycles:par.par_cycles
        ~fallbacks:par.fallbacks par.stats
    in
    if
      settle tally ~key:tpl.key
        ~identical:(String.equal seq.seq_output par.par_output)
        ~seq_cycles:seq.seq_cycles ~par_cycles:par.par_cycles ~output:par.par_output
        ~fingerprint
    then
      Some
        { tpl; traced = sp.Span.on; job_ns; probe_before = Speed.reference_ns;
          probe_after = Speed.reference_ns; seq_cycles = seq.seq_cycles;
          par_cycles = par.par_cycles;
          stats = (if sp.Span.on then Some par.stats else None); fallbacks = par.fallbacks;
          stages = Some { stages with plain_train_ns }; served = None }
    else None

(* ---- set-up ------------------------------------------------------------- *)

type state = {
  templates : template array;
  corpus_ns : float;  (** serve-corpus: generating the corpus *)
  ck : Golden.checker;
}

let port_templates cfg =
  List.map
    (fun name ->
      let wl = Workloads.find_exn name in
      { key = name; source = wl.Workload.source; train = Workload.setup wl Workload.Train;
        run = Workload.setup wl Workload.Ref; cfg })
    ports

let golden_seed ~workload ~seed =
  if workload = "paper-ports" then "any" else string_of_int seed

(* Everything before the first timed job: the goldens, the job list
   (registry or corpus), the host pool, and a warm-up that compiles
   every job once on its train input, so lazy start-up is paid here
   and not by the first timed job. *)
let setup ~workload ~seed ~goldens =
  let ck = Golden.checker goldens ~workload ~seed:(golden_seed ~workload ~seed) in
  let st =
    match workload with
    | "paper-ports" ->
      { templates = Array.of_list (port_templates (config ~workers:24 ~host_domains:1 ()));
        corpus_ns = 0.0; ck }
    | "misspec-eager" ->
      let cfg =
        config ~validation:RC.Eager ~adaptive:true ~inject:(phased_injection ~seed)
          ~workers:24 ~host_domains:nproc ()
      in
      (* The executors share this process-wide pool; creating it here
         keeps its domain spawns out of the first timed job. *)
      ignore (Domain_pool.shared ~kind:Domain_pool.Work_stealing ~domains:nproc ());
      { templates = Array.of_list (port_templates cfg); corpus_ns = 0.0; ck }
    | _ ->
      let t0 = Clock.now_ns () in
      let corpus = Scenario_gen.corpus ~seed ~count:corpus_count in
      let corpus_ns = Clock.now_ns () -. t0 in
      let templates =
        List.mapi
          (fun i (sc : Scenario_gen.t) ->
            let wl = sc.sc_workload in
            (* Worker counts cycle 4/8/12, as in bench/server.ml. *)
            let workers = 4 + (4 * (i mod 3)) in
            { key = Printf.sprintf "%03d %s w%d" i sc.sc_name workers; source = sc.sc_source;
              train = Workload.setup wl Workload.Train; run = Workload.setup wl Workload.Ref;
              cfg = config ~workers ~host_domains:nproc () })
          corpus
      in
      { templates = Array.of_list templates; corpus_ns; ck }
  in
  Array.iter
    (fun tpl ->
      ignore (Pipeline.compile ~setup:tpl.train ~config:tpl.cfg (Pipeline.parse tpl.source)))
    st.templates;
  st

(* ---- the timed loops ---------------------------------------------------- *)

type pass = {
  p_traced : bool;
  p_ns : float;  (** scaled by {!Speed} *)
  p_raw_ns : float;
  p_jobs : int;
  p_rss_mb : float;  (** peak resident memory during the pass *)
}

let vm_hwm_mb () =
  try
    In_channel.with_open_text "/proc/self/status" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find_map (fun l ->
           if String.starts_with ~prefix:"VmHWM:" l then
             Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
                 Some (float_of_int kb /. 1024.0))
           else None)
  with Sys_error _ | Scanf.Scan_failure _ | End_of_file -> None

(* Restart the kernel's peak-RSS count (VmHWM) of this process, so each
   pass reads its own peak and the metric does not depend on how many
   passes fit in the run.  Where the kernel refuses, VmHWM stays the
   process peak. *)
let reset_peak_rss () =
  try Out_channel.with_open_text "/proc/self/clear_refs" (fun oc -> output_string oc "5")
  with Sys_error _ -> ()

let peak_rss_mb () =
  match vm_hwm_mb () with
  | Some mb -> mb
  | None -> float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* Whole passes over the templates while the next one is expected to
   end before [deadline]; at least [min_passes].  With tracing, odd
   passes are traced and even ones are not, so both modes see the same
   drift.  [isolate] starts each job on a compacted heap, as a fresh
   [privateer run] process would, and brackets it with speed probes;
   otherwise jobs take the latest probe.  Neither the compaction nor
   the probes are job time: a pass's time is the sum of its jobs. *)
let pipeline_passes sp tally speed ~trace ~isolate ~deadline ~min_passes templates =
  let jobs = ref [] and passes = ref [] in
  let fresh_probe () =
    Gc.compact ();
    Speed.sample speed
  in
  let before = ref (if isolate then fresh_probe () else 0.0) in
  let rec go p last_ns =
    if p >= min_passes && Clock.now_ns () +. last_ns > deadline then ()
    else begin
      sp.Span.on <- trace && p mod 2 = 1;
      reset_peak_rss ();
      let pass_ns = ref 0.0 and raw_ns = ref 0.0 in
      Array.iteri
        (fun i tpl ->
          if not isolate then before := Speed.current speed;
          let job = pipeline_job sp tally ~id:((p * Array.length templates) + i) tpl in
          let probe_before = !before in
          let probe_after = if isolate then fresh_probe () else probe_before in
          before := probe_after;
          Option.iter
            (fun j ->
              let j = { j with probe_before; probe_after } in
              pass_ns := !pass_ns +. scaled_job_ns j;
              raw_ns := !raw_ns +. j.job_ns;
              jobs := j :: !jobs)
            job)
        templates;
      passes :=
        { p_traced = sp.Span.on; p_ns = !pass_ns; p_raw_ns = !raw_ns;
          p_jobs = Array.length templates; p_rss_mb = peak_rss_mb () }
        :: !passes;
      go (p + 1) !raw_ns
    end
  in
  go 0 0.0;
  sp.Span.on <- false;
  (List.rev !jobs, List.rev !passes)

(* One pass = one server lifetime serving the whole corpus, in a closed
   loop with the server's in-flight bound outstanding: the next job is
   submitted when the oldest one settles.  Jobs are parsed on the
   benchmark side before submission, with the sequential baseline on. *)
let serve_pass sp tally ~id0 ~traced templates =
  sp.Span.on <- traced;
  reset_peak_rss ();
  let t0 = Clock.now_ns () in
  let server = Job_server.create ~config:(config ~workers:4 ~host_domains:nproc ()) () in
  let n = Array.length templates in
  let outstanding = Queue.create () in
  let next = ref 0 in
  let submit_next () =
    let i = !next in
    incr next;
    let tpl = templates.(i) in
    let program, _ =
      Span.time sp ~job:(id0 + i) "lang.parse" (fun () -> Pipeline.parse tpl.source)
    in
    let spec =
      Job_server.job_spec ~train:tpl.train ~run:tpl.run ~config:tpl.cfg ~baseline:true
        ~name:tpl.key program
    in
    let t_sub = Clock.now_ns () in
    Queue.push (i, t_sub, Job_server.submit server spec) outstanding
  in
  while !next < min n (Job_server.effective_inflight server) do submit_next () done;
  let jobs = ref [] in
  while not (Queue.is_empty outstanding) do
    let i, t_sub, handle = Queue.pop outstanding in
    let tpl = templates.(i) in
    (match Job_server.await server handle with
    | Error msg ->
      tally.attempted <- tally.attempted + 1;
      fail tally (Printf.sprintf "%s: %s" tpl.key msg)
    | Ok r ->
      let observed = Clock.now_ns () in
      let job = Span.add sp ~job:(id0 + i) ~start:t_sub ~stop:observed "job" in
      let q_end = t_sub +. r.jr_queue_ns in
      ignore (Span.add sp ~parent:job ~job:(id0 + i) ~start:t_sub ~stop:q_end "server.queue");
      ignore
        (Span.add sp ~parent:job ~job:(id0 + i) ~start:q_end
           ~stop:(q_end +. r.jr_service_ns) "server.service");
      let seq_cycles = Option.value ~default:(-1) r.jr_baseline_cycles in
      if
        settle tally ~key:tpl.key ~identical:(r.jr_output_identical = Some true) ~seq_cycles
          ~par_cycles:r.jr_cycles ~output:r.jr_output ~fingerprint:r.jr_fingerprint
      then
        jobs :=
          { tpl; traced; job_ns = r.jr_queue_ns +. r.jr_service_ns;
            probe_before = Speed.reference_ns; probe_after = Speed.reference_ns; seq_cycles;
            par_cycles = r.jr_cycles;
            stats = (if traced then Some r.jr_stats else None); fallbacks = r.jr_fallbacks;
            stages = None;
            served =
              Some
                { queue_ns = r.jr_queue_ns; service_ns = r.jr_service_ns;
                  server_profile_ns = r.jr_profile_ns } }
          :: !jobs);
    if !next < n then submit_next ()
  done;
  Job_server.shutdown server;
  sp.Span.on <- false;
  let raw_ns = Clock.now_ns () -. t0 in
  (List.rev !jobs, { p_traced = traced; p_ns = raw_ns; p_raw_ns = raw_ns; p_jobs = n;
                     p_rss_mb = peak_rss_mb () })

(* Server passes until the next one is expected to end past
   [deadline], at least three, each bracketed by speed probes. *)
let serve_passes sp tally speed ~trace ~deadline templates =
  let n = Array.length templates in
  let rec go p last_ns before jobs passes =
    if p >= 3 && Clock.now_ns () +. last_ns > deadline then
      (List.concat (List.rev jobs), List.rev passes)
    else
      let js, pass =
        serve_pass sp tally ~id0:(p * n) ~traced:(trace && p mod 2 = 1) templates
      in
      let after = Speed.sample speed in
      (* Jobs overlap, so each takes the pass's mean probe. *)
      let mean = (before +. after) /. 2.0 in
      go (p + 1) pass.p_raw_ns after
        (List.map (fun j -> { j with probe_before = mean; probe_after = mean }) js :: jobs)
        ({ pass with p_ns = pass.p_raw_ns *. Speed.reference_ns /. mean } :: passes)
  in
  go 0 0.0 (Speed.sample speed) [] []

(* ---- metrics ------------------------------------------------------------ *)

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile, as the job server reports its own. *)
let percentile xs p =
  match List.sort compare xs with
  | [] -> 0.0
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs
let isum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs
let ratio a b = if b = 0.0 then 0.0 else a /. b
let ms ns = ns /. 1e6

(* Jobs per host second of the median pass in one tracing mode. *)
let jobs_per_s ?(raw = false) passes ~traced =
  let rates =
    List.filter_map
      (fun p ->
        let ns = if raw then p.p_raw_ns else p.p_ns in
        if p.p_traced = traced && ns > 0.0 then Some (float_of_int p.p_jobs /. (ns /. 1e9))
        else None)
      passes
  in
  median rates

(* Each template's median of [f], over the jobs where [f] is defined. *)
let per_template f jobs =
  let by_key = Hashtbl.create 256 in
  List.iter
    (fun j ->
      match f j with
      | Some x ->
        let xs = Option.value ~default:[] (Hashtbl.find_opt by_key j.tpl.key) in
        Hashtbl.replace by_key j.tpl.key (x :: xs)
      | None -> ())
    jobs;
  Hashtbl.fold (fun _ xs acc -> median xs :: acc) by_key []

(* One job per template, for counts that repeat on every pass: their
   sum is a per-pass total. *)
let one_per_template jobs =
  let tbl = Hashtbl.create 256 in
  List.iter (fun j -> Hashtbl.replace tbl j.tpl.key j) jobs;
  Hashtbl.fold (fun _ j acc -> j :: acc) tbl []

type metric = string * float * string

(* End-to-end metrics, untraced, with host times scaled by {!Speed}.
   [primary] are the jobs the workload is about (its passes set the
   throughput); [staged] are the benchmark-side pipeline jobs the
   compile and run figures come from (the same jobs, except on
   serve-corpus, where the probe ran them). *)
let end_to_end ~setup_s ~passes ~primary ~staged ~per_program ~tally : metric list =
  let stage part =
    per_template
      (fun j -> Option.map (fun s -> let start, stop = part j s in scaled j ~start ~stop) j.stages)
      staged
  in
  let job_ms j = ms (scaled_job_ns j) in
  let job_ms =
    (* One client cycling five different programs: each program's median
       job time is one sample, so p50 and p95 name programs instead of
       falling between two of them. *)
    if per_program then per_template (fun j -> Some (job_ms j)) primary
    else List.map job_ms primary
  in
  [ ("setup_s", setup_s, "s");
    ("jobs_per_s", jobs_per_s passes ~traced:false, "jobs/s");
    ("job_ms.p50", percentile job_ms 0.50, "ms");
    ("job_ms.p95", percentile job_ms 0.95, "ms");
    ("compile_ms.geomean", ms (Num.geomean (stage (fun _ s -> (0.0, compile_ns s)))), "ms");
    ( "run_ms.geomean",
      ms (Num.geomean (stage (fun j s -> (j.job_ns -. s.par_ns, j.job_ns)))),
      "ms" );
    ( "sim_speedup.geomean",
      Num.geomean
        (List.map
           (fun j -> float_of_int j.seq_cycles /. float_of_int j.par_cycles)
           (one_per_template primary)),
      "x" );
    ( "peak_rss_mb",
      median (List.filter_map (fun p -> if p.p_traced then None else Some p.p_rss_mb) passes),
      "MB" );
    ( "ok_share",
      ratio (float_of_int (tally.attempted - tally.failed)) (float_of_int tally.attempted),
      "ratio" ) ]

(* Host time of a parallel run's engine stages, in ns. *)
let runtime_ns (s : Stats.t) =
  s.ns_reset +. s.ns_extract +. s.ns_spawn +. s.ns_merge_fill +. s.ns_merge_validate
  +. s.ns_merge_sweep

(* Stage metrics of traced benchmark-side pipeline jobs.  Times are
   means per job; counts sum one job per template, so they read per
   pass. *)
let stage_metrics jobs : metric list =
  let staged = List.filter_map (fun j -> Option.map (fun s -> (j, s)) j.stages) jobs in
  let n = float_of_int (max 1 (List.length staged)) in
  let total f = sum (fun (j, s) -> f j s) staged in
  let mean f = ms (total f /. n) in
  let count f =
    float_of_int
      (isum (fun j -> match j.stages with Some s -> f s | None -> 0) (one_per_template jobs))
  in
  [ ("lang.parse_ms", mean (fun _ s -> s.parse_ns), "ms");
    ( "lang.bytes_per_ms",
      ratio (total (fun j _ -> float_of_int (String.length j.tpl.source)))
        (ms (total (fun _ s -> s.parse_ns))),
      "B/ms" );
    ("profile.train_ms", mean (fun _ s -> s.profile_ns), "ms");
    ( "profile.overhead_x",
      ratio (total (fun _ s -> s.profile_ns)) (total (fun _ s -> s.plain_train_ns)),
      "x" );
    ("analysis.select_ms", mean (fun _ s -> s.select_ns), "ms");
    ("analysis.loops_selected", count (fun s -> s.selected), "count");
    ("analysis.loops_rejected", count (fun s -> s.rejected), "count");
    ("transform.apply_ms", mean (fun _ s -> s.transform_ns), "ms");
    ("transform.checks_live", count (fun s -> s.checks_live), "count");
    ("transform.checks_elided", count (fun s -> s.checks_elided), "count");
    ("interp.seq_ms", mean (fun _ s -> s.seq_ns), "ms");
    ( "interp.mcycles_per_s",
      ratio (total (fun j _ -> float_of_int j.seq_cycles) /. 1e6)
        (total (fun _ s -> s.seq_ns) /. 1e9),
      "Mcycles/s" );
    ("parallel.run_ms", mean (fun _ s -> s.par_ns), "ms");
    ( "parallel.self_ms",
      mean (fun j s -> s.par_ns -. Option.fold ~none:0.0 ~some:runtime_ns j.stats),
      "ms" ) ]

(* Runtime metrics of the traced jobs: host times are means per job;
   counts and ratios sum one job per template. *)
let runtime_metrics jobs : metric list =
  let stats = List.filter_map (fun j -> Option.map (fun s -> (j, s)) j.stats) jobs in
  let per_job f =
    ms (ratio (sum (fun (_, s) -> f s) stats) (float_of_int (List.length stats)))
  in
  let one = one_per_template (List.map fst stats) in
  let total f = float_of_int (isum (fun j -> Option.fold ~none:0 ~some:f j.stats) one) in
  let par =
    total (fun s -> s.Stats.par_resets + s.par_extracts + s.par_merges + s.par_spawns)
  in
  let seq =
    total (fun s -> s.Stats.seq_resets + s.seq_extracts + s.seq_merges + s.seq_spawns)
  in
  [ ("parallel.iterations", total (fun s -> s.Stats.iterations), "count");
    ("parallel.checkpoints", total (fun s -> s.Stats.checkpoints), "count");
    ("parallel.fallbacks", float_of_int (isum (fun j -> j.fallbacks) one), "count");
    ( "parallel.useful_ratio",
      1.0 -. ratio (total (fun s -> s.Stats.squashed_iterations)) (total (fun s -> s.Stats.iterations)),
      "ratio" );
    ("parallel.fanout_share", ratio par (par +. seq), "ratio");
    ("runtime.reset_ms", per_job (fun s -> s.Stats.ns_reset), "ms");
    ("runtime.extract_ms", per_job (fun s -> s.Stats.ns_extract), "ms");
    ("runtime.spawn_ms", per_job (fun s -> s.Stats.ns_spawn), "ms");
    ( "runtime.merge_ms",
      per_job (fun s -> s.Stats.ns_merge_fill +. s.ns_merge_validate +. s.ns_merge_sweep),
      "ms" );
    ("runtime.misspeculations", total (fun s -> s.Stats.misspeculations), "count");
    ("runtime.recovered_iterations", total (fun s -> s.Stats.recovered_iterations), "count");
    ("runtime.private_mb_written", total (fun s -> s.Stats.private_bytes_written) /. 1e6, "MB");
    ("runtime.eager_checks", total (fun s -> s.Stats.eager_checks), "count");
    ( "runtime.eager_kill_ratio",
      ratio (total (fun s -> s.Stats.eager_kills)) (total (fun s -> s.Stats.eager_hits)),
      "ratio" ) ]

(* The job server's own stamps; zero on workloads that do not serve. *)
let server_metrics jobs : metric list =
  let served = List.filter_map (fun j -> if j.traced then j.served else None) jobs in
  let lat f = List.map (fun s -> ms (f s)) served in
  [ ("server.queue_ms.p50", percentile (lat (fun s -> s.queue_ns)) 0.50, "ms");
    ("server.queue_ms.p95", percentile (lat (fun s -> s.queue_ns)) 0.95, "ms");
    ("server.service_ms.p50", percentile (lat (fun s -> s.service_ns)) 0.50, "ms");
    ("server.service_ms.p95", percentile (lat (fun s -> s.service_ns)) 0.95, "ms");
    ("server.profile_ms", median (lat (fun s -> s.server_profile_ns)), "ms") ]

(* The traced run's own figures: the median uncovered share of job
   spans, untraced over traced throughput, span and clamp counts.  The
   first pass (untraced, and slower while caches and heaps warm up) is
   left out of the throughput ratio. *)
let trace_metrics sp passes : metric list =
  let warm = match passes with _ :: rest -> rest | [] -> [] in
  [ ("trace.uncovered_share", median (List.map snd (Span.uncovered_shares sp "job")), "ratio");
    ( "trace.overhead_x",
      ratio (jobs_per_s warm ~traced:false) (jobs_per_s warm ~traced:true),
      "x" );
    ("trace.spans", float_of_int (List.length sp.Span.spans), "count");
    ("trace.clamped_spans", float_of_int sp.Span.clamped, "count") ]

(* ---- main --------------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let goldens = ref "perfbench/goldens.tsv" and trace_out = ref "" and regenerate = ref false in
  let commit = ref "unknown" and source_digest = ref "unknown" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME " ^ String.concat " | " workloads);
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--goldens", Arg.Set_string goldens, "FILE golden simulated surface");
      ("--trace-out", Arg.Set_string trace_out, "FILE where the traced run writes its spans");
      ("--regenerate", Arg.Set regenerate, " rewrite this workload's goldens for this seed");
      ("--commit", Arg.Set_string commit, "SHA recorded in the context line");
      ("--source-digest", Arg.Set_string source_digest, "HEX recorded in the context line") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  let workload = !workload and seed = !seed and trace = !trace = 1 in
  if not (List.mem workload workloads) then begin
    prerr_endline ("perfbench: unknown workload " ^ workload);
    exit 2
  end;
  let t_start = Clock.now_ns () in
  (* A PRIVATEER_* variable would change the program being measured. *)
  let env_seen =
    Array.to_list (Unix.environment ()) |> List.filter (String.starts_with ~prefix:"PRIVATEER_")
  in
  let speed = Speed.create () in
  (* Each repetition is bracketed by speed probes (not set-up time)
     and scaled by them. *)
  let setups =
    let before = ref (Speed.sample speed) in
    List.init setup_reps (fun _ ->
        let t0 = Clock.now_ns () in
        let st =
          setup ~workload ~seed ~goldens:(if !regenerate then None else Some !goldens)
        in
        let ns = Clock.now_ns () -. t0 in
        let after = Speed.sample speed in
        let factor = Speed.reference_ns /. ((!before +. after) /. 2.0) in
        before := after;
        (st, ns, factor))
  in
  let st, _, _ = List.nth setups (setup_reps - 1) in
  let setup_raw_s = median (List.map (fun (_, ns, _) -> ns /. 1e9) setups) in
  let setup_s = median (List.map (fun (_, ns, f) -> ns *. f /. 1e9) setups) in
  let tally = { ck = st.ck; attempted = 0; failed = 0; errors = [] } in
  let sp = Span.create () in
  let t_measure = Clock.now_ns () in
  let deadline share = t_measure +. (share *. !seconds *. 1e9) in
  let serving = workload = "serve-corpus" in
  (* Run the workload: primary jobs and passes, and the staged jobs. *)
  let primary, passes, staged =
    if !regenerate then
      let jobs, passes =
        pipeline_passes sp tally speed ~trace:false ~isolate:false ~deadline:0.0 ~min_passes:1
          st.templates
      in
      (jobs, passes, jobs)
    else if serving then
      let served, passes =
        serve_passes sp tally speed ~trace ~deadline:(deadline serve_share) st.templates
      in
      let probed, _ =
        pipeline_passes sp tally speed ~trace ~isolate:false ~deadline:(deadline 1.0)
          ~min_passes:(if trace then 2 else 1) st.templates
      in
      (served, passes, probed)
    else
      (* Four passes at least: each program's median is then taken over
         four jobs even when a pass takes a quarter of the run. *)
      let jobs, passes =
        pipeline_passes sp tally speed ~trace ~isolate:true ~deadline:(deadline 1.0)
          ~min_passes:4 st.templates
      in
      (jobs, passes, jobs)
  in
  let measure_s = (Clock.now_ns () -. t_measure) /. 1e9 in
  if !regenerate then begin
    let jobs = Golden.seen tally.ck in
    if tally.failed > 0 || jobs = [] then begin
      List.iter prerr_endline tally.errors;
      prerr_endline "perfbench: not regenerating goldens from a failing run";
      exit 1
    end;
    let gseed = golden_seed ~workload ~seed in
    Golden.save !goldens ~workload ~seed:gseed jobs;
    Printf.printf "perfbench: wrote %d golden jobs for %s seed %s to %s\n" (List.length jobs)
      workload gseed !goldens;
    exit 0
  end;
  let untraced = List.filter (fun j -> not j.traced) in
  let traced = List.filter (fun j -> j.traced) in
  let metrics =
    if not trace then
      end_to_end ~setup_s ~passes ~primary:(untraced primary) ~staged:(untraced staged)
        ~per_program:(not serving) ~tally
    else
      stage_metrics (traced staged) @ runtime_metrics primary @ server_metrics primary
      @ [ ("gen.corpus_ms", ms (median (List.map (fun (s, _, _) -> s.corpus_ns) setups)), "ms") ]
      @ trace_metrics sp passes
  in
  let correct =
    env_seen = [] && tally.ck.Golden.mismatches = [] && tally.failed = 0 && tally.attempted > 0
  in
  List.iter (fun e -> prerr_endline ("perfbench: failed job " ^ e)) tally.errors;
  List.iter (fun e -> prerr_endline ("perfbench: set in the environment: " ^ e)) env_seen;
  let context =
    let open Json in
    Obj
      [ ("workload", String workload); ("seed", Int seed); ("trace", Bool trace);
        ("seconds", Float !seconds); ("measured_s", Float measure_s);
        ("setup_reps_raw_s", List (List.map (fun (_, ns, _) -> Float (ns /. 1e9)) setups));
        ("setup_raw_s", Float setup_raw_s);
        ( "speed_probe_ms",
          let p = List.map (fun ns -> ns /. 1e6) speed.Speed.probes in
          Obj
            [ ("reference", Float (Speed.reference_ns /. 1e6)); ("count", Int (List.length p));
              ("median", Float (median p)); ("min", Float (List.fold_left Float.min Float.infinity p));
              ("max", Float (List.fold_left Float.max 0.0 p)) ] );
        ("jobs_per_s_raw", Float (jobs_per_s ~raw:true passes ~traced:false));
        ("process_to_first_job_s", Float ((t_measure -. t_start) /. 1e9));
        ("nproc", Int nproc); ("ocaml_version", String Sys.ocaml_version);
        ("commit", String !commit); ("source_digest", String !source_digest);
        ("privateer_env", List (List.map (fun v -> String v) env_seen));
        ("golden_mode", String (Golden.mode tally.ck));
        ("golden_mismatches", Int (List.length tally.ck.Golden.mismatches));
        ( "first_golden_mismatches",
          List
            (List.filteri (fun i _ -> i < 3) (List.rev tally.ck.Golden.mismatches)
            |> List.map (fun m -> String m)) );
        ("pass_raw_s", List (List.map (fun p -> Float (p.p_raw_ns /. 1e9)) passes));
        ("pass_rss_mb", List (List.map (fun p -> Float p.p_rss_mb) passes));
        ("primary_jobs", Int (List.length primary));
        ("job_ms_samples", Int (List.length (untraced primary)));
        ("clock", String "gettimeofday (not monotonic); negative spans clamped to 0") ]
  in
  if trace && !trace_out <> "" then Span.write sp ~path:!trace_out ~context;
  print_endline (Json.to_string (Json.Obj [ ("context", context) ]));
  (* Every digit of each value: Json's float printer keeps six. *)
  let metric_json (name, value, unit) =
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name
      (if Float.is_finite value then value else 0.0)
      unit
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct tally.attempted tally.failed
    (String.concat ", " (List.map metric_json metrics))
