(* The unified runtime-tuning surface.

   Every knob of the speculation engine lives in this one validated
   record: [Executor] consumes it directly, [Pipeline] threads it
   through, and the CLI builds its flags from [cli_bindings] instead
   of hand-rolling one argument per field.  [default] is a constant:
   no knob reads the environment. *)

(* What a misspeculation stops.  [Commit]: every worker runs its
   slice of the interval and the discard happens at the checkpoint
   merge (the paper's behavior).  [Eager]: the first misspeculation a
   worker raises itself squashes the interval at once, so the workers
   after it in sweep order never run it.  Cross-worker conflicts are
   found by the merge's phase 2 alone, in both modes, so a run with no
   eager kill is identical across modes.  Final outputs and results
   are identical in both modes; after a kill, wasted-work accounting
   and cycles differ, and so can the misspeculation count when one
   interval misspeculates on two workers: eager recovers from the
   first in worker order, commit from the earliest iteration. *)
type validation = Commit | Eager

let validation_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "commit" -> Some Commit
  | "eager" -> Some Eager
  | _ -> None

let validation_to_string = function Commit -> "commit" | Eager -> "eager"

type t = {
  workers : int; (* simulated worker processes *)
  (* Inert: engine stages no longer fan out over host domains, so
     nothing reads these four fields.  They stay so record literals
     naming all fields keep compiling. *)
  host_domains : int;
  merge_shards : int;
  pool_kind : Privateer_support.Domain_pool.kind;
  host_controller : Host_controller.mode;
  schedule : Schedule.t; (* iteration-assignment policy *)
  checkpoint_period : int option; (* None: auto (aim ~6 per invocation) *)
  adaptive_period : bool;
      (* true: shrink the period after a misspeculated interval and
         grow it back after clean ones (Recovery.period) *)
  throttle : int option;
      (* Some n: after n misspeculations in one invocation, demote the
         loop to sequential execution and suspend speculation on it
         for later invocations.  None: never demote. *)
  pool_cap : int;
      (* Inert, and kept like the four above: the shadow-page pool it
         sized is gone (the interval reset fills full pages in place). *)
  costs : Cost_model.t;
  inject : (int -> bool) option; (* injected misspeculation, by iteration *)
  validate : bool;
      (* false: disable validation (ablation); workers still stamp
         their private writes, so checkpoints commit them *)
  validation : validation;
      (* what a misspeculation stops: nothing before the checkpoint
         merge (Commit, the default), or the interval's sweep at a
         worker's own first misspeculation (Eager).  Outputs and
         results are identical in both modes; commit mode stays the
         differential oracle. *)
  serial_commit : bool;
      (* true: model an STMLite-style central commit process that
         serially merges every contributed page (ablation; the paper
         notes STMLite's central commit "can quickly become an
         execution bottleneck"). *)
  max_inflight : int;
      (* job server: maximum number of jobs running concurrently, one
         domain each (the server spawns all but the awaiting caller's).
         The server clamps this to the host core count (1 core ->
         sequential jobs).
         Host-only: per-job results are byte-identical at any
         setting. *)
  queue_cap : int;
      (* Inert, like [pool_cap]: the job server's queue is unbounded. *)
  profilers : string list;
      (* Inert, like [host_domains] and [pool_cap]: every training
         run profiles with all five profilers, because classification
         needs every profiler's facts. *)
}

let default =
  { workers = 4; host_domains = 1; merge_shards = 1;
    pool_kind = Privateer_support.Domain_pool.Work_stealing;
    host_controller = Host_controller.Auto; schedule = Schedule.Cyclic;
    checkpoint_period = None; adaptive_period = false; throttle = None;
    pool_cap = Privateer_runtime.Page_pool.unbounded; costs = Cost_model.default;
    inject = None; validate = true; validation = Commit; serial_commit = false;
    max_inflight = 4; queue_cap = 0; profilers = [ "all" ] }

(* ---- validation ------------------------------------------------------- *)

(* The first offending field's message, so user-facing callers (the
   CLI flags, the jobs manifest) can fail closed with it. *)
let check config =
  let bad cond fmt = Printf.ksprintf (fun msg -> if cond then Some msg else None) fmt in
  let positive name = function
    | Some k -> bad (k <= 0) "%s must be > 0 (got %d)" name k
    | None -> None
  in
  let problems =
    [ bad (config.workers <= 0) "workers must be > 0 (got %d)" config.workers;
      positive "checkpoint_period" config.checkpoint_period;
      positive "throttle" config.throttle;
      bad
        (config.max_inflight < 1 || config.max_inflight > 64)
        "max_inflight must be in [1, 64] (got %d)" config.max_inflight;
      (match Schedule.validate config.schedule with
      | () -> None
      | exception Invalid_argument msg -> Some msg) ]
  in
  match List.find_map Fun.id problems with Some msg -> Error msg | None -> Ok ()

let validate config =
  match check config with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Runtime_config: " ^ msg)

(* ---- CLI flag bindings ------------------------------------------------ *)

type binding = {
  b_flags : string list;
  b_docv : string;
  b_doc : string;
  b_flag_like : bool;
      (* true: the bare flag means "true" (CLI passes ~vopt:"true") *)
  b_apply : t -> string -> (t, string) result;
}

let int_field name apply t s =
  match int_of_string_opt (String.trim s) with
  | Some v -> Ok (apply t v)
  | None -> Error (Printf.sprintf "%s: expected an integer, got %S" name s)

let opt_int_field name apply t s =
  match String.trim s with
  | "none" -> Ok (apply t None)
  | s -> (
    match int_of_string_opt s with
    | Some v -> Ok (apply t (Some v))
    | None -> Error (Printf.sprintf "%s: expected an integer or 'none', got %S" name s))

let bool_field name apply t s =
  match bool_of_string_opt (String.trim s) with
  | Some v -> Ok (apply t v)
  | None -> Error (Printf.sprintf "%s: expected true or false, got %S" name s)

(* One entry per string-expressible tunable; the CLI derives one
   Cmdliner argument per entry and folds the applications over a base
   config, so adding a knob here is the whole CLI change. *)
let cli_bindings =
  [ { b_flags = [ "w"; "workers" ]; b_docv = "N"; b_doc = "Worker processes.";
      b_flag_like = false;
      b_apply = int_field "workers" (fun t workers -> { t with workers }) };
    { b_flags = [ "validation" ]; b_docv = "MODE";
      b_doc =
        "Misspeculation handling: 'commit' (every worker runs its slice and the \
         checkpoint merge discards a failed interval — the default) or 'eager' (a \
         worker's own misspeculation squashes the interval at once; cross-worker \
         conflicts are left to the merge in both modes).  Final outputs and \
         results are identical in both modes.";
      b_flag_like = false;
      b_apply =
        (fun t s ->
          match validation_of_string s with
          | Some validation -> Ok { t with validation }
          | None ->
            Error (Printf.sprintf "validation: expected 'commit' or 'eager', got %S" s)) };
    { b_flags = [ "checkpoint" ]; b_docv = "K";
      b_doc = "Checkpoint period in iterations ('none': auto).";
      b_flag_like = false;
      b_apply =
        opt_int_field "checkpoint" (fun t checkpoint_period ->
            { t with checkpoint_period }) };
    { b_flags = [ "schedule" ]; b_docv = "POLICY";
      b_doc = "Iteration schedule: cyclic, blocked, or chunked:N.";
      b_flag_like = false;
      b_apply =
        (fun t s ->
          match Schedule.of_string s with
          | Some schedule -> Ok { t with schedule }
          | None ->
            Error (Printf.sprintf "unknown schedule %S (cyclic|blocked|chunked:N)" s)) };
    { b_flags = [ "adaptive" ]; b_docv = "BOOL";
      b_doc =
        "Adapt the checkpoint period to misspeculation (shrink on failure, grow \
         back on clean intervals).";
      b_flag_like = true;
      b_apply =
        bool_field "adaptive" (fun t adaptive_period -> { t with adaptive_period }) };
    { b_flags = [ "throttle" ]; b_docv = "N";
      b_doc =
        "Demote a loop to sequential execution after N misspeculations in one \
         invocation and suspend speculation on it ('none': never).";
      b_flag_like = false;
      b_apply = opt_int_field "throttle" (fun t throttle -> { t with throttle }) };
    { b_flags = [ "max-inflight" ]; b_docv = "N";
      b_doc =
        "Job server: run at most N jobs concurrently, one domain each \
         (clamped to the host core count; default 4).  Host-only: per-job \
         results are identical at any setting.";
      b_flag_like = false;
      b_apply =
        int_field "max-inflight" (fun t max_inflight -> { t with max_inflight }) } ]

(* Fold a list of (binding, passed value) pairs over [base]; unpassed
   flags leave their field untouched.  The first parse error wins; a
   parsed but out-of-range result fails [check]. *)
let apply_bindings base passed =
  let folded =
    List.fold_left
      (fun acc (b, v) ->
        match (acc, v) with
        | Error _, _ | _, None -> acc
        | Ok t, Some s -> b.b_apply t s)
      (Ok base) passed
  in
  Result.bind folded (fun t -> Result.map (fun () -> t) (check t))
