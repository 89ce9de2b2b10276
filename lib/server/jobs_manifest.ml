(* The jobs-manifest format behind `privateer serve`.

   One job per line (nothing in the system parses JSON — Json.mli is
   emission-only — so the manifest is a line format):

     <name> workload:<wl>    [input=train|ref|alt] [train=train|ref|alt]
                             [scale=N] [baseline] [repeat=N] [<knob>=<value> ...]
     <name> scenario:<spec>  [same options as workload:]
     <name> file:<path.cm>   [baseline] [repeat=N] [<knob>=<value> ...]

   `#` starts a comment; blank lines are skipped.  All three source
   kinds resolve through the shared loader (Privateer_gen.Sources), so
   the CLI and the server report identical errors — here each wrapped
   with its line number.  A scenario:<spec> (see docs/SCENARIOS.md) is
   generated when its line loads and runs like a port;
   `scale=N` picks the workload's large-input scale factor.  <knob> is
   any Runtime_config CLI binding name (workers, checkpoint, schedule,
   validation, ...), applied over the server's base config — the same
   single table that feeds the CLI flags, so every engine knob is
   expressible per job with no manifest change.  `repeat=N` expands
   the line into N independent jobs named <name>#1 .. <name>#N (each
   with its own parsed AST: concurrent jobs never share programs).
   `file:` paths are resolved against the manifest's directory. *)

module RC = Privateer_parallel.Runtime_config
module Sources = Privateer_gen.Sources
open Privateer_workloads

let fail ~lineno fmt =
  Printf.ksprintf (fun msg -> failwith (Printf.sprintf "line %d: %s" lineno msg)) fmt

let input_of_string ~lineno s =
  match Workload.input_of_name s with
  | Ok i -> i
  | Error msg -> fail ~lineno "%s" msg

(* The per-job engine knobs reuse the CLI's binding table: key=value
   pairs resolve by flag name and fold over the base config. *)
let find_binding key =
  List.find_opt (fun (b : RC.binding) -> List.mem key b.b_flags) RC.cli_bindings

type parsed_line = {
  p_name : string;
  p_source : Sources.t;
  mutable p_train : Workload.input;
  mutable p_run : Workload.input;
  mutable p_scale : int;
  mutable p_config : RC.t;
  mutable p_baseline : bool;
  mutable p_repeat : int;
}

let require_workload ~lineno p key =
  match p.p_source.Sources.src_workload with
  | Some wl -> wl
  | None -> fail ~lineno "%s= only applies to workload: and scenario: jobs" key

let apply_option ~lineno p key value =
  match (key, value) with
  | "input", Some v ->
    let _ = require_workload ~lineno p "input" in
    p.p_run <- input_of_string ~lineno v
  | "train", Some v ->
    let _ = require_workload ~lineno p "train" in
    p.p_train <- input_of_string ~lineno v
  | "scale", Some v -> (
    let wl = require_workload ~lineno p "scale" in
    match int_of_string_opt v with
    | None -> fail ~lineno "scale: expected an integer, got %S" v
    | Some s -> (
      match Workload.check_scale wl s with
      | Ok () -> p.p_scale <- s
      | Error msg -> fail ~lineno "%s" msg))
  | "baseline", None -> p.p_baseline <- true
  | "baseline", Some v -> (
    match bool_of_string_opt v with
    | Some b -> p.p_baseline <- b
    | None -> fail ~lineno "baseline: expected true or false, got %S" v)
  | "repeat", Some v -> (
    match int_of_string_opt v with
    | Some n when n >= 1 -> p.p_repeat <- n
    | Some _ | None -> fail ~lineno "repeat: expected a positive integer, got %S" v)
  | key, value -> (
    match find_binding key with
    | None -> fail ~lineno "unknown job option %S" key
    | Some b -> (
      let v =
        match value with
        | Some v -> v
        | None when b.b_flag_like -> "true"
        | None -> fail ~lineno "option %s needs a value" key
      in
      match b.b_apply p.p_config v with
      | Ok c -> p.p_config <- c
      | Error msg -> fail ~lineno "%s" msg))

let parse_job_line ~base ~dir ~lineno line =
  match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
  | [] | [ _ ] -> fail ~lineno "expected: <name> <kind>:<arg> [options] (%s)" Sources.kinds
  | name :: src :: options ->
    let source =
      match Sources.parse ~dir src with
      | Ok s -> s
      | Error msg -> fail ~lineno "%s" msg
    in
    let p =
      { p_name = name; p_source = source; p_train = Workload.Train;
        p_run = Workload.Ref; p_scale = 1; p_config = base; p_baseline = false;
        p_repeat = 1 }
    in
    List.iter
      (fun opt ->
        match String.index_opt opt '=' with
        | Some i ->
          apply_option ~lineno p (String.sub opt 0 i)
            (Some (String.sub opt (i + 1) (String.length opt - i - 1)))
        | None -> apply_option ~lineno p opt None)
      options;
    (match RC.check p.p_config with
    | Ok () -> ()
    | Error msg -> fail ~lineno "%s" msg);
    let train, run =
      match p.p_source.Sources.src_workload with
      | Some wl ->
        ( Workload.setup ~scale:p.p_scale wl p.p_train,
          Workload.setup ~scale:p.p_scale wl p.p_run )
      | None -> (Privateer.Pipeline.no_setup, Privateer.Pipeline.no_setup)
    in
    List.init p.p_repeat (fun k ->
        let name =
          if p.p_repeat = 1 then p.p_name
          else Printf.sprintf "%s#%d" p.p_name (k + 1)
        in
        Job_server.job_spec ~train ~run ~config:p.p_config ~baseline:p.p_baseline
          ~name
          (p.p_source.Sources.src_fresh ()))

(* Parse manifest text; [dir] anchors relative file: paths.
   @raise Failure with a line number on malformed lines. *)
let parse ?(dir = ".") ~base text =
  let lines = String.split_on_char '\n' text in
  List.concat
    (List.mapi
       (fun i line ->
         let lineno = i + 1 in
         let line =
           match String.index_opt line '#' with
           | Some j -> String.sub line 0 j
           | None -> line
         in
         let line = String.trim line in
         if line = "" then [] else parse_job_line ~base ~dir ~lineno line)
       lines)

let load ~base path =
  let text = In_channel.with_open_text path In_channel.input_all in
  parse ~dir:(Filename.dirname path) ~base text
