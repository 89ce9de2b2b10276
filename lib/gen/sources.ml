module Workload = Privateer_workloads.Workload
module Workloads = Privateer_workloads.Workloads

type t = {
  src_kind : string;
  src_workload : Workload.t option;
  src_fresh : unit -> Privateer_ir.Ast.program;
}

let kinds = "workload:<name>, file:<path> or scenario:<spec>"

let lookup_workload name =
  match String.index_opt name ':' with
  | Some i when String.sub name 0 i = "scenario" ->
    Scenario_gen.workload_of_spec
      (String.sub name (i + 1) (String.length name - i - 1))
  | _ -> Workloads.lookup name

let of_workload kind wl =
  { src_kind = kind; src_workload = Some wl;
    src_fresh = (fun () -> Workload.fresh_program wl) }

let parse ?(dir = ".") src =
  match String.index_opt src ':' with
  | None -> Error (Printf.sprintf "job source must be %s, got %S" kinds src)
  | Some i -> (
    let kind = String.sub src 0 i in
    let arg = String.sub src (i + 1) (String.length src - i - 1) in
    match kind with
    | "workload" -> Result.map (of_workload "workload") (Workloads.lookup arg)
    | "scenario" ->
      Result.map (of_workload "scenario") (Scenario_gen.workload_of_spec arg)
    | "file" -> (
      let path = if Filename.is_relative arg then Filename.concat dir arg else arg in
      if not (Sys.file_exists path) then Error (Printf.sprintf "no such file %S" path)
      else
        let source = In_channel.with_open_text path In_channel.input_all in
        (* Lex, parse and validate now, so a malformed file fails the
           load with its positioned message instead of a job later. *)
        match Privateer.Pipeline.parse source with
        | exception Failure msg -> Error msg
        | _ ->
          Ok
            { src_kind = "file"; src_workload = None;
              src_fresh = (fun () -> Privateer.Pipeline.parse source) })
    | k -> Error (Printf.sprintf "unknown job source kind %S (want %s)" k kinds))
