(** The one source-loader interface behind every way of naming a
    program: [workload:<name>], [file:<path>] and [scenario:<spec>].
    The CLI's SOURCE argument and the jobs manifest both resolve
    sources here, so the three kinds share parsing and error
    reporting (the manifest prefixes line numbers). *)

type t = {
  src_workload : Privateer_workloads.Workload.t option;
      (** [Some] for workload/scenario sources (a scenario resolves
          to the workload it generates); [None] for raw files *)
  src_fresh : unit -> Privateer_ir.Ast.program;
      (** a fresh AST per call — concurrent pipelines never share one *)
}

val kinds : string
(** Human-readable list of accepted kinds, for error messages. *)

val parse : ?dir:string -> string -> (t, string) result
(** Parse a [kind:arg] source.  [file:] paths resolve relative to
    [dir] (default ["."]) and are read, lexed, parsed and
    IR-validated eagerly, so a missing or malformed file is an
    immediate error carrying the positioned Cmini message.  A string
    without a kind prefix is an error naming the accepted kinds. *)
