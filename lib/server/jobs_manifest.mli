(** The jobs-manifest format behind [privateer serve].

    One job per line:
    {v
    <name> workload:<wl> [input=train|ref|alt] [train=train|ref|alt]
                         [baseline] [repeat=N] [<knob>=<value> ...]
    <name> file:<path.cm> [baseline] [repeat=N] [<knob>=<value> ...]
    v}

    [#] starts a comment; blank lines are skipped.  [<knob>] is any
    {!Privateer_parallel.Runtime_config.cli_bindings} flag name
    ([workers], [checkpoint], [schedule], [validation], ...), applied
    over the base config — the same table that feeds the CLI flags.
    [repeat=N] expands a line into N independent jobs named
    [<name>#1 .. <name>#N], each with its own parsed AST.  [file:]
    paths are resolved against the manifest's directory. *)

(** Parse manifest text; [dir] (default ["."]) anchors relative
    [file:] paths, [base] is the config job knobs fold over.
    @raise Failure with a line number on malformed lines. *)
val parse :
  ?dir:string ->
  base:Privateer_parallel.Runtime_config.t ->
  string ->
  Job_server.job_spec list

(** Read and {!parse} a manifest file, anchoring [file:] paths at the
    manifest's directory. *)
val load :
  base:Privateer_parallel.Runtime_config.t ->
  string ->
  Job_server.job_spec list
