(* The workloads: the paper's five programs (section 6, Table 3).

   Generated scenarios (lib/gen) resolve by spec through
   [Scenario_gen.workload_of_spec] and never join this list, so [all]
   is the same five in every process.  [lookup] owns the canonical
   unknown-workload error string shared by the CLI and the jobs
   manifest. *)

let all () =
  [ Alvinn.workload; Dijkstra.workload; Blackscholes.workload; Swaptions.workload;
    Enc_md5.workload ]

let names () = List.map (fun (w : Workload.t) -> w.name) (all ())

let find name = List.find_opt (fun (w : Workload.t) -> w.name = name) (all ())

let lookup name =
  match find name with
  | Some w -> Ok w
  | None ->
    Error
      (Printf.sprintf "unknown workload %S (have: %s)" name
         (String.concat ", " (names ())))

let find_exn name =
  match lookup name with Ok w -> w | Error msg -> invalid_arg msg
