(* Execution-time profiler: per-loop invocation, trip and cycle
   totals, with a per-loop stack of entry cycle counts for nested
   (recursive) invocations.  {!Profiler} passes the cycle count at
   loop entry and exit, so this consumer never reads interpreter
   state. *)

type stat = {
  mutable invocations : int;
  mutable trips : int;
  mutable cycles : int;
  mutable enter_cycles : int list;
}

type t = { stats : (int, stat) Hashtbl.t }

let create () = { stats = Hashtbl.create 16 }

let stat_of p loop =
  match Hashtbl.find_opt p.stats loop with
  | Some s -> s
  | None ->
    let s = { invocations = 0; trips = 0; cycles = 0; enter_cycles = [] } in
    Hashtbl.replace p.stats loop s;
    s

let on_enter p loop cycles =
  let s = stat_of p loop in
  s.invocations <- s.invocations + 1;
  s.enter_cycles <- cycles :: s.enter_cycles

let on_exit p loop trips cycles =
  let s = stat_of p loop in
  s.trips <- s.trips + trips;
  match s.enter_cycles with
  | enter :: rest ->
    s.enter_cycles <- rest;
    s.cycles <- s.cycles + (cycles - enter)
  | [] -> ()

let loop_summary p loop =
  match Hashtbl.find_opt p.stats loop with
  | None -> None
  | Some s ->
    Some
      { Profile_types.loop_invocations = s.invocations; loop_trips = s.trips;
        loop_cycles = s.cycles }

let loops_by_weight p =
  Hashtbl.fold (fun l s acc -> (l, s.cycles) :: acc) p.stats []
  |> List.sort (fun (la, a) (lb, b) ->
         match compare b a with 0 -> compare la lb | c -> c)
