(* The golden simulated surface: per benchmark job, the sequential and
   parallel simulated cycles, a digest of the program output and the
   job server's determinism fingerprint.

   Goldens live in one tab-separated file, one line per job:

     workload  seed  job  seq_cycles  par_cycles  output_md5  fingerprint

   [seed] is ["any"] for a workload whose inputs do not depend on the
   seed.  The file changes only through the benchmark's explicit
   regenerate switch.  For a seed with no stored goldens the first
   run of each job in the process is its reference, so later runs of
   the same job must still repeat it exactly. *)

type entry = {
  seq_cycles : int;
  par_cycles : int;
  output_md5 : string;
  fingerprint : string;
}

type line = { workload : string; seed : string; job : string; entry : entry }

let load path =
  if not (Sys.file_exists path) then []
  else
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter_map (fun l ->
           if l = "" || l.[0] = '#' then None
           else
             match String.split_on_char '\t' l with
             | [ workload; seed; job; sc; pc; output_md5; fingerprint ] ->
               Some
                 { workload; seed; job;
                   entry =
                     { seq_cycles = int_of_string sc; par_cycles = int_of_string pc;
                       output_md5; fingerprint } }
             | _ -> failwith (Printf.sprintf "%s: malformed golden line %S" path l))

let header =
  "# perfbench goldens: workload, seed, job, seq_cycles, par_cycles, output md5, \
   fingerprint.\n\
   # Written only by `python3 perfbench/run.py --regenerate-goldens ...`.\n"

(* Replace the lines of (workload, seed) and keep every other line. *)
let save path ~workload ~seed (jobs : (string * entry) list) =
  let kept =
    List.filter (fun l -> not (l.workload = workload && l.seed = seed)) (load path)
  in
  let fresh = List.map (fun (job, entry) -> { workload; seed; job; entry }) jobs in
  Out_channel.with_open_text path (fun oc ->
      output_string oc header;
      List.iter
        (fun l ->
          Printf.fprintf oc "%s\t%s\t%s\t%d\t%d\t%s\t%s\n" l.workload l.seed l.job
            l.entry.seq_cycles l.entry.par_cycles l.entry.output_md5 l.entry.fingerprint)
        (List.sort compare (kept @ fresh)))

type checker = {
  stored : (string, entry) Hashtbl.t;
  seen : (string, entry) Hashtbl.t;
  mutable mismatches : string list;
}

(* [path = None] ignores the stored goldens: the regenerate switch
   records afresh. *)
let checker path ~workload ~seed =
  let stored = Hashtbl.create 256 in
  Option.iter
    (fun path ->
      List.iter
        (fun l ->
          if l.workload = workload && l.seed = seed then Hashtbl.replace stored l.job l.entry)
        (load path))
    path;
  { stored; seen = Hashtbl.create 256; mismatches = [] }

let mode c = if Hashtbl.length c.stored > 0 then "stored" else "self"

let describe e =
  Printf.sprintf "seq %d par %d out %s fp %s" e.seq_cycles e.par_cycles e.output_md5
    e.fingerprint

(* [true] when [entry] matches the job's reference. *)
let check c ~job entry =
  let reference =
    if Hashtbl.length c.stored > 0 then Hashtbl.find_opt c.stored job
    else Hashtbl.find_opt c.seen job
  in
  if not (Hashtbl.mem c.seen job) then Hashtbl.replace c.seen job entry;
  match reference with
  | Some r when r = entry -> true
  | None when Hashtbl.length c.stored = 0 -> true
  | Some r ->
    c.mismatches <-
      Printf.sprintf "%s: got %s, golden %s" job (describe entry) (describe r)
      :: c.mismatches;
    false
  | None ->
    c.mismatches <- Printf.sprintf "%s: no golden entry" job :: c.mismatches;
    false

(* Every job seen so far, for the regenerate switch. *)
let seen c = Hashtbl.fold (fun job e acc -> (job, e) :: acc) c.seen [] |> List.sort compare
