(* Seeded synthetic Cmini scenario generator (see the .mli and
   docs/SCENARIOS.md).

   Shape of every generated program: a read-only [data] table filled
   once, then [loops] independent hot loops.  Each hot loop writes a
   private [conf<l>] slot and [reuse] private [scratch<l>] slots, reads
   one of the slots it just wrote (intra-iteration flow: privatizable),
   allocates and frees a short-lived node, folds [data] into a local,
   updates 0..3 memory-reduction arrays (sum / xor / or — the
   associative-commutative ops the classifier recognizes; min/max are
   interpreter builtins, not recognized reductions, so they would
   declassify the loop) and a register reduction, and writes a private
   [out<l>] slot.

   Planted conflicts use a dedicated channel array [cfl<l>],
   initialized to a per-loop constant before the hot loops.  Every
   [m]-th iteration pair exercises it:

     if ((k + delta) %% m == offs) cfl[((k + delta) / m) %% CS] = C;
     if (k %% m == offs)           s = s + cfl[(k / m) %% CS];

   With [delta = 0] (the train input) writer and reader coincide in
   one iteration — an intra-iteration flow, so profiling classifies
   the channel privatizable.  With [delta = 1] (ref/alt) the writer
   moves to the previous iteration: a genuine cross-iteration flow.
   The runtime detects it when writer and reader share a worker
   (inline shadow: timestamp or old-write read) or share a checkpoint
   interval on different workers (phase-2 writer-index probe); a
   cross-worker flow that straddles an interval boundary is invisible
   to the per-interval index and the reader keeps its snapshot value.
   The write therefore stores the SAME constant the channel was
   initialized with — every read yields [C] on every path, so the
   committed output equals the sequential output at any worker count
   while the metadata-driven squashes still fire.  At workers = 1
   every planted pair lands on one machine and is detected inline,
   making the misspeculation count exactly [expected_misspecs].  Both
   branches execute on every input (delta only shifts the writer), so
   control speculation never prunes them and the planted rate is
   governed by [m] alone. *)

module Rng = Privateer_support.Rng
module Workload = Privateer_workloads.Workload

type knobs = {
  k_seed : int;
  k_loops : int;
  k_trip : int;
  k_heap : int;
  k_reuse : int;
  k_redux : float;
  k_misspec : float;
}

let default_knobs =
  { k_seed = 1; k_loops = 1; k_trip = 64; k_heap = 64; k_reuse = 4; k_redux = 0.5;
    k_misspec = 0.0 }

(* Fixed array geometry (documented in docs/SCENARIOS.md). *)
let conf_slots = 32
let out_slots = 256
let red_slots = 16
let data_slots = 128
let scenario_max_scale = 8

(* Conflict-channel width: ideally no slot is reused within one
   invocation (a machine that read a slot as live-in must not write it
   later in the same cohort, or the conservative write-after-read rule
   fires a spurious squash), so size the channel for the largest ref
   input [trip * scenario_max_scale], capped at 4096 slots.  Beyond
   the cap (n > 4096 * m) reuse is possible and the realized count may
   exceed the planted one; the output stays correct either way. *)
let max_cfl_slots = 4096

let cfl_slots ~trip ~m =
  min max_cfl_slots (max conf_slots (((trip * scenario_max_scale) + m - 1) / m) + 1)

(* Per-loop constant the channel holds on every path. *)
let cfl_base l = 640 + (17 * l)

let validate k =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  if k.k_seed < 0 then err "seed must be >= 0, got %d" k.k_seed
  else if k.k_loops < 1 || k.k_loops > 8 then err "loops must be in 1..8, got %d" k.k_loops
  else if k.k_trip < 8 || k.k_trip > 65536 then
    err "trip must be in 8..65536, got %d" k.k_trip
  else if k.k_heap < 1 || k.k_heap > 65536 then
    err "heap must be in 1..65536, got %d" k.k_heap
  else if k.k_reuse < 1 || k.k_reuse > 64 then
    err "reuse must be in 1..64, got %d" k.k_reuse
  else if not (k.k_redux >= 0.0 && k.k_redux <= 1.0) then
    err "redux must be in [0, 1], got %g" k.k_redux
  else if not (k.k_misspec = 0.0 || (k.k_misspec >= 0.01 && k.k_misspec <= 0.2)) then
    err "misspec must be 0 or in [0.01, 0.2], got %g" k.k_misspec
  else Ok k

let spec_of_knobs k =
  Printf.sprintf "seed=%d,loops=%d,trip=%d,heap=%d,reuse=%d,redux=%.3f,misspec=%.3f"
    k.k_seed k.k_loops k.k_trip k.k_heap k.k_reuse k.k_redux k.k_misspec

let knobs_of_spec spec =
  let parse_field acc field =
    match acc with
    | Error _ as e -> e
    | Ok k -> (
      match String.index_opt field '=' with
      | None -> Error (Printf.sprintf "bad scenario field %S (want key=value)" field)
      | Some i -> (
        let key = String.sub field 0 i in
        let v = String.sub field (i + 1) (String.length field - i - 1) in
        let int_v f =
          match int_of_string_opt v with
          | Some n -> Ok (f n)
          | None -> Error (Printf.sprintf "scenario %s: expected an integer, got %S" key v)
        in
        let float_v f =
          match float_of_string_opt v with
          | Some x -> Ok (f x)
          | None -> Error (Printf.sprintf "scenario %s: expected a number, got %S" key v)
        in
        match key with
        | "seed" -> int_v (fun n -> { k with k_seed = n })
        | "loops" -> int_v (fun n -> { k with k_loops = n })
        | "trip" -> int_v (fun n -> { k with k_trip = n })
        | "heap" -> int_v (fun n -> { k with k_heap = n })
        | "reuse" -> int_v (fun n -> { k with k_reuse = n })
        | "redux" -> float_v (fun x -> { k with k_redux = x })
        | "misspec" -> float_v (fun x -> { k with k_misspec = x })
        | _ ->
          Error
            (Printf.sprintf
               "unknown scenario knob %S (seed|loops|trip|heap|reuse|redux|misspec)" key)))
  in
  let fields =
    String.split_on_char ',' (String.trim spec)
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  if fields = [] then Error "empty scenario spec"
  else
    match List.fold_left parse_field (Ok default_knobs) fields with
    | Error _ as e -> e
    | Ok k -> validate k

type expect = {
  x_private : string list;
  x_redux : string list;
  x_readonly : string list;
  x_hot_loops : int;
}

type t = {
  sc_knobs : knobs;
  sc_name : string;
  sc_source : string;
  sc_expect : expect;
  sc_conflict_period : int option;
  sc_conflict_offsets : int list;
  sc_workload : Workload.t;
}

(* Per-loop shape choices, all drawn from the seeded Rng. *)
type loop_shape = {
  l_mult : int;  (* value-mixing multiplier *)
  l_stride : int;  (* scratch-slot stride *)
  l_ostride : int;  (* out-slot stride *)
  l_dphase : int;  (* data-read phase *)
  l_offs : int;  (* conflict phase, 1..7 *)
  l_ops : (string * string) list;  (* reduction (suffix, operator) mix *)
}

let redux_pool = [ ("sum", "+"); ("xor", "^"); ("or", "|") ]

let draw_shape rng ~rcount ~max_offs =
  let pick arr = arr.(Rng.int rng (Array.length arr)) in
  let l_mult = pick [| 3; 5; 7; 11; 13 |] in
  let l_stride = pick [| 1; 3; 5; 7 |] in
  let l_ostride = pick [| 1; 3; 5 |] in
  let l_dphase = Rng.int rng data_slots in
  (* The conflict phase must stay below the period or the planted
     guard can never fire; max_offs = min 7 (m - 1). *)
  let l_offs = 1 + Rng.int rng max_offs in
  (* Rotate the op pool by a random amount, then keep [rcount] ops. *)
  let rot = Rng.int rng (List.length redux_pool) in
  let rotated =
    List.mapi (fun i _ -> List.nth redux_pool ((i + rot) mod List.length redux_pool))
      redux_pool
  in
  let l_ops = List.filteri (fun i _ -> i < rcount) rotated in
  { l_mult; l_stride; l_ostride; l_dphase; l_offs; l_ops }

let conflict_period k =
  if k.k_misspec <= 0.0 then None
  else Some (max 5 (int_of_float (Float.round (1.0 /. k.k_misspec))))

let emit_source knobs shapes period =
  let b = Buffer.create 4096 in
  let out fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  out "// generated scenario: %s\n" (spec_of_knobs knobs);
  out "global n;\nglobal delta;\nglobal gseed;\n";
  out "global data[%d];\n" data_slots;
  let cs =
    match period with Some m -> cfl_slots ~trip:knobs.k_trip ~m | None -> 0
  in
  List.iteri
    (fun l (sh : loop_shape) ->
      out "global scratch%d[%d];\n" l knobs.k_heap;
      out "global conf%d[%d];\n" l conf_slots;
      out "global out%d[%d];\n" l out_slots;
      if cs > 0 then out "global cfl%d[%d];\n" l cs;
      List.iter (fun (sfx, _) -> out "global racc%d_%s[%d];\n" l sfx red_slots) sh.l_ops)
    shapes;
  out "\nfn main() {\n";
  (* The init loops below carry a multiply-add recurrence on a local,
     so loop selection REJECTS them (like the checksum loops): they
     must run sequentially, never compete with the hot loops for
     weight, and never plan conflicting site->heap assignments — a
     selected data-init writes [data] privately and would evict every
     hot loop (which needs [data] read-only) from the greedy pick when
     a small train trip count makes the hot loops lighter. *)
  out "  var dv = gseed;\n";
  out "  for (iz = 0; iz < %d) {\n" data_slots;
  out "    dv = (dv * 1103515245 + 12345) %% 1000003;\n";
  out "    data[iz] = dv;\n";
  out "  }\n";
  (* Pre-fill every conflict channel with its constant so an
     undetected cross-interval read (the reader's snapshot value)
     still observes what the sequential run would.  [cq] only forces
     the carried dependence; the stored value stays the constant. *)
  if cs > 0 then begin
    out "  var cq = gseed + 5;\n";
    List.iteri
      (fun l _ ->
        out "  for (ci%d = 0; ci%d < %d) {\n" l l cs;
        out "    cq = (cq * 1103515245 + 12345) %% 65536;\n";
        out "    cfl%d[ci%d] = %d;\n" l l (cfl_base l);
        out "  }\n")
      shapes
  end;
  (* Loop bounds must be loop-invariant locals (a global bound reads
     as loop-variant to the analysis), like the five ports do. *)
  out "  var nn = n;\n";
  List.iteri
    (fun l (sh : loop_shape) ->
      let k = Printf.sprintf "k%d" l in
      out "  var acc%d = 0;\n" l;
      out "  for (%s = 0; %s < nn) {\n" k k;
      out "    var s = (%s * %d + gseed) %% 8191;\n" k sh.l_mult;
      out "    conf%d[%s %% %d] = s + %s;\n" l k conf_slots k;
      for d = 0 to knobs.k_reuse - 1 do
        out "    scratch%d[(%s * %d + %d) %% %d] = s + %d;\n" l k sh.l_stride d
          knobs.k_heap (7 * d)
      done;
      out "    s = s + scratch%d[(%s * %d) %% %d];\n" l k sh.l_stride knobs.k_heap;
      out "    var p%d = malloc(2);\n" l;
      out "    p%d[0] = s & 255;\n" l;
      out "    p%d[1] = %s + 1;\n" l k;
      out "    s = s + p%d[0] + p%d[1] * 3;\n" l l;
      out "    free(p%d);\n" l;
      out "    s = s + data[(%s * 7 + %d) %% %d];\n" k sh.l_dphase data_slots;
      List.iter
        (fun (sfx, op) ->
          let mask = match sfx with "sum" -> 1023 | "xor" -> 255 | _ -> 65535 in
          out "    racc%d_%s[%s %% %d] = racc%d_%s[%s %% %d] %s (s & %d);\n" l sfx k
            red_slots l sfx k red_slots op mask)
        sh.l_ops;
      out "    acc%d = acc%d + (s & 7);\n" l l;
      (match period with
      | None -> ()
      | Some m ->
        out "    if ((%s + delta) %% %d == %d) {\n" k m sh.l_offs;
        out "      cfl%d[((%s + delta) / %d) %% %d] = %d;\n" l k m cs (cfl_base l);
        out "    }\n";
        out "    if (%s %% %d == %d) {\n" k m sh.l_offs;
        out "      s = s + cfl%d[(%s / %d) %% %d];\n" l k m cs;
        out "    }\n");
      out "    out%d[(%s * %d + %d) %% %d] = s;\n" l k sh.l_ostride l out_slots;
      out "  }\n";
      out "  print(\"loop %d acc %%d\\n\", acc%d);\n" l l)
    shapes;
  out "  var cs = 0;\n";
  List.iteri
    (fun l (sh : loop_shape) ->
      out "  for (cv%d = 0; cv%d < %d) {\n" l l out_slots;
      out "    cs = (cs * 31 + out%d[cv%d]) %% 1000000007;\n" l l;
      out "  }\n";
      List.iter
        (fun (sfx, _) ->
          out "  for (cr%d%s = 0; cr%d%s < %d) {\n" l sfx l sfx red_slots;
          out "    cs = (cs * 33 + racc%d_%s[cr%d%s]) %% 1000000007;\n" l sfx l sfx;
          out "  }\n")
        sh.l_ops)
    shapes;
  out "  print(\"checksum %%d\\n\", cs);\n";
  out "  return 0;\n}\n";
  Buffer.contents b

let generate knobs =
  (match validate knobs with
  | Ok _ -> ()
  | Error msg -> invalid_arg ("Scenario_gen.generate: " ^ msg));
  let rng = Rng.create ((knobs.k_seed * 2654435761) lxor 0x5ce) in
  let rcount = int_of_float (Float.round (knobs.k_redux *. 3.0)) in
  let period = conflict_period knobs in
  let max_offs = match period with Some m -> min 7 (m - 1) | None -> 7 in
  let shapes = List.init knobs.k_loops (fun _ -> draw_shape rng ~rcount ~max_offs) in
  let source = emit_source knobs shapes period in
  let name = "scenario:" ^ spec_of_knobs knobs in
  let expect =
    { x_private =
        List.concat
          (List.mapi
             (fun l _ ->
               [ Printf.sprintf "scratch%d" l; Printf.sprintf "conf%d" l;
                 Printf.sprintf "out%d" l ]
               @ if period = None then [] else [ Printf.sprintf "cfl%d" l ])
             shapes);
      x_redux =
        List.concat
          (List.mapi
             (fun l (sh : loop_shape) ->
               List.map (fun (sfx, _) -> Printf.sprintf "racc%d_%s" l sfx) sh.l_ops)
             shapes);
      x_readonly = [ "data"; "gseed"; "n"; "delta" ];
      x_hot_loops = knobs.k_loops }
  in
  let trip = knobs.k_trip in
  let workload =
    Workload.make ~name
      ~description:
        (Printf.sprintf "generated scenario (%d loop%s, trip %d, misspec %.3f)"
           knobs.k_loops
           (if knobs.k_loops = 1 then "" else "s")
           trip knobs.k_misspec)
      ~source ~max_scale:scenario_max_scale
      (fun input ~scale ->
        match input with
        | Workload.Train ->
          [ ("n", max 8 (trip / 4)); ("delta", 0); ("gseed", knobs.k_seed + 11) ]
        | Workload.Ref -> [ ("n", trip * scale); ("delta", 1); ("gseed", knobs.k_seed + 11) ]
        | Workload.Alt ->
          [ ("n", max 8 (trip / 2)); ("delta", 1); ("gseed", knobs.k_seed + 23) ])
  in
  { sc_knobs = knobs; sc_name = name; sc_source = source; sc_expect = expect;
    sc_conflict_period = period;
    sc_conflict_offsets = List.map (fun (sh : loop_shape) -> sh.l_offs) shapes;
    sc_workload = workload }

let conflict_iterations t ~loop ~n =
  match t.sc_conflict_period with
  | None -> []
  | Some m ->
    let offs = List.nth t.sc_conflict_offsets loop in
    let rec collect k acc = if k >= n then List.rev acc else collect (k + m) (k :: acc) in
    collect offs []

(* At workers = 1 every planted reader iteration squashes exactly once
   (the pair shares a machine, so the inline shadow catches it at any
   interval distance, and each recovery respawns the cohort with clean
   metadata), making this count exact — provided throttling is off and
   n stays within the no-reuse channel width (n <= m * cfl slots).  At
   workers >= 2 it is an upper bound: pairs split across workers AND
   across an interval boundary go undetected (and, by construction,
   still commit the sequential value). *)
let expected_misspecs t ~n =
  List.fold_left
    (fun acc loop -> acc + List.length (conflict_iterations t ~loop ~n))
    0
    (List.init (List.length t.sc_conflict_offsets) Fun.id)

let workload_of_spec spec =
  Result.map (fun k -> (generate k).sc_workload) (knobs_of_spec spec)

let corpus ~seed ~count =
  let rng = Rng.create seed in
  let pick arr = arr.(Rng.int rng (Array.length arr)) in
  List.init count (fun _ ->
      generate
        { k_seed = Rng.int rng 1_000_000;
          k_loops = 1 + Rng.int rng 2;
          k_trip = 24 + (8 * Rng.int rng 6);
          k_heap = 16 * (1 + Rng.int rng 8);
          k_reuse = 1 + Rng.int rng 6;
          k_redux = pick [| 0.0; 0.25; 0.5; 0.75; 1.0 |];
          k_misspec = pick [| 0.0; 0.0; 0.05; 0.1; 0.15 |] })
