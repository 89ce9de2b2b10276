(* Property-based tests (qcheck via QCheck_alcotest).

   Each property targets a core invariant of the system:
   - the interval map behaves like a naive model;
   - the allocator never hands out overlapping live ranges and always
     stays within its heap's tagged range;
   - copy-on-write snapshots are bidirectionally isolated under random
     write sequences;
   - the shadow metadata machine agrees with an oracle that tracks
     the full access history of a byte (the privatization criterion);
   - randomly generated privatizable loop programs execute identically
     under the speculative parallel runtime and sequentially. *)

open Privateer_support

let count = 200

(* ---- interval map vs naive model --------------------------------------- *)

type im_op = Insert of int * int | RemoveStart of int | Query of int

let im_op_gen =
  QCheck.Gen.(
    frequency
      [ (4, map2 (fun lo len -> Insert (lo * 8, lo * 8 + 8 + (len mod 64))) (int_bound 100) (int_bound 63));
        (1, map (fun lo -> RemoveStart (lo * 8)) (int_bound 100));
        (3, map (fun a -> Query a) (int_bound 900)) ])

let im_ops_arb =
  QCheck.make ~print:(fun ops -> string_of_int (List.length ops) ^ " ops")
    QCheck.Gen.(list_size (int_bound 60) im_op_gen)

(* Naive model: list of disjoint (lo, hi, id). *)
let prop_interval_map_model ops =
  let m = Interval_map.create () in
  let model = ref [] in
  let ok = ref true in
  List.iteri
    (fun i op ->
      match op with
      | Insert (lo, hi) ->
        Interval_map.insert m lo hi i;
        model := (lo, hi, i) :: List.filter (fun (l, h, _) -> h <= lo || l >= hi) !model
      | RemoveStart lo -> (
        let got = Interval_map.remove_start m lo in
        let want = List.find_opt (fun (l, _, _) -> l = lo) !model in
        model := List.filter (fun (l, _, _) -> l <> lo) !model;
        match (got, want) with
        | Some (h, v), Some (_, h', v') -> if h <> h' || v <> v' then ok := false
        | None, None -> ()
        | _ -> ok := false)
      | Query a -> (
        let got = Interval_map.find_opt m a in
        let want = List.find_opt (fun (l, h, _) -> l <= a && a < h) !model in
        match (got, want) with
        | Some (l, h, v), Some (l', h', v') ->
          if l <> l' || h <> h' || v <> v' then ok := false
        | None, None -> ()
        | _ -> ok := false))
    ops;
  !ok && Interval_map.well_formed m

(* ---- allocator --------------------------------------------------------- *)

let alloc_script_arb =
  (* positive = alloc of that many bytes; negative = free the n-th
     oldest live allocation. *)
  QCheck.make
    ~print:(fun l -> String.concat ";" (List.map string_of_int l))
    QCheck.Gen.(list_size (int_bound 80) (map (fun n -> (n mod 120) - 20) nat))

let prop_allocator_no_overlap script =
  let open Privateer_machine in
  let a = Allocator.create Privateer_ir.Heap.Private in
  let live = ref [] in
  let ok = ref true in
  List.iter
    (fun n ->
      if n >= 0 then begin
        let size = max 1 n in
        let addr = Allocator.alloc a size in
        if not (Privateer_ir.Heap.check addr Privateer_ir.Heap.Private) then ok := false;
        (* no overlap with any live range *)
        List.iter
          (fun (base, sz) ->
            if addr < base + sz && base < addr + size then ok := false)
          !live;
        live := (addr, size) :: !live
      end
      else begin
        match !live with
        | [] -> ()
        | (base, _) :: rest ->
          ignore (Allocator.free a base);
          live := rest
      end)
    script;
  !ok && Allocator.live_count a = List.length !live

(* ---- COW isolation ------------------------------------------------------ *)

let cow_script_arb =
  QCheck.make
    ~print:(fun l -> string_of_int (List.length l) ^ " writes")
    QCheck.Gen.(list_size (int_bound 120) (pair (int_bound 5000) (int_bound 255)))

let prop_cow_isolation writes =
  let open Privateer_machine in
  let parent = Memory.create () in
  (* Seed the parent with every other write. *)
  List.iteri (fun i (a, v) -> if i mod 2 = 0 then Memory.write_byte parent a v) writes;
  let child = Memory.snapshot parent in
  (* Divergent writes on both sides. *)
  List.iteri
    (fun i (a, v) ->
      if i mod 3 = 0 then Memory.write_byte child a ((v + 1) land 0xff)
      else if i mod 3 = 1 then Memory.write_byte parent a ((v + 2) land 0xff))
    writes;
  (* Replay both sides against reference hashtables. *)
  let ref_parent = Hashtbl.create 64 and ref_child = Hashtbl.create 64 in
  List.iteri (fun i (a, v) -> if i mod 2 = 0 then Hashtbl.replace ref_parent a v) writes;
  Hashtbl.iter (fun a v -> Hashtbl.replace ref_child a v) ref_parent;
  List.iteri
    (fun i (a, v) ->
      if i mod 3 = 0 then Hashtbl.replace ref_child a ((v + 1) land 0xff)
      else if i mod 3 = 1 then Hashtbl.replace ref_parent a ((v + 2) land 0xff))
    writes;
  List.for_all
    (fun (a, _) ->
      Memory.read_byte parent a = Option.value (Hashtbl.find_opt ref_parent a) ~default:0
      && Memory.read_byte child a = Option.value (Hashtbl.find_opt ref_child a) ~default:0)
    writes

(* ---- shadow machine vs history oracle ----------------------------------- *)

(* A byte's access history within one checkpoint interval: list of
   (iteration, op).  The oracle decides validity from the paper's
   privatization criterion directly. *)
type acc = { it : int; write : bool }

let history_arb =
  QCheck.make
    ~print:(fun l ->
      String.concat ","
        (List.map (fun a -> Printf.sprintf "%s@%d" (if a.write then "W" else "R") a.it) l))
    QCheck.Gen.(
      list_size (int_bound 20)
        (map2 (fun it w -> { it; write = w }) (int_bound 12) bool))

(* Sort accesses by iteration (stable), as execution would produce
   them; then both machine and oracle consume them in order. *)
let prop_shadow_vs_oracle history =
  let history = List.stable_sort (fun a b -> compare a.it b.it) history in
  (* Machine verdict. *)
  let open Privateer_runtime in
  let meta = ref Shadow.live_in in
  let machine_fail = ref None in
  List.iteri
    (fun idx a ->
      if !machine_fail = None then begin
        let beta = Shadow.timestamp ~iter:a.it ~interval_start:0 in
        match
          Shadow.transition (if a.write then Shadow.Write else Shadow.Read)
            ~current:!meta ~beta
        with
        | Shadow.Keep -> ()
        | Shadow.Update m -> meta := m
        | Shadow.Fail _ -> machine_fail := Some idx
      end)
    history;
  (* Oracle: the first failure index under the paper's rules:
     - a read in iteration j of a byte last written in iteration i<j
       violates privacy;
     - a read of a never-written byte is a live-in read; a LATER write
       (in any iteration) after some live-in read is flagged
       conservatively (the one-byte metadata design);
     - intra-iteration write->read is fine. *)
  let oracle_fail = ref None in
  let last_write = ref None in
  let read_live_in = ref false in
  List.iteri
    (fun idx a ->
      if !oracle_fail = None then
        if a.write then begin
          if !read_live_in then oracle_fail := Some idx else last_write := Some a.it
        end
        else
          match !last_write with
          | None -> read_live_in := true
          | Some w when w = a.it -> ()
          | Some _ -> oracle_fail := Some idx)
    history;
  !machine_fail = !oracle_fail

(* ---- range-granular shadow access vs per-byte reference ----------------- *)

(* The refactored Shadow.access resolves pages per contiguous run and
   keeps per-page summary flags; Shadow_reference retains the original
   per-byte implementation.  Under random op/addr/size/beta sequences
   (addresses biased to straddle page boundaries, occasional interval
   resets to stress the flag-driven reset path) both must produce the
   same verdicts at the same op index and byte-identical metadata.

   Both implementations satisfy [Shadow_sig.S], so the op-list driver
   is a functor over the signature: the same workload replays against
   any implementation, and [test_host_parallel] reuses the instances
   to pin the full-page reset against the oracle. *)
type sh_op = Access of { write : bool; off : int; size : int; beta : int } | Reset

module Shadow_equiv (S : Privateer_oracle.Shadow_sig.S) = struct
  (* Replay [ops] on a fresh machine through [S]; returns the machine
     and the first failure (op index + structural misspec reason). *)
  let run ops =
    let open Privateer_machine in
    let open Privateer_runtime in
    let base = Privateer_ir.Heap.base Privateer_ir.Heap.Private in
    let m = Machine.create () in
    let fail = ref None in
    List.iteri
      (fun idx op ->
        if !fail = None then
          match op with
          | Reset -> ignore (S.reset_interval m)
          | Access a -> (
            try
              S.access m
                (if a.write then Shadow.Write else Shadow.Read)
                ~addr:(base + a.off) ~size:a.size ~beta:a.beta
            with Misspec.Misspeculation r -> fail := Some (idx, r)))
      ops;
    (m, !fail)
end

module Run_shadow = Shadow_equiv (Privateer_runtime.Shadow)
module Run_reference = Shadow_equiv (Privateer_oracle.Shadow_reference)

let sh_op_gen =
  QCheck.Gen.(
    let page = 4096 in
    let off_gen =
      oneof
        [ int_bound (3 * page);
          map (fun d -> page - 20 + d) (int_bound 40);
          map (fun d -> (2 * page) - 20 + d) (int_bound 40) ]
    in
    frequency
      [ ( 9,
          map2
            (fun (w, off) (size, beta) -> Access { write = w; off; size; beta })
            (pair bool off_gen)
            (pair (int_range 1 64) (int_range 3 250)) );
        (1, return Reset) ])

let sh_ops_arb =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | Access a ->
               Printf.sprintf "%s@%d+%d b%d" (if a.write then "W" else "R") a.off a.size
                 a.beta
             | Reset -> "RESET")
           ops))
    QCheck.Gen.(list_size (int_bound 40) sh_op_gen)

let prop_range_access_matches_reference ops =
  let open Privateer_machine in
  let m_new, f_new = Run_shadow.run ops in
  let m_ref, f_ref = Run_reference.run ops in
  (* Same failing op index and structurally equal verdict (Misspec
     reasons are pure data), and byte-identical memories afterwards. *)
  f_new = f_ref && Memory.equal_footprint m_new.Machine.mem m_ref.Machine.mem

(* ---- random privatizable programs --------------------------------------- *)

(* Generate a loop body from templates that reuse a global scratch
   array (privatization), a per-iteration malloc (short-lived), and an
   output array write, then check sequential/parallel equivalence.
   Some generated bodies have real loop-carried dependences (e.g.
   reading scratch before writing it); for those, selection must
   reject the loop, which is also a pass. *)
type tmpl = Fill of int | ReadSum | Node of int | OutWrite | PrintIter

let tmpl_gen =
  QCheck.Gen.(
    frequency
      [ (3, map (fun k -> Fill k) (int_bound 7)); (2, return ReadSum);
        (2, map (fun k -> Node k) (int_bound 9)); (3, return OutWrite);
        (1, return PrintIter) ])

let body_arb =
  QCheck.make
    ~print:(fun l -> string_of_int (List.length l) ^ " stmts")
    QCheck.Gen.(list_size (int_range 1 6) tmpl_gen)

let program_of_templates tmpls =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "global scratch[8]; global out[40];\nfn main() {\n";
  Buffer.add_string buf "  for (k = 0; k < 40) {\n    var s = k;\n";
  List.iteri
    (fun i t ->
      match t with
      | Fill n ->
        Buffer.add_string buf
          (Printf.sprintf "    scratch[%d] = k * %d + %d;\n" (n mod 8) (i + 1) i)
      | ReadSum ->
        Buffer.add_string buf
          (Printf.sprintf "    s = s + scratch[%d];\n" (i mod 8))
      | Node n ->
        Buffer.add_string buf
          (Printf.sprintf
             "    var p%d = malloc(2);\n    p%d[0] = k + %d;\n    s = s + p%d[0];\n    free(p%d);\n"
             i i n i i)
      | OutWrite -> Buffer.add_string buf (Printf.sprintf "    out[k] = s + %d;\n" i)
      | PrintIter -> Buffer.add_string buf "    print(\"%d \", s);\n")
    tmpls;
  Buffer.add_string buf "  }\n  var total = 0;\n";
  Buffer.add_string buf "  for (q = 0; q < 40) { total = total + out[q]; }\n";
  Buffer.add_string buf "  print(\"= %d\\n\", total);\n  return total;\n}\n";
  Buffer.contents buf

let prop_random_privatizable_equivalence tmpls =
  let src = program_of_templates tmpls in
  let program = Privateer.Pipeline.parse src in
  let tr, _ = Privateer.Pipeline.compile program in
  let seq = Privateer.Pipeline.run_sequential program in
  let config = { Privateer_parallel.Runtime_config.default with workers = 5 } in
  let par = Privateer.Pipeline.run_parallel ~config tr in
  String.equal seq.seq_output par.par_output
  && Privateer_interp.Value.equal seq.seq_result par.par_result

(* The same property under injected misspeculation: recovery must
   never change observable behaviour. *)
let prop_random_equivalence_with_misspec tmpls =
  let src = program_of_templates tmpls in
  let program = Privateer.Pipeline.parse src in
  let tr, _ = Privateer.Pipeline.compile program in
  let seq = Privateer.Pipeline.run_sequential program in
  let config =
    { Privateer_parallel.Runtime_config.default with workers = 3;
      inject = Some (fun iter -> iter mod 11 = 7) }
  in
  let par = Privateer.Pipeline.run_parallel ~config tr in
  String.equal seq.seq_output par.par_output

(* ---- parser totality ----------------------------------------------------- *)

let prop_pp_total tmpls =
  (* Pretty-printing and validation never raise on generated
     programs, before or after transformation. *)
  let src = program_of_templates tmpls in
  let program = Privateer.Pipeline.parse src in
  let tr, _ = Privateer.Pipeline.compile program in
  String.length (Privateer_ir.Pp.program_str program) > 0
  && String.length (Privateer_ir.Pp.program_str tr.program) > 0
  && Privateer_ir.Validate.check tr.program = []

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ QCheck.Test.make ~count ~name:"interval map matches naive model" im_ops_arb
        prop_interval_map_model;
      QCheck.Test.make ~count ~name:"allocator: live ranges disjoint + tagged"
        alloc_script_arb prop_allocator_no_overlap;
      QCheck.Test.make ~count ~name:"COW snapshots isolated" cow_script_arb
        prop_cow_isolation;
      QCheck.Test.make ~count:500 ~name:"shadow machine = history oracle" history_arb
        prop_shadow_vs_oracle;
      QCheck.Test.make ~count:300 ~name:"range-granular access = per-byte reference"
        sh_ops_arb prop_range_access_matches_reference;
      QCheck.Test.make ~count:60 ~name:"random privatizable loops: par = seq" body_arb
        prop_random_privatizable_equivalence;
      QCheck.Test.make ~count:30 ~name:"random loops + misspec: par = seq" body_arb
        prop_random_equivalence_with_misspec;
      QCheck.Test.make ~count:40 ~name:"pp/validate total on generated programs"
        body_arb prop_pp_total ]
