(* Unit tests for the privatization transformation (paper 4.4-4.6). *)

open Privateer_ir
open Privateer_analysis
open Privateer_transform

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let compile src =
  let program = Privateer_lang.Parser.parse_program_exn src in
  let p, _ = Privateer.Pipeline.profile program in
  let selection = Selection.select program p in
  (program, Transform.apply program p selection)

let quickstart_src =
  {|global input[8]; global scratch[8]; global out[64];
fn main() {
  for (j = 0; j < 8) { input[j] = j * 3; }
  for (k = 0; k < 32) {
    var n = malloc(1);
    n[0] = k;
    for (i = 0; i < 8) { scratch[i] = input[i] + n[0]; }
    var s = 0;
    for (i2 = 0; i2 < 8) { s = s + scratch[i2]; }
    out[k] = s;
    free(n);
  }
  return 0;
}|}

let test_globals_rehomed () =
  let _, tr = compile quickstart_src in
  let heap_of g =
    match Ast.find_global tr.program g with
    | Some { gheap; _ } -> gheap
    | None -> Alcotest.fail ("no global " ^ g)
  in
  check "scratch -> private" true (heap_of "scratch" = Some Heap.Private);
  check "out -> private" true (heap_of "out" = Some Heap.Private);
  check "input -> read-only" true (heap_of "input" = Some Heap.Read_only)

let test_alloc_sites_rehomed () =
  let _, tr = compile quickstart_src in
  let found = ref None in
  List.iter
    (fun (f : Ast.func) ->
      Ast.iter_exprs
        (fun e -> match e with Ast.Alloc (_, _, heap, _) -> found := Some heap | _ -> ())
        f.body)
    tr.program.funcs;
  check "malloc redirected to short-lived heap" true
    (!found = Some (Some Heap.Short_lived))

(* Re-homing is the whole rewrite: with every global's placement and
   every allocation site's heap cleared ([rewrite_block] under an empty
   site map), the transformed program is the original, node ids and
   [next_id] included. *)
let test_only_placement_changes () =
  let program, tr = compile quickstart_src in
  let unplaced (p : Ast.program) =
    { p with
      globals = List.map (fun (g : Ast.global) -> { g with gheap = None }) p.globals;
      funcs =
        List.map
          (fun (f : Ast.func) -> { f with body = Transform.rewrite_block [] f.body })
          p.funcs }
  in
  check "placement changed" true (tr.program <> program);
  check "the original but for placement" true (unplaced tr.program = program)

let test_transformed_program_validates () =
  let _, tr = compile quickstart_src in
  check "validates" true (Validate.check tr.program = [])

let test_sequential_semantics_preserved () =
  (* The rewritten program run WITHOUT the speculative runtime must
     behave exactly like the original (allocation re-homing is
     semantically transparent). *)
  let program, tr = compile quickstart_src in
  let r1, o1 =
    let st = Privateer_interp.Interp.create program in
    let r = Privateer_interp.Interp.run_entry st in
    (r, Privateer_interp.Interp.output st)
  in
  let r2, o2 =
    let st = Privateer_interp.Interp.create tr.program in
    let r = Privateer_interp.Interp.run_entry st in
    (r, Privateer_interp.Interp.output st)
  in
  check "results equal" true (Privateer_interp.Value.equal r1 r2);
  Alcotest.(check string) "outputs equal" o1 o2

let test_manifest_checks_cover_region () =
  let _, tr = compile quickstart_src in
  check "manifest has access checks" true (Array.exists Option.is_some tr.manifest.checks);
  (* Direct global-array accesses are provable: expect elisions. *)
  check "some checks elided" true (Manifest.elided_check_count tr.manifest > 0)

let test_pointer_chase_not_elided () =
  (* When an object mixes data and pointer fields, values loaded from
     it are statically ambiguous (our points-to is field-insensitive,
     like the paper's weak static analysis), so separation checks on
     addresses derived from them must stay live — the analogue of
     Figure 2b keeping qKill's check. *)
  let _, tr =
    compile
      {|global out[64];
fn main() {
  for (k = 0; k < 32) {
    var node = malloc(2);
    node[0] = k;
    node[1] = node;          // a pointer field taints the object
    out[node[0]] = k;        // index loaded from the tainted object
    free(node);
  }
  return 0;
}|}
  in
  check "live checks remain" true (Manifest.live_check_count tr.manifest > 0);
  check "still elides the provable ones" true (Manifest.elided_check_count tr.manifest > 0)

let test_control_spec_in_manifest () =
  let program, tr =
    compile
      {|global out[16]; global err;
fn main() {
  for (i = 0; i < 16) {
    out[i] = i;
    if (i < 1000) { out[i] = out[i] + 1; } else { err = err + 1; }
  }
  return 0;
}|}
  in
  (* With no allocation site to re-home, only the globals' placement
     changes: the functions, their ids and control flow included, are
     the original's. *)
  check_int "next_id kept" program.next_id tr.program.next_id;
  check "functions unchanged" true (tr.program.funcs = program.funcs);
  check "globals unchanged but for placement" true
    (List.map (fun (g : Ast.global) -> { g with gheap = None }) tr.program.globals
    = program.globals);
  let branches = ref [] in
  List.iter
    (fun (f : Ast.func) ->
      Ast.iter_stmts
        (function Ast.If (id, _, _, _) -> branches := id :: !branches | _ -> ())
        f.body)
    program.funcs;
  match (tr.manifest.loops, !branches) with
  | [ l ], [ branch ] ->
    check "the manifest records the never-taken else side" true
      (l.assignment.control_spec = [ (branch, true) ])
  | _ -> Alcotest.fail "expected one planned loop and one branch"

let test_redux_sites_marked () =
  let _, tr =
    compile
      {|global total; global data[64];
fn main() {
  for (j = 0; j < 64) { data[j] = j; }
  total = 0;
  for (i = 0; i < 64) {
    total = total + data[i];
  }
  var x = total;
  return x;
}|}
  in
  let redux_sites =
    Manifest.count_checks tr.manifest (fun c -> c.redux_op <> None)
  in
  (* Both the load and the store of the reduction update. *)
  check_int "reduction load and store sanctioned" 2 redux_sites

let test_site_counts () =
  let _, tr = compile quickstart_src in
  let counts = Manifest.site_counts tr.manifest in
  check_int "private sites" 2 (List.assoc Heap.Private counts);
  check_int "short-lived sites" 1 (List.assoc Heap.Short_lived counts);
  check_int "read-only sites" 1 (List.assoc Heap.Read_only counts);
  check_int "redux sites" 0 (List.assoc Heap.Redux counts)

let suite =
  [ Alcotest.test_case "globals re-homed" `Quick test_globals_rehomed;
    Alcotest.test_case "allocation sites re-homed" `Quick test_alloc_sites_rehomed;
    Alcotest.test_case "only heap placement changes" `Quick test_only_placement_changes;
    Alcotest.test_case "transformed program validates" `Quick test_transformed_program_validates;
    Alcotest.test_case "sequential semantics preserved" `Quick test_sequential_semantics_preserved;
    Alcotest.test_case "manifest covers region accesses" `Quick test_manifest_checks_cover_region;
    Alcotest.test_case "pointer chase keeps live check" `Quick test_pointer_chase_not_elided;
    Alcotest.test_case "control speculation in the manifest" `Quick
      test_control_spec_in_manifest;
    Alcotest.test_case "reduction sites sanctioned" `Quick test_redux_sites_marked;
    Alcotest.test_case "Table-3 style site counts" `Quick test_site_counts ]
