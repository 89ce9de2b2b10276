(* Unit tests for the analyses: reduction recognition, footprints
   (Algorithm 2), classification (Algorithm 1), scalar classes, static
   points-to, and loop selection. *)

open Privateer_ir
open Privateer_profile
open Privateer_analysis

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let parse = Privateer_lang.Parser.parse_program_exn

let profile src =
  let program = parse src in
  let p, _ = Privateer.Pipeline.profile program in
  (program, p)

let loop_in program fname =
  match
    List.find_opt (fun ((f : Ast.func), _) -> f.fname = fname)
      (Ast.loops_of_program program)
  with
  | Some (_, (id, Ast.For (_, _, _, _, body))) -> (id, body)
  | Some (_, (id, Ast.While (_, _, body))) -> (id, body)
  | _ -> Alcotest.fail ("no loop in " ^ fname)

let names set = List.map Objname.to_string (Objname.Set.elements set)

(* ---- reduction recognition ------------------------------------------- *)

let body_of program fname =
  match Ast.find_func program fname with
  | Some f -> f.Ast.body
  | None -> Alcotest.fail ("no function " ^ fname)

let test_reduction_pairs () =
  let program =
    parse
      {|global a[4]; global b[4];
fn main() {
  a[0] = a[0] + 1;       // reduction: load op x
  a[1] = 2 + a[1];       // reduction: x op load
  b[0] = a[0] + 1;       // not: different address
  a[2] = a[2] - 1;       // not: subtraction is not assoc-comm here
  a[3] = a[3] *. 2.0;    // reduction: float multiply
  return 0;
}|}
  in
  let pairs = Reduction.pairs_in_block (body_of program "main") in
  check_int "three reduction pairs" 3 (List.length pairs);
  let ops = List.sort compare (List.map (fun (p : Reduction.pair) -> p.op) pairs) in
  check "ops" true (ops = List.sort compare [ Ast.Add; Ast.Add; Ast.Fmul ])

let test_reduction_identity_merge () =
  let open Privateer_interp.Value in
  check "add identity" true (equal (Reduction.identity_value Ast.Add) (VInt 0));
  check "mul identity" true (equal (Reduction.identity_value Ast.Mul) (VInt 1));
  check "band identity" true (equal (Reduction.identity_value Ast.Band) (VInt (-1)));
  check "fadd identity" true (equal (Reduction.identity_value Ast.Fadd) (VFloat 0.0));
  check "merge add" true (equal (Reduction.merge_values Ast.Add (VInt 3) (VInt 4)) (VInt 7));
  check "merge fmul" true
    (equal (Reduction.merge_values Ast.Fmul (VFloat 2.0) (VFloat 3.0)) (VFloat 6.0));
  check "merge bxor" true (equal (Reduction.merge_values Ast.Bxor (VInt 5) (VInt 3)) (VInt 6))

(* ---- footprint / classification --------------------------------------- *)

let test_footprint_sets () =
  let program, p =
    profile
      {|global src[8]; global dst[8]; global acc;
fn main() {
  acc = 0;
  for (i = 0; i < 8) {
    dst[i] = src[i] * 2;
    acc = acc + src[i];
  }
  return acc;
}|}
  in
  let _, body = loop_in program "main" in
  let fp = Footprint.compute program p body in
  check "src read" true (Objname.Set.mem (Objname.Global "src") fp.reads);
  check "dst written" true (Objname.Set.mem (Objname.Global "dst") fp.writes);
  check "acc is a reduction" true (Objname.Set.mem (Objname.Global "acc") fp.redux);
  check "acc not plain-read" false (Objname.Set.mem (Objname.Global "acc") fp.reads);
  check "dst not read" false (Objname.Set.mem (Objname.Global "dst") fp.reads)

let test_footprint_through_calls () =
  let program, p =
    profile
      {|global t[4];
fn helper(k) { t[k] = k; return t[k]; }
fn main() { var s = 0; for (i = 0; i < 4) { s = s + helper(i); } return s; }|}
  in
  let _, body = loop_in program "main" in
  let fp = Footprint.compute program p body in
  check "callee write visible" true (Objname.Set.mem (Objname.Global "t") fp.writes)

let test_classification_basic () =
  (* The quickstart shape: scratch reused every iteration -> private;
     input read-only; per-iteration nodes short-lived. *)
  let program, p =
    profile
      {|global input[8]; global scratch[8]; global out[64];
fn main() {
  for (j = 0; j < 8) { input[j] = j; }
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
  in
  let loop, body =
    (* the k loop is the second loop in main *)
    match Ast.loops_of_program program with
    | _ :: (_, (id, Ast.For (_, _, _, _, b))) :: _ -> (id, b)
    | _ -> Alcotest.fail "loop structure"
  in
  let a = Classify.classify program p ~loop ~body in
  check "scratch private" true (Objname.Set.mem (Objname.Global "scratch") a.priv);
  check "out private" true (Objname.Set.mem (Objname.Global "out") a.priv);
  check "input read-only" true (Objname.Set.mem (Objname.Global "input") a.read_only);
  check_int "one short-lived name" 1 (Objname.Set.cardinal a.short_lived);
  check "no unrestricted" true (Objname.Set.is_empty a.unrestricted);
  (* heap_of agrees with the sets *)
  check "heap_of scratch" true
    (Classify.heap_of a (Objname.Global "scratch") = Some Heap.Private);
  check "heap_of input" true
    (Classify.heap_of a (Objname.Global "input") = Some Heap.Read_only)

let test_classification_unrestricted () =
  let program, p =
    profile
      "global acc; fn main() { acc = 0; for (i = 0; i < 4) { acc = (acc + i) * 2; } return acc; }"
  in
  (* (acc + i) * 2 is not a pure reduction update: acc flows across
     iterations -> unrestricted. *)
  let loop, body = loop_in program "main" in
  let a = Classify.classify program p ~loop ~body in
  check "acc unrestricted" true (Objname.Set.mem (Objname.Global "acc") a.unrestricted)

let test_classification_redux_demoted_when_read () =
  (* A reduction-updated object that is ALSO read elsewhere in the
     loop fails the reduction criterion. *)
  let program, p =
    profile
      {|global acc; global out[8];
fn main() {
  acc = 0;
  for (i = 0; i < 8) {
    acc = acc + i;
    out[i] = acc;      // reads an intermediate value
  }
  return 0;
}|}
  in
  let loop, body = loop_in program "main" in
  let a = Classify.classify program p ~loop ~body in
  check "acc not redux" false (Objname.Set.mem (Objname.Global "acc") a.redux);
  check "acc unrestricted" true (Objname.Set.mem (Objname.Global "acc") a.unrestricted)

let test_value_prediction_classification () =
  (* The dijkstra handoff shape: flag always returns to 0 by iteration
     end; the cross-iteration dep carries the constant 0. *)
  let program, p =
    profile
      {|global flag; global out[16];
fn main() {
  flag = 0;
  for (i = 0; i < 16) {
    out[i] = flag;   // cross-iteration read, always 0
    flag = 1;
    flag = 0;
  }
  return 0;
}|}
  in
  let loop, body = loop_in program "main" in
  let a = Classify.classify program p ~loop ~body in
  check_int "one prediction" 1 (List.length a.predictions);
  let pr = List.hd a.predictions in
  Alcotest.(check string) "predicted global" "flag" pr.pred_global;
  check_int "predicted value" 0 pr.pred_value;
  check "dep removed: flag is private, not unrestricted" true
    (Objname.Set.mem (Objname.Global "flag") a.priv);
  check "no unrestricted" true (Objname.Set.is_empty a.unrestricted)

let test_control_speculation_requires_cold_access () =
  let program, p =
    profile
      {|global g; global err;
fn main() {
  g = 0;
  for (i = 0; i < 8) {
    if (i < 100) { g = i; } else { err = err + 1; }  // cold side: unprofiled store
    if (i >= 0) { g = g + 1; } else { g = 2; }       // cold side: unprofiled store
    if (i % 2 == 0) { g = g + 1; } else { g = g + 2; }  // mixed: both sides profiled
  }
  return g;
}|}
  in
  let loop, body = loop_in program "main" in
  let a = Classify.classify program p ~loop ~body in
  (* The two biased branches qualify (their cold sides contain
     never-executed accesses); the mixed branch never does. *)
  check_int "two control-speculated branches" 2 (List.length a.control_spec)

(* [Classify.to_string] is what `privateer plan` prints.  The
   transformed program carries no marker, so the plan names each
   speculated branch and the side its profile never took. *)
let test_plan_lists_control_speculation () =
  let plan src =
    let program, p = profile src in
    let loop, body = loop_in program "main" in
    let branches = ref [] in
    Ast.iter_stmts
      (function Ast.If (id, _, _, _) -> branches := id :: !branches | _ -> ())
      body;
    let text = Classify.to_string (Classify.classify program p ~loop ~body) in
    ( List.rev !branches,
      List.find_opt (String.starts_with ~prefix:"  predictions")
        (String.split_on_char '\n' text) )
  in
  (match
     plan
       {|global g; global err;
fn main() {
  g = 0;
  for (i = 0; i < 8) {
    if (i < 100) { g = i; } else { err = err + 1; }     // never false
    if (i < 0) { err = err - 1; } else { g = g + 1; }   // never true
    if (i % 2 == 0) { g = g + 1; } else { g = g + 2; }  // mixed
  }
  return g;
}|}
   with
  | [ never_false; never_true; _mixed ], line ->
    Alcotest.(check (option string))
      "each speculated branch and its cold side"
      (Some
         (Printf.sprintf
            "  predictions : 0, control-speculated branches: %d never false, %d never true"
            never_false never_true))
      line
  | _ -> Alcotest.fail "expected three branches");
  match
    plan
      {|global g;
fn main() {
  g = 0;
  for (i = 0; i < 8) {
    if (i % 2 == 0) { g = g + 1; } else { g = g + 2; }
  }
  return g;
}|}
  with
  | [ _ ], line ->
    Alcotest.(check (option string))
      "no speculated branch"
      (Some "  predictions : 0, control-speculated branches: none")
      line
  | _ -> Alcotest.fail "expected one branch"

(* ---- scalars ----------------------------------------------------------- *)

let classify_scalars src =
  let program = parse src in
  let _, body = loop_in program "main" in
  Scalars.classify ~induction:"i" body

let test_scalars_classes () =
  match
    classify_scalars
      {|global a[8];
fn main() {
  var livein = 3;
  var sum = 0;
  for (i = 0; i < 8) {
    var t = a[i] + livein;   // t: iteration-private
    sum = sum + t;           // sum: register reduction
    a[i] = t;
  }
  return sum;
}|}
  with
  | Scalars.Classified classes ->
    check "induction" true (List.assoc "i" classes = Scalars.Induction);
    check "private" true (List.assoc "t" classes = Scalars.Private_reg);
    check "reduction" true (List.assoc "sum" classes = Scalars.Reduction_reg Ast.Add);
    check "live-in" true (List.assoc "livein" classes = Scalars.Live_in)
  | Scalars.Rejected r -> Alcotest.fail r

let test_scalars_reject_carried () =
  (match classify_scalars "fn main() { var x = 0; for (i = 0; i < 4) { x = x * 2 + 1; } return x; }" with
  | Scalars.Rejected _ -> ()
  | Scalars.Classified _ -> Alcotest.fail "x * 2 + 1 is not a reduction update");
  match
    classify_scalars
      "global a[8]; fn main() { var s = 0; for (i = 0; i < 4) { a[i] = s; s = s + 1; } return s; }"
  with
  | Scalars.Rejected _ -> () (* s read outside its update *)
  | Scalars.Classified _ -> Alcotest.fail "s is read outside its reduction update"

let test_scalars_conditional_def_is_carried () =
  (* Defined only on one branch: may be read before defined. *)
  match
    classify_scalars
      "fn main() { var x = 0; for (i = 0; i < 4) { if (i > 2) { x = i; } x = x + 0 - x; } return x; }"
  with
  | Scalars.Rejected _ -> ()
  | Scalars.Classified _ -> Alcotest.fail "conditional def must reject"

let test_scalars_mixed_ops_reject () =
  match
    classify_scalars
      "fn main() { var s = 0; for (i = 0; i < 4) { s = s + i; s = s * 2; } return s; }"
  with
  | Scalars.Rejected _ -> ()
  | Scalars.Classified _ -> Alcotest.fail "two different update operators must reject"

(* ---- static points-to -------------------------------------------------- *)

let test_pta_precision () =
  let program =
    parse
      {|global g[4]; global cell;
fn main() {
  var p = &g;
  p[0] = 1;
  var q = malloc(2);
  cell = q;
  var r = cell;
  r[0] = 2;
  free(q);
  return 0;
}|}
  in
  let pta = Static_pta.analyze program in
  let pts e = Static_pta.points_to pta ~fname:"main" e in
  let p = pts (Ast.Local "p") in
  check "p -> {g}" true
    (Static_pta.Abs_set.equal p (Static_pta.Abs_set.singleton (Static_pta.Abs.AGlobal "g")));
  (* r is loaded from memory: flows through cell's contents. *)
  let r = pts (Ast.Local "r") in
  check "r includes the malloc site" true
    (Static_pta.Abs_set.exists
       (fun a -> match a with Static_pta.Abs.ASite _ -> true | _ -> false)
       r)

let test_pta_call_flow () =
  let program =
    parse
      {|global a[4];
fn id(x) { return x; }
fn main() { var p = id(&a); p[0] = 1; return 0; }|}
  in
  let pta = Static_pta.analyze program in
  let p = Static_pta.points_to pta ~fname:"main" (Ast.Local "p") in
  check "return flow" true
    (Static_pta.Abs_set.mem (Static_pta.Abs.AGlobal "a") p);
  check "precise" true (Static_pta.is_precise p)

(* ---- selection --------------------------------------------------------- *)

let select src =
  let program, p = profile src in
  (program, Selection.select program p)

let test_selection_accepts_privatizable () =
  let _, sel =
    select
      {|global scratch[8]; global out[32];
fn main() {
  for (k = 0; k < 32) {
    for (i = 0; i < 8) { scratch[i] = k + i; }
    var s = 0;
    for (j = 0; j < 8) { s = s + scratch[j]; }
    out[k] = s;
  }
  return 0;
}|}
  in
  check_int "one plan" 1 (List.length sel.plans);
  let plan = List.hd sel.plans in
  Alcotest.(check string) "outer loop in main" "main" plan.func;
  check "scratch site private" true
    (List.exists
       (fun (s, h) ->
         s = Objname.Global_site "scratch" && Heap.equal_kind h Heap.Private)
       plan.site_heap)

let test_selection_rejects () =
  (* Loop-carried memory dependence -> reject. *)
  let _, sel =
    select "global acc; fn main() { acc = 1; for (i = 0; i < 8) { acc = (acc * 3) % 97; } return acc; }"
  in
  check "no plans" true (sel.plans = []);
  check "rejection recorded" true (sel.rejections <> [])

let test_selection_rejects_noninvariant_limit () =
  let _, sel =
    select
      "global out[64]; fn main() { var n = 4; for (i = 0; i < n) { out[i] = i; n = 4; } return 0; }"
  in
  check "no plans for varying bound" true
    (List.for_all (fun (p : Selection.plan) -> p.func <> "main") sel.plans)

let test_selection_rejects_break () =
  let _, sel =
    select
      "global out[8]; fn main() { for (i = 0; i < 8) { out[i] = i; if (i == 5) { break; } } return 0; }"
  in
  check "no plans with break" true (sel.plans = [])

let test_selection_no_nested_parallelism () =
  let _, sel =
    select
      {|global out[1024];
fn main() {
  for (k = 0; k < 16) {
    for (i = 0; i < 32) { out[k * 32 + i] = k + i; }
  }
  return 0;
}|}
  in
  (* Both loops may be individually plannable, but only one can be
     selected. *)
  check_int "single compatible plan" 1 (List.length sel.plans)

let test_selection_extras () =
  let _, sel =
    select
      {|global flag; global out[16]; global err;
fn main() {
  flag = 0;
  for (i = 0; i < 16) {
    if (i > 1000) { err = err + 1; }
    out[i] = flag;
    flag = 1;
    flag = 0;
    print("%d\n", i);
  }
  return 0;
}|}
  in
  match sel.plans with
  | [ plan ] ->
    let extras = Selection.extras plan in
    check "value" true (List.mem "Value" extras);
    check "control" true (List.mem "Control" extras);
    check "io" true (List.mem "I/O" extras)
  | _ -> Alcotest.fail "expected one plan"

let suite =
  [ Alcotest.test_case "reduction pair recognition" `Quick test_reduction_pairs;
    Alcotest.test_case "reduction identity and merge" `Quick test_reduction_identity_merge;
    Alcotest.test_case "footprint read/write/redux" `Quick test_footprint_sets;
    Alcotest.test_case "footprint recurses into calls" `Quick test_footprint_through_calls;
    Alcotest.test_case "classification: private/RO/SL" `Quick test_classification_basic;
    Alcotest.test_case "classification: unrestricted" `Quick test_classification_unrestricted;
    Alcotest.test_case "classification: redux read elsewhere demoted" `Quick test_classification_redux_demoted_when_read;
    Alcotest.test_case "classification: value prediction" `Quick test_value_prediction_classification;
    Alcotest.test_case "control speculation needs cold access" `Quick test_control_speculation_requires_cold_access;
    Alcotest.test_case "plan lists control-speculated branches" `Quick
      test_plan_lists_control_speculation;
    Alcotest.test_case "scalar classes" `Quick test_scalars_classes;
    Alcotest.test_case "scalars: carried register rejected" `Quick test_scalars_reject_carried;
    Alcotest.test_case "scalars: conditional def rejected" `Quick test_scalars_conditional_def_is_carried;
    Alcotest.test_case "scalars: mixed update ops rejected" `Quick test_scalars_mixed_ops_reject;
    Alcotest.test_case "points-to precision" `Quick test_pta_precision;
    Alcotest.test_case "points-to call flow" `Quick test_pta_call_flow;
    Alcotest.test_case "selection accepts privatizable loop" `Quick test_selection_accepts_privatizable;
    Alcotest.test_case "selection rejects carried deps" `Quick test_selection_rejects;
    Alcotest.test_case "selection rejects varying bound" `Quick test_selection_rejects_noninvariant_limit;
    Alcotest.test_case "selection rejects break" `Quick test_selection_rejects_break;
    Alcotest.test_case "selection avoids nested parallelism" `Quick test_selection_no_nested_parallelism;
    Alcotest.test_case "selection extras labels" `Quick test_selection_extras ]
