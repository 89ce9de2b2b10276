(* Unit and differential tests for the profilers (paper section 4.1).

   Every unit test runs under three variants — the production
   profiler, the monolithic reference oracle from the test library,
   and two profiler instances profiling at once on two domains (as
   the job server runs them) — which must answer identically.
   Targeted sources then check the profiler's fast paths against the
   oracle, and the full query surface is checked on the five ports and,
   by a qcheck property, over generated scenarios. *)

open Privateer_ir
open Privateer_interp
open Privateer_profile
module Answers = Privateer_oracle.Profile_answers

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let parse = Privateer_lang.Parser.parse_program_exn

type runner = string -> Ast.program * Answers.t * Interp.t

let run_fast : runner =
 fun src ->
  let program = parse src in
  let q, st = Answers.run_fast program in
  (program, q, st)

let run_reference : runner =
 fun src ->
  let program = parse src in
  let q, st = Answers.run_reference program in
  (program, q, st)

(* The job server's pattern: two profiler instances profile the same
   source at once, each on its own domain with its own parse.  Neither
   may observe the other — their answers must agree — and the first one
   answers the test. *)
let run_concurrent : runner =
 fun src ->
  let profile_on_domain () = Domain.spawn (fun () -> run_fast src) in
  let da = profile_on_domain () and db = profile_on_domain () in
  let ((program, qa, _) as first) = Domain.join da in
  let _, qb, _ = Domain.join db in
  (match Answers.diff program qa qb with
  | None -> ()
  | Some what -> Alcotest.fail ("concurrent profiles differ on " ^ what));
  first

let variants : (string * runner) list =
  [ ("fast", run_fast); ("reference", run_reference); ("concurrent", run_concurrent) ]

(* The node id of the single For loop in [fname]. *)
let loop_in program fname =
  match
    List.find_opt
      (fun ((f : Ast.func), _) -> f.fname = fname)
      (Ast.loops_of_program program)
  with
  | Some (_, (id, _)) -> id
  | None -> Alcotest.fail ("no loop in " ^ fname)

(* ---- unit tests, parameterized over the implementations --------------- *)

let test_global_objects_registered (profile : runner) () =
  let _, p, _ = profile "global g[4]; fn main() { g[0] = 1; return g[0]; }" in
  check "global named" true (Objname.Set.mem (Objname.Global "g") (p.all_objects ()));
  match p.object_size (Objname.Global "g") with
  | Some 32 -> ()
  | other -> Alcotest.fail (Printf.sprintf "size %s" (match other with Some n -> string_of_int n | None -> "?"))

let test_site_object_mapping (profile : runner) () =
  let program, p, _ =
    profile
      "global a[4]; global b[4]; fn main() { var t = 0; for (i = 0; i < 4) { t = a[i]; b[i] = t; } return t; }"
  in
  (* Find the load and store sites via the AST. *)
  let sites = ref [] in
  List.iter
    (fun (f : Ast.func) ->
      Ast.iter_exprs
        (fun e -> match e with Ast.Load (id, _, _) -> sites := `L id :: !sites | _ -> ())
        f.body;
      Ast.iter_stmts
        (fun s -> match s with Ast.Store (id, _, _, _) -> sites := `S id :: !sites | _ -> ())
        f.body)
    program.funcs;
  let a_sites, b_sites =
    List.partition
      (fun site ->
        let id = match site with `L id | `S id -> id in
        Objname.Set.mem (Objname.Global "a") (p.objects_at_site id))
      (List.filter
         (fun site ->
           let id = match site with `L id | `S id -> id in
           not (Objname.Set.is_empty (p.objects_at_site id)))
         !sites)
  in
  check_int "one site touches a" 1 (List.length a_sites);
  check_int "one site touches b" 1 (List.length b_sites)

let test_alloc_context_naming (profile : runner) () =
  (* The same malloc site called from two different call sites yields
     two distinct object names (paper's dijkstra line-11 example). *)
  let _, p, _ =
    profile
      {|fn mk() { return malloc(1); }
fn a() { return mk(); }
fn b() { return mk(); }
fn main() { var x = a(); var y = b(); free(x); free(y); return 0; }|}
  in
  let sites =
    Objname.Set.filter
      (fun o -> match o with Objname.Site _ -> true | _ -> false)
      (p.all_objects ())
  in
  check_int "two context-distinguished names" 2 (Objname.Set.cardinal sites)

let test_short_lived_positive (profile : runner) () =
  let program, p, _ =
    profile
      "fn main() { for (i = 0; i < 5) { var n = malloc(2); n[0] = i; free(n); } return 0; }"
  in
  let loop = loop_in program "main" in
  let site_names =
    Objname.Set.filter
      (fun o -> match o with Objname.Site _ -> true | _ -> false)
      (p.all_objects ())
  in
  check_int "one dynamic name" 1 (Objname.Set.cardinal site_names);
  Objname.Set.iter
    (fun o -> check "short-lived" true (p.is_short_lived o ~loop))
    site_names

let test_short_lived_negative_escape (profile : runner) () =
  (* Object freed in the NEXT iteration: crosses an iteration
     boundary, so not short-lived. *)
  let program, p, _ =
    profile
      {|global keep;
fn main() {
  keep = 0;
  for (i = 0; i < 5) {
    if (keep != 0) { free(keep); }
    keep = malloc(1);
  }
  free(keep);
  return 0;
}|}
  in
  let loop = loop_in program "main" in
  Objname.Set.iter
    (fun o ->
      match o with
      | Objname.Site _ -> check "escaping object not short-lived" false (p.is_short_lived o ~loop)
      | _ -> ())
    (p.all_objects ())

let test_short_lived_negative_born_outside (profile : runner) () =
  (* Allocated before the loop, freed inside it. *)
  let program, p, _ =
    profile
      "fn main() { var x = malloc(1); for (i = 0; i < 3) { if (i == 1) { free(x); } } return 0; }"
  in
  let loop = loop_in program "main" in
  Objname.Set.iter
    (fun o ->
      match o with
      | Objname.Site _ -> check "born outside loop" false (p.is_short_lived o ~loop)
      | _ -> ())
    (p.all_objects ())

let test_flow_deps_cross_iteration (profile : runner) () =
  let program, p, _ =
    profile "global acc; fn main() { acc = 0; for (i = 0; i < 4) { acc = acc + i; } return acc; }"
  in
  let loop = loop_in program "main" in
  check "cross-iteration flow dep on acc" true (p.flow_deps ~loop <> [])

let test_flow_deps_intra_iteration_only (profile : runner) () =
  (* Written then read within each iteration: no loop-carried flow. *)
  let program, p, _ =
    profile "global t; fn main() { var s = 0; for (i = 0; i < 4) { t = i; s = s + t; } return s; }"
  in
  let loop = loop_in program "main" in
  check_int "no cross-iteration deps" 0 (List.length (p.flow_deps ~loop))

let test_flow_deps_recycled_address (profile : runner) () =
  (* A freed-and-reallocated address must not produce a phantom dep:
     the write went to a *different* object. *)
  let program, p, _ =
    profile
      "fn main() { var s = 0; for (i = 0; i < 4) { var n = malloc(1); n[0] = i; s = s + n[0]; free(n); } return s; }"
  in
  let loop = loop_in program "main" in
  check_int "no phantom dep through recycled storage" 0
    (List.length (p.flow_deps ~loop))

let test_flow_deps_unaligned (profile : runner) () =
  (* An 8-byte store at buf+4 straddles words 0 and 1; the aligned
     read of buf[1] in the next iteration depends on its *high* word.
     Regression: the shadow update must cover every word the access
     touches, not just the first. *)
  let program, p, _ =
    profile
      {|global buf[4];
fn main() {
  var s = 0;
  var q = buf + 4;
  for (i = 0; i < 4) {
    s = s + buf[1];
    q[0] = i;
  }
  return s;
}|}
  in
  let loop = loop_in program "main" in
  check "unaligned store's high word carries the dep" true
    (p.flow_deps ~loop <> [])

let test_flow_deps_unaligned_load (profile : runner) () =
  (* Mirror case: aligned store, straddling load. *)
  let program, p, _ =
    profile
      {|global buf[4];
fn main() {
  var s = 0;
  var q = buf + 12;
  for (i = 0; i < 4) {
    s = s + q[0];
    buf[2] = i;
  }
  return s;
}|}
  in
  let loop = loop_in program "main" in
  check "unaligned load's high word sees the dep" true
    (p.flow_deps ~loop <> [])

let test_dep_value_constancy (profile : runner) () =
  (* The flowing value is always 0: a value-prediction candidate. *)
  let program, p, _ =
    profile
      {|global flag;
fn main() {
  var s = 0;
  for (i = 0; i < 6) {
    s = s + flag;      // reads 0 written by previous iteration
    flag = 1;
    flag = 0;          // reset before iteration end
  }
  return s;
}|}
  in
  let loop = loop_in program "main" in
  let deps = p.flow_deps ~loop in
  check "has deps" true (deps <> []);
  List.iter
    (fun (_, _, (info : Profiler.dep_info)) ->
      (match info.dep_value with
      | Profiler.Const (Value.VInt 0) -> ()
      | _ -> Alcotest.fail "expected constant 0");
      match info.dep_addr with
      | `Addr _ -> ()
      | `Many -> Alcotest.fail "expected single address")
    deps

let test_branch_bias (profile : runner) () =
  let program, p, _ =
    profile
      {|global g;
fn main() {
  for (i = 0; i < 10) {
    if (i < 100) { g = i; }      // always taken
    if (i > 100) { g = 0 - 1; }  // never taken
    if (i % 2 == 0) { g = 2; }   // mixed
  }
  return g;
}|}
  in
  let branches = ref [] in
  List.iter
    (fun (f : Ast.func) ->
      Ast.iter_stmts
        (fun s -> match s with Ast.If (id, _, _, _) -> branches := id :: !branches | _ -> ())
        f.body)
    program.funcs;
  let biases = List.map (fun id -> p.branch_bias id) (List.rev !branches) in
  check "always / never / mixed" true (biases = [ Some true; Some false; None ])

let test_loop_stats (profile : runner) () =
  let program, p, _ =
    profile
      "fn main() { var s = 0; for (o = 0; o < 3) { for (i = 0; i < 5) { s = s + 1; } } return s; }"
  in
  let outer, inner =
    match Ast.loops_of_program program with
    | [ (_, (o, _)); (_, (i, _)) ] -> (o, i)
    | _ -> Alcotest.fail "expected two loops"
  in
  (match p.loop_summary inner with
  | Some s ->
    check_int "inner invocations" 3 s.loop_invocations;
    check_int "inner trips" 15 s.loop_trips
  | None -> Alcotest.fail "inner stats missing");
  match (p.loop_summary outer, p.loop_summary inner) with
  | Some o, Some i ->
    check "outer at least as heavy as inner" true (o.loop_cycles >= i.loop_cycles);
    check "weight ordering" true
      (match p.loops_by_weight () with
      | (first, _) :: _ -> first = outer
      | [] -> false)
  | _ -> Alcotest.fail "stats missing"

let test_const_load (profile : runner) () =
  let program, p, _ =
    profile
      {|global k; global v;
fn main() {
  k = 7;
  var s = 0;
  for (i = 0; i < 5) { s = s + k; v = i; s = s + v; }
  return s;
}|}
  in
  (* Find load sites for k and v. *)
  let konst = ref None and varying = ref None in
  List.iter
    (fun (f : Ast.func) ->
      Ast.iter_exprs
        (fun e ->
          match e with
          | Ast.Load (id, _, Ast.Global_addr "k") -> konst := Some id
          | Ast.Load (id, _, Ast.Global_addr "v") -> varying := Some id
          | _ -> ())
        f.body)
    program.funcs;
  (match !konst with
  | Some id -> (
    match p.const_load_value id with
    | Some (Value.VInt 7) -> ()
    | _ -> Alcotest.fail "k should profile as constant 7")
  | None -> Alcotest.fail "no k load site");
  match !varying with
  | Some id -> check "v load varies" true (p.const_load_value id = None)
  | None -> Alcotest.fail "no v load site"

let test_object_at_addr (profile : runner) () =
  let _, p, st = profile "global g[8]; fn main() { g[0] = 1; return 0; }" in
  let base = Hashtbl.find st.globals "g" in
  (match p.object_at_addr (base + 40) with
  | Some (Objname.Global "g", b) -> check_int "base" base b
  | _ -> Alcotest.fail "interior address should map to g");
  check "address outside any object" true (p.object_at_addr 0x9999 = None)

(* ---- deterministic loops_by_weight order ------------------------------ *)

let test_loops_by_weight_tiebreak () =
  (* Two byte-identical loops tie on weight; the order must be the
     same deterministic one (descending weight, loop id ascending on
     ties) from both implementations. *)
  let src =
    "fn main() { var s = 0; for (a = 0; a < 3) { s = s + 1; } for (b = 0; b < 3) { s = s + 1; } return s; }"
  in
  let ranked (_, (p : Answers.t), _) = p.loops_by_weight () in
  let fast = ranked (run_fast src) in
  let rf = ranked (run_reference src) in
  check "two ranked loops" true (List.length fast = 2);
  (match fast with
  | (l1, w1) :: (l2, w2) :: _ ->
    check "tie on weight" true (w1 = w2);
    check "ties break by loop id" true (l1 < l2)
  | _ -> Alcotest.fail "expected two loops");
  check "fast = reference" true (fast = rf)

(* ---- full query surface differential ---------------------------------- *)

(* First query family on which the production profiler and the oracle
   disagree over [wl] at scale 1 on its train input, if any. *)
let diff_on_train (wl : Privateer_workloads.Workload.t) =
  let program = Privateer_workloads.Workload.program wl in
  let setup =
    Privateer_workloads.Workload.setup ~scale:1 wl Privateer_workloads.Workload.Train
  in
  let pf, _ = Answers.run_fast ~setup program in
  let pr, _ = Answers.run_reference ~setup program in
  Answers.diff program pf pr

let test_ports_match_reference () =
  List.iter
    (fun (wl : Privateer_workloads.Workload.t) ->
      match diff_on_train wl with
      | None -> ()
      | Some what ->
        Alcotest.failf "%s: fast profiler differs from the oracle on %s" wl.name what)
    (Privateer_workloads.Workloads.all ())

let scenario_corpus =
  lazy (Privateer_gen.Scenario_gen.corpus ~seed:11 ~count:6)

let prop_fast_matches_reference =
  QCheck.Test.make ~count:12 ~name:"fast frontend = reference on generated scenarios"
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 5))
    (fun i ->
      let sc = List.nth (Lazy.force scenario_corpus) i in
      match diff_on_train sc.sc_workload with
      | None -> true
      | Some what -> QCheck.Test.fail_reportf "%s differs on %s" what sc.sc_name)

(* ---- profiler fast paths vs the oracle -------------------------------- *)

(* Targeted sources for the profiler's fast paths, each checked over
   the whole query surface against the oracle. *)
let fast_and_reference src =
  let program, pf, _ = run_fast src in
  let _, pr, _ = run_reference src in
  (match Answers.diff program pf pr with
  | None -> ()
  | Some what -> Alcotest.fail ("fast profiler differs from the oracle on " ^ what));
  (program, pf, pr)

let test_nested_loop_transitions () =
  (* Inner-loop enters, iterations and exits inside an outer iteration
     exercise the memoized loop-context snapshots and the positional
     prefix walk over live writer stacks. *)
  ignore
    (fast_and_reference
       {|global acc;
fn main() {
  acc = 0;
  for (o = 0; o < 3) {
    for (i = 0; i < 4) { acc = acc + i; }
  }
  return acc;
}|})

let test_free_then_realloc () =
  (* The allocator recycles the freed base address every iteration:
     the epoch'd flow records and the page-indexed object table must
     drop the dead object's writer and name. *)
  let program, pf, _ =
    fast_and_reference
      "fn main() { var s = 0; for (i = 0; i < 6) { var n = malloc(1); n[0] = i; s = s + n[0]; free(n); } return s; }"
  in
  check_int "no phantom dep through the recycled address" 0
    (List.length (pf.flow_deps ~loop:(loop_in program "main")))

let test_nested_invocation_cycles () =
  (* Per-loop cycle accounting across repeated invocations of a nested
     loop: invocations, trips and cycles must match the oracle exactly. *)
  let program, pf, pr =
    fast_and_reference
      "fn main() { var s = 0; for (o = 0; o < 3) { for (i = 0; i < 5) { s = s + 1; } } return s; }"
  in
  List.iter
    (fun (_, (loop, _)) ->
      match (pf.loop_summary loop, pr.loop_summary loop) with
      | Some a, Some b ->
        check_int "invocations" b.loop_invocations a.loop_invocations;
        check_int "trips" b.loop_trips a.loop_trips;
        check_int "cycles" b.loop_cycles a.loop_cycles
      | _ -> Alcotest.fail "summary missing")
    (Ast.loops_of_program program)

let suite =
  let parameterized =
    List.concat_map
      (fun (vname, runner) ->
        List.map
          (fun (name, fn) ->
            Alcotest.test_case (Printf.sprintf "%s [%s]" name vname) `Quick (fn runner))
          [ ("globals registered as objects", test_global_objects_registered);
            ("pointer-to-object site mapping", test_site_object_mapping);
            ("allocation context naming", test_alloc_context_naming);
            ("short-lived: alloc+free in iteration", test_short_lived_positive);
            ("short-lived: escape to next iteration", test_short_lived_negative_escape);
            ("short-lived: born outside loop", test_short_lived_negative_born_outside);
            ("flow deps: cross-iteration detected", test_flow_deps_cross_iteration);
            ("flow deps: intra-iteration ignored", test_flow_deps_intra_iteration_only);
            ("flow deps: recycled addresses", test_flow_deps_recycled_address);
            ("flow deps: unaligned store straddles words", test_flow_deps_unaligned);
            ("flow deps: unaligned load straddles words", test_flow_deps_unaligned_load);
            ("dep value constancy", test_dep_value_constancy);
            ("branch bias", test_branch_bias);
            ("loop statistics", test_loop_stats);
            ("constant-load detection", test_const_load);
            ("object_at_addr", test_object_at_addr) ])
      variants
  in
  parameterized
  @ [ Alcotest.test_case "loops_by_weight tie-break is deterministic" `Quick
        test_loops_by_weight_tiebreak;
      Alcotest.test_case "frontend: nested loop transitions = oracle" `Quick
        test_nested_loop_transitions;
      Alcotest.test_case "frontend: free then realloc same address" `Quick
        test_free_then_realloc;
      Alcotest.test_case "frontend: nested-invocation cycle accounting" `Quick
        test_nested_invocation_cycles;
      Alcotest.test_case "fast = reference on the five ports" `Quick
        test_ports_match_reference;
      QCheck_alcotest.to_alcotest prop_fast_matches_reference ]
