(* Unit tests for the IR utilities: pretty-printer, structural
   validator, builder, hooks composition, and AST traversals. *)

open Privateer_ir

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ---- pretty printer ----------------------------------------------------- *)

let test_pp_expressions () =
  let b = Builder.create () in
  check_str "arith" "(1 + (2 * x))"
    (Pp.expr_str (Builder.add (Ast.Int 1) (Builder.mul (Ast.Int 2) (Ast.Local "x"))));
  check_str "load" "load((&g + (8 * i)))"
    (Pp.expr_str (Builder.load b (Builder.word (Ast.Global_addr "g") (Ast.Local "i"))));
  check_str "float" "(x <=. 2.5)"
    (Pp.expr_str (Ast.Binop (Fle, Local "x", Float 2.5)));
  check_str "alloc with heap" "malloc(16, short-lived)"
    (Pp.expr_str (Ast.Alloc (0, Malloc, Some Heap.Short_lived, Int 16)));
  check_str "call" "f(1, y)" (Pp.expr_str (Ast.Call (1, "f", [ Int 1; Local "y" ])));
  check_str "logic" "(a && (b || c))"
    (Pp.expr_str (Ast.And (Local "a", Ast.Or (Local "b", Local "c"))))

let test_pp_statements () =
  let prog =
    Privateer_lang.Parser.parse_program_exn
      "global g[2]; fn main() { g[0] = 1; if (g[0] > 0) { print(\"hi\\n\"); } return 0; }"
  in
  let s = Pp.program_str prog in
  let contains needle =
    let n = String.length needle and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
    go 0
  in
  check "program renders globals" true (contains "global g[16]");
  check "renders the if" true (contains "if (")

(* ---- validator ----------------------------------------------------------- *)

let test_validate_duplicate_ids () =
  let bad =
    { Ast.globals = []; entry = "main"; next_id = 10;
      funcs =
        [ { fname = "main"; params = [];
            body =
              [ Store (1, S8, Int 0, Int 0); Store (1, S8, Int 8, Int 0);
                Return None ] } ] }
  in
  check "duplicate ids caught" true
    (List.exists
       (fun e -> match e with Validate.Duplicate_node_id 1 -> true | _ -> false)
       (Validate.check bad))

let test_validate_watermark () =
  let bad =
    { Ast.globals = []; entry = "main"; next_id = 1;
      funcs = [ { fname = "main"; params = []; body = [ Store (5, S8, Int 0, Int 0) ] } ] }
  in
  check "watermark violation caught" true
    (List.exists
       (fun e -> match e with Validate.Node_id_above_watermark 5 -> true | _ -> false)
       (Validate.check bad))

let test_validate_unknowns () =
  let bad =
    { Ast.globals = []; entry = "main"; next_id = 10;
      funcs =
        [ { fname = "main"; params = [];
            body = [ Expr (Call (1, "nope", [])); Expr (Global_addr "gone") ] } ] }
  in
  let errs = Validate.check bad in
  check "unknown function" true
    (List.exists (fun e -> e = Validate.Unknown_function "nope") errs);
  check "unknown global" true
    (List.exists (fun e -> e = Validate.Unknown_global "gone") errs)

let test_validate_stray_break () =
  let bad =
    { Ast.globals = []; entry = "main"; next_id = 10;
      funcs = [ { fname = "main"; params = []; body = [ Break ] } ] }
  in
  check "stray break caught" true
    (List.exists
       (fun e -> match e with Validate.Stray_break_continue _ -> true | _ -> false)
       (Validate.check bad));
  check "break inside loop fine" true
    (Validate.check
       { Ast.globals = []; entry = "main"; next_id = 10;
         funcs =
           [ { fname = "main"; params = [];
               body = [ While (1, Int 1, [ Break ]) ] } ] }
    = [])

let test_validate_missing_entry () =
  let bad = { Ast.globals = []; entry = "main"; next_id = 1; funcs = [] } in
  check "missing entry" true
    (List.exists (fun e -> e = Validate.Missing_entry "main") (Validate.check bad))

(* ---- traversals ----------------------------------------------------------- *)

let test_loops_of_program () =
  let prog =
    Privateer_lang.Parser.parse_program_exn
      {|fn helper() { while (0) { } }
fn main() { for (i = 0; i < 2) { for (j = 0; j < 2) { } } helper(); return 0; }|}
  in
  let loops = Ast.loops_of_program prog in
  check_int "three loops" 3 (List.length loops);
  (* Outermost first within each function: the first listed loop
     contains the second in its body. *)
  match List.filter (fun ((f : Ast.func), _) -> f.fname = "main") loops with
  | [ (_, (_, Ast.For (_, _, _, _, outer_body))); (_, (inner, _)) ] ->
    check "outer listed first" true
      (List.exists (fun (id, _) -> id = inner) (Ast.loops_of_block outer_body))
  | _ -> Alcotest.fail "main's loops"

let test_iter_exprs_depth () =
  let prog =
    Privateer_lang.Parser.parse_program_exn
      "global g[4]; fn main() { g[g[0]] = g[1] + 2; return 0; }"
  in
  let loads = ref 0 in
  List.iter
    (fun (f : Ast.func) ->
      Ast.iter_exprs
        (fun e -> match e with Ast.Load _ -> incr loads | _ -> ())
        f.body)
    prog.funcs;
  check_int "nested loads found" 2 !loads

(* ---- builder ---------------------------------------------------------------- *)

let test_builder_fresh_ids () =
  let b = Builder.create ~first_id:100 () in
  let e1 = Builder.load b (Ast.Int 0) in
  let e2 = Builder.malloc b (Ast.Int 8) in
  (match (e1, e2) with
  | Ast.Load (i1, _, _), Ast.Alloc (i2, _, _, _) ->
    check_int "first id" 100 i1;
    check_int "second id" 101 i2
  | _ -> Alcotest.fail "builder shapes");
  let prog =
    Builder.program b ~globals:[ Builder.global "g" 8 ]
      ~funcs:[ Builder.func "main" [] [ Ast.Return (Some (Ast.Int 0)) ] ]
      ~entry:"main"
  in
  check_int "watermark recorded" 102 prog.next_id

let suite =
  [ Alcotest.test_case "pp: expressions" `Quick test_pp_expressions;
    Alcotest.test_case "pp: statements" `Quick test_pp_statements;
    Alcotest.test_case "validate: duplicate ids" `Quick test_validate_duplicate_ids;
    Alcotest.test_case "validate: id watermark" `Quick test_validate_watermark;
    Alcotest.test_case "validate: unknown names" `Quick test_validate_unknowns;
    Alcotest.test_case "validate: stray break" `Quick test_validate_stray_break;
    Alcotest.test_case "validate: missing entry" `Quick test_validate_missing_entry;
    Alcotest.test_case "loops_of_program" `Quick test_loops_of_program;
    Alcotest.test_case "iter_exprs reaches nesting" `Quick test_iter_exprs_depth;
    Alcotest.test_case "builder fresh ids" `Quick test_builder_fresh_ids ]
