(* Unit tests for the Cmini front end: lexer and parser. *)

open Privateer_lang

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let tokens src =
  List.map (fun (t : Lexer.located) -> t.tok) (Lexer.tokenize src)

let test_lexer_basic () =
  (match tokens "fn main ( ) { return 42 ; }" with
  | [ KW "fn"; IDENT "main"; PUNCT "("; PUNCT ")"; PUNCT "{"; KW "return"; INT 42;
      PUNCT ";"; PUNCT "}"; EOF ] -> ()
  | _ -> Alcotest.fail "unexpected token stream");
  match tokens "1.5 2 3e2 0.25" with
  | [ FLOAT 1.5; INT 2; FLOAT 300.0; FLOAT 0.25; EOF ] -> ()
  | _ -> Alcotest.fail "number lexing"

let test_lexer_float_operators () =
  (* '1.' must not be lexed as a float: the dot belongs to the
     operator that follows. *)
  match tokens "a +. b *. c <=. d" with
  | [ IDENT "a"; PUNCT "+."; IDENT "b"; PUNCT "*."; IDENT "c"; PUNCT "<=."; IDENT "d";
      EOF ] -> ()
  | _ -> Alcotest.fail "float operators"

let test_lexer_comments_strings () =
  (match tokens "a // line comment\n b /* block\n comment */ c" with
  | [ IDENT "a"; IDENT "b"; IDENT "c"; EOF ] -> ()
  | _ -> Alcotest.fail "comments");
  (match tokens {|"hi\n\"there\""|} with
  | [ STRING "hi\n\"there\""; EOF ] -> ()
  | _ -> Alcotest.fail "string escapes");
  check "unterminated string raises" true
    (try
       ignore (tokens "\"oops");
       false
     with Lexer.Lex_error _ -> true);
  check "unterminated comment raises" true
    (try
       ignore (tokens "/* oops");
       false
     with Lexer.Lex_error _ -> true)

let test_lexer_positions () =
  let toks = Lexer.tokenize "a\n  bb" in
  match toks with
  | [ { tok = IDENT "a"; line = 1; col = 1 }; { tok = IDENT "bb"; line = 2; col = 3 };
      { tok = EOF; _ } ] -> ()
  | _ -> Alcotest.fail "positions"

(* The lexer allocates tokens, not probes.  The one-dispatch lexer
   reads about 4.1 minor words per source byte on these sources, the
   String.sub-per-probe lexer it replaced (Lexer_reference) 12.9. *)
let test_lexer_allocation () =
  let sources =
    List.map (fun (w : Privateer_workloads.Workload.t) -> w.source)
      Privateer_workloads.Workloads.builtin
    @ List.map
        (fun (t : Privateer_gen.Scenario_gen.t) -> t.sc_source)
        (Privateer_gen.Scenario_gen.corpus ~seed:1 ~count:200)
  in
  let bytes = List.fold_left (fun n s -> n + String.length s) 0 sources in
  let before = Gc.minor_words () in
  List.iter (fun s -> ignore (Lexer.tokenize s)) sources;
  let per_byte = (Gc.minor_words () -. before) /. float_of_int bytes in
  check (Printf.sprintf "%.2f minor words per source byte <= 6" per_byte) true
    (per_byte <= 6.0)

let parse = Parser.parse_program_exn

let test_parser_accepts_workload_style () =
  let program =
    parse
      {|
global n;
global a[10];
fn helper(p, k) {
  p[k] = k * 2;
  return p[k];
}
fn main() {
  var s = 0;
  for (i = 0; i < 10) {
    s = s + helper(&a, i);
  }
  n = s;
  return s;
}
|}
  in
  check_int "two globals" 2 (List.length program.globals);
  check_int "two funcs" 2 (List.length program.funcs);
  check "validates" true (Privateer_ir.Validate.check program = [])

let test_parser_global_semantics () =
  (* Scalar globals read as values; array globals read as addresses. *)
  let program = parse "global s; global a[2]; fn main() { s = 1; a[0] = s; return a[0]; }" in
  let st = Privateer_interp.Interp.create program in
  check_int "scalar/array globals" 1
    (Privateer_interp.Value.as_int (Privateer_interp.Interp.run_entry st))

let expect_parse_error src =
  try
    ignore (parse src);
    false
  with Failure _ -> true

let test_parser_errors () =
  check "missing semicolon" true (expect_parse_error "fn main() { return 1 }");
  check "bad assignment target" true (expect_parse_error "fn main() { 1 + 2 = 3; return 0; }");
  check "for variable mismatch" true
    (expect_parse_error "fn main() { for (i = 0; j < 10) { } return 0; }");
  check "duplicate global" true (expect_parse_error "global g; global g; fn main() { return 0; }");
  check "unknown & target" true (expect_parse_error "fn main() { return &nope; }");
  check "array size must be literal" true
    (expect_parse_error "global a[n]; fn main() { return 0; }");
  check "top-level junk" true (expect_parse_error "return 1;")

let test_parser_error_positions () =
  try
    ignore (Parser.parse_program "fn main() {\n  return @;\n}")
  with
  | Lexer.Lex_error (_, line, col) ->
    check_int "line" 2 line;
    check "col plausible" true (col >= 9)
  | _ -> Alcotest.fail "expected a lex error with position"

(* What the IR validator would reject is a parse error at the token
   that causes it, with the validator's text. *)
let test_parser_validation_positions () =
  let rejected src want =
    match parse src with
    | _ -> Alcotest.failf "accepted %S" src
    | exception Failure msg -> Alcotest.(check string) src want msg
  in
  rejected "fn main() { foo(1); }" "Cmini parse error at 1:13: call to unknown function foo";
  rejected "fn main() { return f(1) + g(2); }\nfn f(x) { return x; }"
    "Cmini parse error at 1:27: call to unknown function g";
  rejected "fn main() { if (1) { break; } return 0; }"
    "Cmini parse error at 1:22: break/continue outside loop in main";
  rejected "fn main() { return 0; }\nfn f() { while (1) { } continue; }"
    "Cmini parse error at 2:24: break/continue outside loop in f";
  rejected "fn f() { return 1; }\nfn f() { return 2; }\nfn main() { return f(); }"
    "Cmini parse error at 2:4: duplicate function f";
  rejected "fn f() { return 1; }" "Cmini parse error at 1:20: entry function main not defined";
  rejected "fn f() { return 1; }\n" "Cmini parse error at 1:21: entry function main not defined";
  (* Forward calls, builtins and a break under an if in a loop are fine. *)
  let program =
    parse
      "fn main() { return f(); }\nfn f() { for (i = 0; i < 3) { if (i == 1) { break; } continue; } return abs(0 - 2); }"
  in
  check "validates" true (Privateer_ir.Validate.check program = [])

let test_parser_else_if_chain () =
  let program =
    parse
      {|fn classify(x) {
  if (x < 0) { return 0 - 1; }
  else { if (x == 0) { return 0; } else { return 1; } }
}
fn main() { return classify(5) + classify(0) + classify(0 - 3); }|}
  in
  let st = Privateer_interp.Interp.create program in
  check_int "else-if chain" 0
    (Privateer_interp.Value.as_int (Privateer_interp.Interp.run_entry st))

let test_parser_unique_ids () =
  let program =
    parse
      "global g[4]; fn main() { g[0] = g[1] + g[2]; if (g[0] > 0) { g[3] = 1; } for (i = 0; i < 2) { g[i] = i; } while (g[0] > 10) { g[0] = g[0] - 1; } return 0; }"
  in
  check "all ids unique and below watermark" true
    (Privateer_ir.Validate.check program = [])

let test_parser_precedence_vs_eval () =
  (* Cross-check parser precedence through evaluation. *)
  let eval src =
    let program = parse (Printf.sprintf "fn main() { return %s; }" src) in
    Privateer_interp.Value.as_int
      (Privateer_interp.Interp.run_entry (Privateer_interp.Interp.create program))
  in
  check_int "mul before add" 7 (eval "1 + 2 * 3");
  check_int "shift after add" 32 (eval "1 + 1 << 4");
  check_int "cmp after bits" 1 (eval "(6 & 3) == 2");
  check_int "and after cmp" 1 (eval "1 < 2 && 3 < 4");
  check_int "or after and" 1 (eval "0 && 0 || 1");
  check_int "unary tight" (-6) (eval "-2 * 3")

let suite =
  [ Alcotest.test_case "lexer basics" `Quick test_lexer_basic;
    Alcotest.test_case "lexer float operators" `Quick test_lexer_float_operators;
    Alcotest.test_case "lexer comments and strings" `Quick test_lexer_comments_strings;
    Alcotest.test_case "lexer positions" `Quick test_lexer_positions;
    Alcotest.test_case "parser workload-style program" `Quick test_parser_accepts_workload_style;
    Alcotest.test_case "parser global semantics" `Quick test_parser_global_semantics;
    Alcotest.test_case "parser rejects malformed input" `Quick test_parser_errors;
    Alcotest.test_case "parser reports positions" `Quick test_parser_error_positions;
    Alcotest.test_case "parser else-if chains" `Quick test_parser_else_if_chain;
    Alcotest.test_case "parser emits unique node ids" `Quick test_parser_unique_ids;
    Alcotest.test_case "parser precedence" `Quick test_parser_precedence_vs_eval;
    Alcotest.test_case "lexer allocates at most 6 words per byte" `Quick
      test_lexer_allocation;
    Alcotest.test_case "parser positions validator errors" `Quick
      test_parser_validation_positions ]
