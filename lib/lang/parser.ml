(* Recursive-descent parser for Cmini, lowering directly to the IR.

   Cmini is deliberately close to the memory model of C: untyped
   64-bit words, pointer arithmetic via subscripts (e[i] is the 8-byte
   word at e + 8*i), dynamic allocation in words (malloc(n) allocates
   n 8-byte words), byte access via load1/store1, and distinct float
   operators (+. *. <. ...) since the IR is dynamically typed.

   Scalar globals read as their value and assign with '=', matching C
   globals; array globals evaluate to their base address.  '&g' takes
   any global's address. *)

open Privateer_ir

exception Parse_error of string * int * int

type gkind = Gscalar | Garray

type st = {
  mutable toks : Lexer.located list;
  builder : Builder.t;
  globals : (string, gkind) Hashtbl.t;
  funcs : (string, unit) Hashtbl.t; (* functions defined so far *)
  mutable calls : Lexer.located list; (* callee names, latest first *)
  mutable fname : string; (* function being parsed *)
  mutable loops : int; (* loops enclosing the current statement *)
}

let peek st = match st.toks with [] -> assert false | t :: _ -> t

let err st msg =
  let t = peek st in
  raise (Parse_error (Printf.sprintf "%s (found %s)" msg (Lexer.token_to_string t.tok), t.line, t.col))

(* A program the validator would reject, reported with Validate's own
   text at the token that causes it. *)
let invalid_at (t : Lexer.located) e =
  raise (Parse_error (Validate.error_to_string e, t.line, t.col))

let advance st = match st.toks with [] -> assert false | _ :: rest -> st.toks <- rest

let expect_punct st p =
  match (peek st).tok with
  | PUNCT q when q = p -> advance st
  | _ -> err st (Printf.sprintf "expected %S" p)

let expect_ident st =
  match (peek st).tok with
  | IDENT name ->
    advance st;
    name
  | _ -> err st "expected identifier"

let accept_punct st p =
  match (peek st).tok with
  | PUNCT q when q = p ->
    advance st;
    true
  | _ -> false

let fresh st = Builder.fresh st.builder

(* ---- expressions ---------------------------------------------------- *)

(* Word subscript: the 8-byte word at base + 8*index. *)
let subscript_addr base index =
  Ast.Binop (Add, base, Ast.Binop (Mul, Int 8, index))

let rec parse_expr st = parse_or st

and parse_or st =
  let lhs = parse_and st in
  if accept_punct st "||" then Ast.Or (lhs, parse_or st) else lhs

and parse_and st =
  let lhs = parse_cmp st in
  if accept_punct st "&&" then Ast.And (lhs, parse_and st) else lhs

and parse_cmp st =
  let lhs = parse_bits st in
  let op =
    match (peek st).tok with
    | PUNCT "<" -> Some Ast.Lt
    | PUNCT "<=" -> Some Le
    | PUNCT ">" -> Some Gt
    | PUNCT ">=" -> Some Ge
    | PUNCT "==" -> Some Eq
    | PUNCT "!=" -> Some Ne
    | PUNCT "<." -> Some Flt
    | PUNCT "<=." -> Some Fle
    | PUNCT ">." -> Some Fgt
    | PUNCT ">=." -> Some Fge
    | PUNCT "==." -> Some Feq
    | PUNCT "!=." -> Some Fne
    | _ -> None
  in
  match op with
  | None -> lhs
  | Some op ->
    advance st;
    Ast.Binop (op, lhs, parse_bits st)

and parse_bits st =
  let rec loop lhs =
    match (peek st).tok with
    | PUNCT "&" -> advance st; loop (Ast.Binop (Band, lhs, parse_shift st))
    | PUNCT "|" -> advance st; loop (Ast.Binop (Bor, lhs, parse_shift st))
    | PUNCT "^" -> advance st; loop (Ast.Binop (Bxor, lhs, parse_shift st))
    | _ -> lhs
  in
  loop (parse_shift st)

and parse_shift st =
  let rec loop lhs =
    match (peek st).tok with
    | PUNCT "<<" -> advance st; loop (Ast.Binop (Shl, lhs, parse_add st))
    | PUNCT ">>" -> advance st; loop (Ast.Binop (Shr, lhs, parse_add st))
    | _ -> lhs
  in
  loop (parse_add st)

and parse_add st =
  let rec loop lhs =
    match (peek st).tok with
    | PUNCT "+" -> advance st; loop (Ast.Binop (Add, lhs, parse_mul st))
    | PUNCT "-" -> advance st; loop (Ast.Binop (Sub, lhs, parse_mul st))
    | PUNCT "+." -> advance st; loop (Ast.Binop (Fadd, lhs, parse_mul st))
    | PUNCT "-." -> advance st; loop (Ast.Binop (Fsub, lhs, parse_mul st))
    | _ -> lhs
  in
  loop (parse_mul st)

and parse_mul st =
  let rec loop lhs =
    match (peek st).tok with
    | PUNCT "*" -> advance st; loop (Ast.Binop (Mul, lhs, parse_unary st))
    | PUNCT "/" -> advance st; loop (Ast.Binop (Div, lhs, parse_unary st))
    | PUNCT "%" -> advance st; loop (Ast.Binop (Rem, lhs, parse_unary st))
    | PUNCT "*." -> advance st; loop (Ast.Binop (Fmul, lhs, parse_unary st))
    | PUNCT "/." -> advance st; loop (Ast.Binop (Fdiv, lhs, parse_unary st))
    | _ -> lhs
  in
  loop (parse_unary st)

and parse_unary st =
  match (peek st).tok with
  | PUNCT "-" -> advance st; Ast.Unop (Neg, parse_unary st)
  | PUNCT "-." -> advance st; Ast.Unop (Fneg, parse_unary st)
  | PUNCT "!" -> advance st; Ast.Unop (Not, parse_unary st)
  | PUNCT "~" -> advance st; Ast.Unop (Bnot, parse_unary st)
  | KW "itof" ->
    advance st;
    expect_punct st "(";
    let e = parse_expr st in
    expect_punct st ")";
    Ast.Unop (Itof, e)
  | KW "ftoi" ->
    advance st;
    expect_punct st "(";
    let e = parse_expr st in
    expect_punct st ")";
    Ast.Unop (Ftoi, e)
  | _ -> parse_postfix st

and parse_postfix st =
  let rec loop e =
    if accept_punct st "[" then begin
      let idx = parse_expr st in
      expect_punct st "]";
      loop (Ast.Load (fresh st, S8, subscript_addr e idx))
    end
    else e
  in
  loop (parse_primary st)

and parse_args st =
  expect_punct st "(";
  if accept_punct st ")" then []
  else begin
    let rec loop acc =
      let e = parse_expr st in
      if accept_punct st "," then loop (e :: acc)
      else begin
        expect_punct st ")";
        List.rev (e :: acc)
      end
    in
    loop []
  end

and parse_primary st =
  match (peek st).tok with
  | INT n -> advance st; Ast.Int n
  | FLOAT f -> advance st; Ast.Float f
  | PUNCT "(" ->
    advance st;
    let e = parse_expr st in
    expect_punct st ")";
    e
  | PUNCT "&" ->
    advance st;
    let name = expect_ident st in
    if not (Hashtbl.mem st.globals name) then err st ("&: unknown global " ^ name);
    Ast.Global_addr name
  | KW "malloc" ->
    advance st;
    expect_punct st "(";
    let words = parse_expr st in
    expect_punct st ")";
    Ast.Alloc (fresh st, Malloc, None, Ast.Binop (Mul, Int 8, words))
  | KW "load1" ->
    advance st;
    expect_punct st "(";
    let addr = parse_expr st in
    expect_punct st ")";
    Ast.Load (fresh st, S1, addr)
  | IDENT name -> (
    let callee = peek st in
    advance st;
    match (peek st).tok with
    | PUNCT "(" ->
      st.calls <- callee :: st.calls;
      Ast.Call (fresh st, name, parse_args st)
    | _ -> (
      match Hashtbl.find_opt st.globals name with
      | Some Gscalar -> Ast.Load (fresh st, S8, Global_addr name)
      | Some Garray -> Ast.Global_addr name
      | None -> Ast.Local name))
  | _ -> err st "expected expression"

(* ---- statements ----------------------------------------------------- *)

let rec parse_block st =
  expect_punct st "{";
  let rec loop acc =
    if accept_punct st "}" then List.rev acc else loop (parse_stmt st :: acc)
  in
  loop []

and parse_loop_body st =
  st.loops <- st.loops + 1;
  let body = parse_block st in
  st.loops <- st.loops - 1;
  body

(* Consume a break/continue keyword, which must be inside a loop. *)
and loop_only st =
  if st.loops = 0 then invalid_at (peek st) (Stray_break_continue st.fname);
  advance st

and parse_stmt st : Ast.stmt =
  match (peek st).tok with
  | KW "var" -> (
    advance st;
    let name = expect_ident st in
    if accept_punct st "[" then begin
      (* var a[n];  -- stack array of n words *)
      let words = parse_expr st in
      expect_punct st "]";
      expect_punct st ";";
      Ast.Assign
        (name, Ast.Alloc (fresh st, Salloc, None, Ast.Binop (Mul, Int 8, words)))
    end
    else begin
      expect_punct st "=";
      let e = parse_expr st in
      expect_punct st ";";
      Ast.Assign (name, e)
    end)
  | KW "if" ->
    advance st;
    expect_punct st "(";
    let c = parse_expr st in
    expect_punct st ")";
    let b1 = parse_block st in
    let b2 =
      match (peek st).tok with
      | KW "else" ->
        advance st;
        (* else-if chains: else followed directly by another if. *)
        (match (peek st).tok with
        | KW "if" -> [ parse_stmt st ]
        | _ -> parse_block st)
      | _ -> []
    in
    Ast.If (fresh st, c, b1, b2)
  | KW "while" ->
    advance st;
    expect_punct st "(";
    let c = parse_expr st in
    expect_punct st ")";
    let body = parse_loop_body st in
    Ast.While (fresh st, c, body)
  | KW "for" ->
    advance st;
    expect_punct st "(";
    let v = expect_ident st in
    expect_punct st "=";
    let init = parse_expr st in
    expect_punct st ";";
    let v2 = expect_ident st in
    if v <> v2 then err st "for: condition variable must match induction variable";
    expect_punct st "<";
    let limit = parse_expr st in
    expect_punct st ")";
    let body = parse_loop_body st in
    Ast.For (fresh st, v, init, limit, body)
  | KW "print" ->
    advance st;
    expect_punct st "(";
    let fmt =
      match (peek st).tok with
      | STRING s ->
        advance st;
        s
      | _ -> err st "print: expected format string"
    in
    let args =
      let rec loop acc =
        if accept_punct st "," then loop (parse_expr st :: acc)
        else begin
          expect_punct st ")";
          List.rev acc
        end
      in
      loop []
    in
    expect_punct st ";";
    Ast.Print (fresh st, fmt, args)
  | KW "free" ->
    advance st;
    expect_punct st "(";
    let e = parse_expr st in
    expect_punct st ")";
    expect_punct st ";";
    Ast.Free (fresh st, None, e)
  | KW "store1" ->
    advance st;
    expect_punct st "(";
    let addr = parse_expr st in
    expect_punct st ",";
    let v = parse_expr st in
    expect_punct st ")";
    expect_punct st ";";
    Ast.Store (fresh st, S1, addr, v)
  | KW "return" ->
    advance st;
    if accept_punct st ";" then Ast.Return None
    else begin
      let e = parse_expr st in
      expect_punct st ";";
      Ast.Return (Some e)
    end
  | KW "break" ->
    loop_only st;
    expect_punct st ";";
    Ast.Break
  | KW "continue" ->
    loop_only st;
    expect_punct st ";";
    Ast.Continue
  | _ ->
    (* assignment or expression statement *)
    let e = parse_expr st in
    if accept_punct st "=" then begin
      let rhs = parse_expr st in
      expect_punct st ";";
      match e with
      | Ast.Local name -> Ast.Assign (name, rhs)
      | Ast.Load (_, size, addr) -> Ast.Store (fresh st, size, addr, rhs)
      | _ -> err st "bad assignment target"
    end
    else begin
      expect_punct st ";";
      Ast.Expr e
    end

(* ---- top level ------------------------------------------------------ *)

let parse_program ?(entry = "main") src =
  let st =
    { toks = Lexer.tokenize src; builder = Builder.create (); globals = Hashtbl.create 16;
      funcs = Hashtbl.create 16; calls = []; fname = ""; loops = 0 }
  in
  let globals = ref [] in
  let funcs = ref [] in
  let rec loop () =
    match (peek st).tok with
    | EOF -> ()
    | KW "global" ->
      advance st;
      let name = expect_ident st in
      let kind, words =
        if accept_punct st "[" then begin
          let n =
            match (peek st).tok with
            | INT n ->
              advance st;
              n
            | _ -> err st "global: array size must be an integer literal"
          in
          expect_punct st "]";
          (Garray, n)
        end
        else (Gscalar, 1)
      in
      expect_punct st ";";
      if Hashtbl.mem st.globals name then err st ("duplicate global " ^ name);
      Hashtbl.replace st.globals name kind;
      globals := Builder.global name (8 * words) :: !globals;
      loop ()
    | KW "fn" ->
      advance st;
      let name_tok = peek st in
      let name = expect_ident st in
      if Hashtbl.mem st.funcs name then invalid_at name_tok (Duplicate_function name);
      Hashtbl.replace st.funcs name ();
      st.fname <- name;
      expect_punct st "(";
      let params =
        if accept_punct st ")" then []
        else begin
          let rec ps acc =
            let p = expect_ident st in
            if accept_punct st "," then ps (p :: acc)
            else begin
              expect_punct st ")";
              List.rev (p :: acc)
            end
          in
          ps []
        end
      in
      let body = parse_block st in
      funcs := Builder.func name params body :: !funcs;
      loop ()
    | _ -> err st "expected 'global' or 'fn' at top level"
  in
  loop ();
  (* Every function is known now, so calls can be resolved. *)
  List.iter
    (fun (t : Lexer.located) ->
      match t.tok with
      | IDENT f when not (Hashtbl.mem st.funcs f || Validate.is_builtin f) ->
        invalid_at t (Unknown_function f)
      | _ -> ())
    (List.rev st.calls);
  if not (Hashtbl.mem st.funcs entry) then invalid_at (peek st) (Missing_entry entry);
  Builder.program st.builder ~globals:(List.rev !globals) ~funcs:(List.rev !funcs) ~entry

(* Friendly wrapper surfacing positions in the message. *)
let parse_program_exn ?entry src =
  try parse_program ?entry src with
  | Parse_error (msg, line, col) ->
    failwith (Printf.sprintf "Cmini parse error at %d:%d: %s" line col msg)
  | Lexer.Lex_error (msg, line, col) ->
    failwith (Printf.sprintf "Cmini lex error at %d:%d: %s" line col msg)
