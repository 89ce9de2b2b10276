(* Lexer for Cmini, the C-like surface language the workloads are
   written in.  Hand-written (no menhir in the sealed environment);
   tracks line/column for error reporting.

   One [match] on the current byte picks each token, and no probe
   allocates: operators resolve through nested matches to shared
   literal tokens, keywords through a [match] on the identifier text.
   The current line and the index of its first byte change only where
   a newline can occur (whitespace, comments, strings); a column is
   derived from them. *)

type token =
  | INT of int
  | FLOAT of float
  | IDENT of string
  | STRING of string
  | KW of string (* keywords: global fn var if else while for ... *)
  | PUNCT of string (* operators and delimiters *)
  | EOF

type located = { tok : token; line : int; col : int }

exception Lex_error of string * int * int

let token_to_string = function
  | INT n -> string_of_int n
  | FLOAT f -> Printf.sprintf "%g" f
  | IDENT s -> s
  | STRING s -> Printf.sprintf "%S" s
  | KW s -> s
  | PUNCT s -> s
  | EOF -> "<eof>"

let is_digit c = c >= '0' && c <= '9'

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
  | _ -> false

(* A keyword's shared token, else an identifier. *)
let word = function
  | "global" -> KW "global"
  | "fn" -> KW "fn"
  | "var" -> KW "var"
  | "if" -> KW "if"
  | "else" -> KW "else"
  | "while" -> KW "while"
  | "for" -> KW "for"
  | "print" -> KW "print"
  | "free" -> KW "free"
  | "return" -> KW "return"
  | "break" -> KW "break"
  | "continue" -> KW "continue"
  | "malloc" -> KW "malloc"
  | "load1" -> KW "load1"
  | "store1" -> KW "store1"
  | "itof" -> KW "itof"
  | "ftoi" -> KW "ftoi"
  | text -> IDENT text

let tokenize src =
  let n = String.length src in
  let toks = ref [] in
  let line = ref 1 and bol = ref 0 in
  (* Start of the current token, whitespace byte or comment: where a
     token is located, and where EOF is once the input runs out. *)
  let tok_line = ref 1 and tok_col = ref 1 in
  let err msg i = raise (Lex_error (msg, !line, i - !bol + 1)) in
  let newline i =
    incr line;
    bol := i + 1
  in
  (* Emit [tok], [len] bytes from [i]; the index after it. *)
  let emit tok i len =
    toks := { tok; line = !tok_line; col = !tok_col } :: !toks;
    i + len
  in
  (* The byte at [j], or NUL past the end, where no operator continues. *)
  let peek j = if j < n then String.unsafe_get src j else '\000' in
  let rec digits j = if j < n && is_digit (String.unsafe_get src j) then digits (j + 1) else j in
  let rec ident_end j =
    if j < n && is_ident_char (String.unsafe_get src j) then ident_end (j + 1) else j
  in
  let rec line_comment j =
    if j < n && String.unsafe_get src j <> '\n' then line_comment (j + 1) else j
  in
  let rec block_comment j =
    if j >= n then err "unterminated comment" n
    else
      match String.unsafe_get src j with
      | '*' when peek (j + 1) = '/' -> j + 2
      | '\n' ->
        newline j;
        block_comment (j + 1)
      | _ -> block_comment (j + 1)
  in
  let string_lit i =
    let buf = Buffer.create 16 in
    let rec go j =
      if j >= n then err "unterminated string" n
      else
        match String.unsafe_get src j with
        | '"' -> emit (STRING (Buffer.contents buf)) i (j + 1 - i)
        | '\\' when j + 1 < n ->
          (match String.unsafe_get src (j + 1) with
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | '\\' -> Buffer.add_char buf '\\'
          | '"' -> Buffer.add_char buf '"'
          | e -> err (Printf.sprintf "bad escape \\%c" e) j);
          go (j + 2)
        | d ->
          if d = '\n' then newline j;
          Buffer.add_char buf d;
          go (j + 1)
    in
    go (i + 1)
  in
  let number i =
    let j = digits i in
    (* A '.' introduces a float only when followed by a digit, so that
       the float operators (+., <., ...) never swallow a trailing dot
       of an integer operand. *)
    let frac = peek j = '.' && is_digit (peek (j + 1)) in
    let j = if frac then digits (j + 1) else j in
    let exp = match peek j with 'e' | 'E' -> true | _ -> false in
    let j =
      if not exp then j
      else digits (match peek (j + 1) with '+' | '-' -> j + 2 | _ -> j + 1)
    in
    let text = String.sub src i (j - i) in
    if frac || exp then
      match float_of_string_opt text with
      | Some v -> emit (FLOAT v) i (j - i)
      | None -> err ("bad float literal " ^ text) i
    else
      match int_of_string_opt text with
      | Some v -> emit (INT v) i (j - i)
      | None -> err ("bad integer literal " ^ text) i
  in
  let next i =
    match String.unsafe_get src i with
    | ' ' | '\t' | '\r' -> i + 1
    | '\n' ->
      newline i;
      i + 1
    | 'a' .. 'z' | 'A' .. 'Z' | '_' ->
      let j = ident_end (i + 1) in
      emit (word (String.sub src i (j - i))) i (j - i)
    | '0' .. '9' -> number i
    | '.' when is_digit (peek (i + 1)) -> number i
    | '"' -> string_lit i
    | '(' -> emit (PUNCT "(") i 1
    | ')' -> emit (PUNCT ")") i 1
    | '{' -> emit (PUNCT "{") i 1
    | '}' -> emit (PUNCT "}") i 1
    | '[' -> emit (PUNCT "[") i 1
    | ']' -> emit (PUNCT "]") i 1
    | ';' -> emit (PUNCT ";") i 1
    | ',' -> emit (PUNCT ",") i 1
    | '%' -> emit (PUNCT "%") i 1
    | '^' -> emit (PUNCT "^") i 1
    | '~' -> emit (PUNCT "~") i 1
    | '+' -> if peek (i + 1) = '.' then emit (PUNCT "+.") i 2 else emit (PUNCT "+") i 1
    | '-' -> if peek (i + 1) = '.' then emit (PUNCT "-.") i 2 else emit (PUNCT "-") i 1
    | '*' -> if peek (i + 1) = '.' then emit (PUNCT "*.") i 2 else emit (PUNCT "*") i 1
    | '/' -> (
      match peek (i + 1) with
      | '/' -> line_comment (i + 2)
      | '*' -> block_comment (i + 2)
      | '.' -> emit (PUNCT "/.") i 2
      | _ -> emit (PUNCT "/") i 1)
    | '<' -> (
      match peek (i + 1) with
      | '=' -> if peek (i + 2) = '.' then emit (PUNCT "<=.") i 3 else emit (PUNCT "<=") i 2
      | '<' -> emit (PUNCT "<<") i 2
      | '.' -> emit (PUNCT "<.") i 2
      | _ -> emit (PUNCT "<") i 1)
    | '>' -> (
      match peek (i + 1) with
      | '=' -> if peek (i + 2) = '.' then emit (PUNCT ">=.") i 3 else emit (PUNCT ">=") i 2
      | '>' -> emit (PUNCT ">>") i 2
      | '.' -> emit (PUNCT ">.") i 2
      | _ -> emit (PUNCT ">") i 1)
    | '=' ->
      if peek (i + 1) <> '=' then emit (PUNCT "=") i 1
      else if peek (i + 2) = '.' then emit (PUNCT "==.") i 3
      else emit (PUNCT "==") i 2
    | '!' ->
      if peek (i + 1) <> '=' then emit (PUNCT "!") i 1
      else if peek (i + 2) = '.' then emit (PUNCT "!=.") i 3
      else emit (PUNCT "!=") i 2
    | '&' -> if peek (i + 1) = '&' then emit (PUNCT "&&") i 2 else emit (PUNCT "&") i 1
    | '|' -> if peek (i + 1) = '|' then emit (PUNCT "||") i 2 else emit (PUNCT "|") i 1
    | c -> err (Printf.sprintf "unexpected character %C" c) i
  in
  let i = ref 0 in
  while !i < n do
    tok_line := !line;
    tok_col := !i - !bol + 1;
    i := next !i
  done;
  ignore (emit EOF n 0);
  List.rev !toks
