(* The Cmini lexer as it was before the one-dispatch rewrite of
   lib/lang/lexer.ml, kept verbatim as that lexer's oracle: a
   [String.sub] per [starts_with] probe, the multi-character operators
   tried one at a time, keywords found by [List.mem].  It produces the
   production lexer's located tokens and raises its [Lex_error]. *)

open Privateer_lang.Lexer

let keywords =
  [ "global"; "fn"; "var"; "if"; "else"; "while"; "for"; "print"; "free";
    "return"; "break"; "continue"; "malloc"; "load1"; "store1"; "itof"; "ftoi" ]

(* Multi-character operators, longest first so matching is greedy. *)
let multi_ops =
  [ "<=."; ">=."; "==."; "!=."; "&&"; "||"; "<<"; ">>"; "<="; ">="; "=="; "!=";
    "+."; "-."; "*."; "/."; "<."; ">." ]

let single_ops = "+-*/%<>=!&|^~(){}[];,"

let tokenize src =
  let n = String.length src in
  let toks = ref [] in
  let line = ref 1 and col = ref 1 in
  let i = ref 0 in
  let err msg = raise (Lex_error (msg, !line, !col)) in
  let advance k =
    for j = !i to min (n - 1) (!i + k - 1) do
      if src.[j] = '\n' then begin
        incr line;
        col := 1
      end
      else incr col
    done;
    i := !i + k
  in
  (* Token positions are captured at the start of each token. *)
  let tok_line = ref 1 and tok_col = ref 1 in
  let emit tok = toks := { tok; line = !tok_line; col = !tok_col } :: !toks in
  let starts_with s =
    let l = String.length s in
    !i + l <= n && String.sub src !i l = s
  in
  while !i < n do
    tok_line := !line;
    tok_col := !col;
    let c = src.[!i] in
    if c = ' ' || c = '\t' || c = '\r' || c = '\n' then advance 1
    else if starts_with "//" then begin
      while !i < n && src.[!i] <> '\n' do
        advance 1
      done
    end
    else if starts_with "/*" then begin
      advance 2;
      let closed = ref false in
      while (not !closed) && !i < n do
        if starts_with "*/" then begin
          advance 2;
          closed := true
        end
        else advance 1
      done;
      if not !closed then err "unterminated comment"
    end
    else if c = '"' then begin
      let buf = Buffer.create 16 in
      let start_i = !i in
      advance 1;
      let closed = ref false in
      while (not !closed) && !i < n do
        let d = src.[!i] in
        if d = '"' then begin
          advance 1;
          closed := true
        end
        else if d = '\\' && !i + 1 < n then begin
          (match src.[!i + 1] with
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | '\\' -> Buffer.add_char buf '\\'
          | '"' -> Buffer.add_char buf '"'
          | e -> err (Printf.sprintf "bad escape \\%c" e));
          advance 2
        end
        else begin
          Buffer.add_char buf d;
          advance 1
        end
      done;
      if not !closed then err "unterminated string";
      ignore start_i;
      emit (STRING (Buffer.contents buf))
    end
    else if (c >= '0' && c <= '9')
            || (c = '.' && !i + 1 < n && src.[!i + 1] >= '0' && src.[!i + 1] <= '9')
    then begin
      let j = ref !i in
      let is_float = ref false in
      let digit ch = ch >= '0' && ch <= '9' in
      while !j < n && digit src.[!j] do
        incr j
      done;
      (* A '.' introduces a float only when followed by a digit, so that
         the float operators (+., <., ...) never swallow a trailing dot
         of an integer operand. *)
      if !j < n && src.[!j] = '.' && !j + 1 < n && digit src.[!j + 1] then begin
        is_float := true;
        incr j;
        while !j < n && digit src.[!j] do
          incr j
        done
      end;
      if !j < n && (src.[!j] = 'e' || src.[!j] = 'E') then begin
        is_float := true;
        incr j;
        if !j < n && (src.[!j] = '+' || src.[!j] = '-') then incr j;
        while !j < n && digit src.[!j] do
          incr j
        done
      end;
      let text = String.sub src !i (!j - !i) in
      (if !is_float then (
         match float_of_string_opt text with
         | Some v -> emit (FLOAT v)
         | None -> err ("bad float literal " ^ text))
       else
         match int_of_string_opt text with
         | Some v -> emit (INT v)
         | None -> err ("bad integer literal " ^ text));
      advance (!j - !i)
    end
    else if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' then begin
      let j = ref !i in
      let ident_char ch =
        (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z')
        || (ch >= '0' && ch <= '9') || ch = '_'
      in
      while !j < n && ident_char src.[!j] do
        incr j
      done;
      let text = String.sub src !i (!j - !i) in
      emit (if List.mem text keywords then KW text else IDENT text);
      advance (!j - !i)
    end
    else begin
      match List.find_opt starts_with multi_ops with
      | Some op ->
        emit (PUNCT op);
        advance (String.length op)
      | None ->
        if String.contains single_ops c then begin
          emit (PUNCT (String.make 1 c));
          advance 1
        end
        else err (Printf.sprintf "unexpected character %C" c)
    end
  done;
  emit EOF;
  List.rev !toks
