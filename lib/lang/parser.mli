(** Recursive-descent parser for Cmini, lowering directly to the IR.

    Cmini is deliberately close to C's memory model: untyped 64-bit
    words, word subscripts ([e1\[e2\]] is the word at [e1 + 8*e2]),
    [malloc]/[free] in words, byte access via [load1]/[store1],
    distinct float operators ([+.], [<.], ...), scalar globals reading
    as values and array globals as base addresses, [&g] for any
    global's address, and [var a\[n\]] for stack arrays. *)

exception Parse_error of string * int * int
(** Message, line, column. *)

(** Parse a whole program.  The result passes
    {!Privateer_ir.Validate.check}: what the validator would reject is
    a [Parse_error] with the validator's text at the offending token,
    namely a call to an unknown non-builtin function (at the callee,
    once every function is known), [break]/[continue] outside a loop
    (at the keyword), a duplicate function (at the second definition's
    name) and a missing entry function (at EOF).
    @param entry entry function name, default ["main"]
    @raise Parse_error / {!Lexer.Lex_error} on malformed input. *)
val parse_program : ?entry:string -> string -> Privateer_ir.Ast.program

(** Like {!parse_program}, but turns errors into [Failure] with the
    position formatted into the message. *)
val parse_program_exn : ?entry:string -> string -> Privateer_ir.Ast.program
