(* Source-like pretty-printer for IR programs.

   Used by the CLI's [dump] command and by the Figure-2 style
   before/after listings: the transformed program renders its heap
   placements inline, so a reader can compare it with the paper's
   motivating example.  The checks the paper inserts are not in the
   program; the runtime performs them from the manifest. *)

open Ast

let unop_str = function
  | Neg -> "-"
  | Not -> "!"
  | Bnot -> "~"
  | Fneg -> "-."
  | Ftoi -> "(int)"
  | Itof -> "(float)"

let binop_str = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Rem -> "%"
  | Band -> "&" | Bor -> "|" | Bxor -> "^" | Shl -> "<<" | Shr -> ">>"
  | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">=" | Eq -> "==" | Ne -> "!="
  | Fadd -> "+." | Fsub -> "-." | Fmul -> "*." | Fdiv -> "/."
  | Flt -> "<." | Fle -> "<=." | Fgt -> ">." | Fge -> ">=." | Feq -> "==." | Fne -> "!=."

let heap_str h = Heap.name h

let rec expr_str e =
  match e with
  | Int n -> string_of_int n
  | Float f -> Printf.sprintf "%g" f
  | Local n -> n
  | Global_addr n -> "&" ^ n
  | Load (_, S8, a) -> Printf.sprintf "load(%s)" (expr_str a)
  | Load (_, S1, a) -> Printf.sprintf "load1(%s)" (expr_str a)
  | Unop (op, a) -> Printf.sprintf "%s(%s)" (unop_str op) (expr_str a)
  | Binop (op, a, b) -> Printf.sprintf "(%s %s %s)" (expr_str a) (binop_str op) (expr_str b)
  | And (a, b) -> Printf.sprintf "(%s && %s)" (expr_str a) (expr_str b)
  | Or (a, b) -> Printf.sprintf "(%s || %s)" (expr_str a) (expr_str b)
  | Call (_, fn, args) ->
    Printf.sprintf "%s(%s)" fn (String.concat ", " (List.map expr_str args))
  | Alloc (_, kind, heap, size) ->
    let fn = match kind with Malloc -> "malloc" | Salloc -> "salloc" in
    let placement = match heap with None -> "" | Some h -> ", " ^ heap_str h in
    Printf.sprintf "%s(%s%s)" fn (expr_str size) placement

let rec stmt_lines indent stmt =
  let pad = String.make indent ' ' in
  match stmt with
  | Assign (n, e) -> [ Printf.sprintf "%s%s = %s;" pad n (expr_str e) ]
  | Store (_, size, a, v) ->
    let fn = match size with S8 -> "store" | S1 -> "store1" in
    [ Printf.sprintf "%s%s(%s, %s);" pad fn (expr_str a) (expr_str v) ]
  | If (_, c, b1, []) ->
    (Printf.sprintf "%sif (%s) {" pad (expr_str c) :: block_lines (indent + 2) b1)
    @ [ pad ^ "}" ]
  | If (_, c, b1, b2) ->
    (Printf.sprintf "%sif (%s) {" pad (expr_str c) :: block_lines (indent + 2) b1)
    @ [ pad ^ "} else {" ]
    @ block_lines (indent + 2) b2
    @ [ pad ^ "}" ]
  | While (id, c, b) ->
    (Printf.sprintf "%swhile (%s) {  // loop %d" pad (expr_str c) id
     :: block_lines (indent + 2) b)
    @ [ pad ^ "}" ]
  | For (id, v, init, limit, b) ->
    (Printf.sprintf "%sfor (%s = %s; %s < %s) {  // loop %d" pad v (expr_str init) v
       (expr_str limit) id
     :: block_lines (indent + 2) b)
    @ [ pad ^ "}" ]
  | Expr e -> [ Printf.sprintf "%s%s;" pad (expr_str e) ]
  | Free (_, heap, p) ->
    let placement = match heap with None -> "" | Some h -> ", " ^ heap_str h in
    [ Printf.sprintf "%sfree(%s%s);" pad (expr_str p) placement ]
  | Return (Some e) -> [ Printf.sprintf "%sreturn %s;" pad (expr_str e) ]
  | Return None -> [ pad ^ "return;" ]
  | Break -> [ pad ^ "break;" ]
  | Continue -> [ pad ^ "continue;" ]
  | Print (_, fmt, args) ->
    let args = List.map expr_str args in
    [ Printf.sprintf "%sprint(%S%s);" pad fmt
        (if args = [] then "" else ", " ^ String.concat ", " args) ]

and block_lines indent blk = List.concat_map (stmt_lines indent) blk

let func_str f =
  let header = Printf.sprintf "fn %s(%s) {" f.fname (String.concat ", " f.params) in
  String.concat "\n" ((header :: block_lines 2 f.body) @ [ "}" ])

let global_str g =
  let placement = match g.gheap with None -> "" | Some h -> " @" ^ heap_str h in
  Printf.sprintf "global %s[%d]%s;" g.gname g.gbytes placement

let program_str p =
  let globals = List.map global_str p.globals in
  let funcs = List.map func_str p.funcs in
  String.concat "\n" (globals @ ("" :: funcs))
