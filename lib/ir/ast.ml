(* The Privateer intermediate representation.

   A structured, dynamically-typed IR in the spirit of the paper's
   LLVM substrate: programs manipulate 64-bit integers/pointers and
   floats, access a byte-addressable memory through sized loads and
   stores, and allocate objects dynamically.  Every memory-touching
   site (load, store, alloc, free, call, loop) carries a unique static
   [node_id]; the profilers and the transformation key all their facts
   on these ids, exactly as the paper keys facts on LLVM instructions.
   The IR has no speculation statements: the transformation only
   re-homes allocations, and the runtime performs every check from the
   manifest at these ids.

   Control flow is structured (if/while/for) rather than a CFG: loop
   identification is then syntactic, which matches the paper's use of
   natural loops without requiring a dominator analysis substrate. *)

type node_id = int

type size = S1 | S8

type unop =
  | Neg (* integer negate *)
  | Not (* logical not: 0 -> 1, nonzero -> 0 *)
  | Bnot (* bitwise complement *)
  | Fneg
  | Ftoi (* truncate float to int *)
  | Itof

type binop =
  | Add | Sub | Mul | Div | Rem
  | Band | Bor | Bxor | Shl | Shr
  | Lt | Le | Gt | Ge | Eq | Ne
  | Fadd | Fsub | Fmul | Fdiv
  | Flt | Fle | Fgt | Fge | Feq | Fne

(* Whether updates through this operator form an associative and
   commutative reduction (paper's Reduction Criterion). *)
let is_reduction_op = function
  | Add | Mul | Band | Bor | Bxor | Fadd | Fmul -> true
  | Sub | Div | Rem | Shl | Shr | Lt | Le | Gt | Ge | Eq | Ne
  | Fsub | Fdiv | Flt | Fle | Fgt | Fge | Feq | Fne -> false

type alloc_kind =
  | Malloc (* heap allocation; lives until freed *)
  | Salloc (* stack slot; freed automatically at function exit *)

type expr =
  | Int of int
  | Float of float
  | Local of string (* register read *)
  | Global_addr of string (* address of a global object *)
  | Load of node_id * size * expr
  | Unop of unop * expr
  | Binop of binop * expr * expr
  (* Short-circuit boolean connectives (right operand conditionally
     evaluated, so conditions like [p != 0 && p[0] > x] are safe). *)
  | And of expr * expr
  | Or of expr * expr
  | Call of node_id * string * expr list
  (* [Alloc (id, kind, heap, size_bytes)]: [heap = None] means the
     untransformed program's default placement; the privatization
     transform rewrites it to [Some h] (paper section 4.4). *)
  | Alloc of node_id * alloc_kind * Heap.kind option * expr

type stmt =
  | Assign of string * expr
  | Store of node_id * size * expr * expr (* addr, value *)
  | If of node_id * expr * block * block
  | While of node_id * expr * block
  (* [For (id, var, init, limit, body)]: var from init while var < limit,
     step +1.  DOALL parallelization targets these loops. *)
  | For of node_id * string * expr * expr * block
  | Expr of expr (* evaluate for side effects, e.g. a call *)
  | Free of node_id * Heap.kind option * expr
  | Return of expr option
  | Break
  | Continue
  | Print of node_id * string * expr list (* printf-style; %d %f %x *)

and block = stmt list

type func = {
  fname : string;
  params : string list;
  body : block;
}

type global = {
  gname : string;
  gbytes : int; (* size in bytes, zero-initialized *)
  gheap : Heap.kind option; (* None before transformation *)
}

type program = {
  globals : global list;
  funcs : func list;
  entry : string; (* name of the entry function, usually "main" *)
  next_id : int; (* first unused node id *)
}

let find_func program name =
  List.find_opt (fun f -> f.fname = name) program.funcs

let find_global program name =
  List.find_opt (fun g -> g.gname = name) program.globals

(* Iterate over every statement of a block, recursing into nested
   blocks.  Shared by analyses that need all statements of a region. *)
let rec iter_stmts f blk =
  List.iter
    (fun stmt ->
      f stmt;
      match stmt with
      | If (_, _, b1, b2) ->
        iter_stmts f b1;
        iter_stmts f b2
      | While (_, _, b) | For (_, _, _, _, b) -> iter_stmts f b
      | Assign _ | Store _ | Expr _ | Free _ | Return _ | Break | Continue
      | Print _ -> ())
    blk

(* Iterate over every expression appearing in a block (including
   sub-expressions), recursing into nested blocks. *)
let rec iter_exprs f blk =
  let rec on_expr e =
    f e;
    match e with
    | Int _ | Float _ | Local _ | Global_addr _ -> ()
    | Load (_, _, e1) | Unop (_, e1) | Alloc (_, _, _, e1) -> on_expr e1
    | Binop (_, e1, e2) | And (e1, e2) | Or (e1, e2) ->
      on_expr e1;
      on_expr e2
    | Call (_, _, args) -> List.iter on_expr args
  in
  List.iter
    (fun stmt ->
      match stmt with
      | Assign (_, e) | Expr e | Free (_, _, e) | Return (Some e) -> on_expr e
      | Store (_, _, a, v) ->
        on_expr a;
        on_expr v
      | Print (_, _, args) -> List.iter on_expr args
      | If (_, c, b1, b2) ->
        on_expr c;
        iter_exprs f b1;
        iter_exprs f b2
      | While (_, c, b) ->
        on_expr c;
        iter_exprs f b
      | For (_, _, init, limit, b) ->
        on_expr init;
        on_expr limit;
        iter_exprs f b
      | Return None | Break | Continue -> ())
    blk

(* All loop headers (For and While) in a block, outermost first. *)
let rec loops_of_block blk =
  List.concat_map
    (fun stmt ->
      match stmt with
      | For (id, _, _, _, body) -> (id, stmt) :: loops_of_block body
      | While (id, _, body) -> (id, stmt) :: loops_of_block body
      | If (_, _, b1, b2) -> loops_of_block b1 @ loops_of_block b2
      | Assign _ | Store _ | Expr _ | Free _ | Return _ | Break | Continue
      | Print _ -> [])
    blk

let loops_of_program program =
  List.concat_map (fun f -> List.map (fun l -> (f, l)) (loops_of_block f.body)) program.funcs
