(* The IR interpreter: a deterministic simulated machine.

   Runs a program against a Machine (paged memory + per-heap
   allocators), firing instrumentation hooks at every memory, loop and
   branch event and charging cycle costs from a cost table.  The
   speculative runtime's checks run in its hooks; the program carries
   none.  The DOALL executor intercepts a chosen For loop through
   [parallel_for]; everything else (profiling runs, sequential
   baselines, worker-iteration execution, sequential recovery) is this
   same evaluator.

   [create] lowers every function once into OCaml closures: names are
   resolved at lowering time, so a local is an int slot in the frame's
   value array, a global is its laid-out address and a callee is its
   lowered function.  Each expression lowers to a typed code: a
   constant (a literal or global address, boxed once for value
   contexts), a slot read, or a closure known to return an [int], a
   [float], a [bool] or a [Value.t] (8-byte loads and user calls).  A
   value is boxed only where it crosses a dynamic boundary: a slot
   assignment, call arguments and results, store values (the
   [on_store] hook's [~value]), print arguments, and [==]/[!=] unless
   both operands are ints.  The conversions are this module's own.

   The hot nodes fix each operand's shape at lowering: int and float
   arithmetic and comparisons, subscripted 8-byte loads and stores,
   [Assign] and [If].  An operand is a constant converted once to the
   context's type, a local slot, a closure of the context's type or a
   closure read as a value, and the node is one closure per
   combination of its operands' shapes, so it reads them with no
   run-time match; only its operator is switched on at run time.  Each
   combination instantiates one [@inline] body with literal shape
   arguments, the form the non-flambda compiler folds.  The other nodes
   read their operands through the generic [read_*] readers, which
   match on the operand's code.

   The default build compiles with [-opaque], so every cross-module
   call is a real call, and a call of an unknown closure with two or
   more arguments goes through the runtime's arity check
   ([caml_apply2]).  The hot path follows one rule: a node calls its
   operands with one argument, and an aligned 8-byte access makes one
   cross-module call, the page lookup, before its hook.  Hence:
   - every lowered closure takes the frame alone.  The frame records
     the interpreter running it: [new_frame] binds a callee's frame to
     its caller's interpreter, and [run_iteration], which every worker
     and recovery iteration goes through, binds the frame it runs, so
     a worker's frame copy runs on its fork.  [fork] shares the
     closures;
   - an aligned 8-byte load or store resolves its page with
     [Memory.page_for_read] (the shared all-zero page when unmapped) or
     [Memory.touch_page], and reads or writes the word and its float
     tag here; only an unaligned address goes through
     [Machine.read_word] and [write_word];
   - a subscript [a[i]], which the parser builds as
     [base + 8 * index], is evaluated inside its load or store closure
     ([subscript]) with the steps, charges and int conversions of the
     three nodes it replaces, in their order.
   The observables are fixed (test_interp pins them for every shape
   combination): one step per expression node and per statement, a
   subscript's three nodes included, cycle charges and hooks in
   evaluation order, int conversions after the node's charge, right
   operand first, and the error texts. *)

open Privateer_ir
open Privateer_machine

exception Runtime_error = Value.Runtime_error

let error fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

type frame = {
  slots : Value.t array; (* one per local name of the function *)
  names : (string, int) Hashtbl.t; (* the function's local name -> slot *)
  (* Stack slots to auto-free at function exit: (alloc site, address). *)
  mutable frame_allocs : (Ast.node_id * int) list;
  (* The interpreter running this activation: [new_frame] binds it and
     [run_iteration] rebinds a frame copy to its fork. *)
  mutable interp : t;
}

and t = {
  program : Ast.program;
  machine : Machine.t;
  globals : (string, int) Hashtbl.t; (* name -> base address *)
  cost : Cost.t;
  code : code;
  mutable hooks : Hooks.t;
  mutable cycles : int;
  mutable ctx : int list; (* enclosing call/loop node ids, innermost first *)
  mutable emit : string -> unit;
  output : Buffer.t;
  mutable steps : int;
  max_steps : int;
  (* Set by the DOALL executor: called on For loops once their bounds
     are evaluated; returns true when the loop was executed in
     parallel (skip sequential execution). *)
  mutable parallel_for : (t -> frame -> loop -> init:int -> limit:int -> bool) option;
}

(* A For loop as the executor sees it. *)
and loop = { loop_id : Ast.node_id; induction : int; body : frame -> unit }

and fn = {
  arity : int;
  param_slots : int array;
  slot_names : (string, int) Hashtbl.t;
  nslots : int;
  mutable fbody : frame -> unit; (* set once every function is lowered *)
}

(* The entry function; every function it can call hangs off it. *)
and code = fn option

(* An unbound slot holds this value; it is compared physically and
   never escapes to the program. *)
let unbound = Value.VFloat (Sys.opaque_identity Float.nan)

let new_frame (fn : fn) st =
  { slots = Array.make fn.nslots unbound; names = fn.slot_names; frame_allocs = [];
    interp = st }

let copy_frame fr = { fr with slots = Array.copy fr.slots }

let find_local fr name =
  match Hashtbl.find_opt fr.names name with
  | Some slot when fr.slots.(slot) != unbound -> Some fr.slots.(slot)
  | Some _ | None -> None

let set_local fr name v =
  match Hashtbl.find_opt fr.names name with
  | Some slot -> fr.slots.(slot) <- v
  | None -> invalid_arg ("Interp.set_local: no local " ^ name)

let loop_id l = l.loop_id

let set_induction fr l v = fr.slots.(l.induction) <- Value.VInt v

let step_budget_exhausted () = error "step budget exhausted (infinite loop?)"

(* The count is read once: re-reading it after the store would cost a
   load on every node. *)
let[@inline] step st =
  let n = st.steps + 1 in
  st.steps <- n;
  if n > st.max_steps then step_budget_exhausted ()

let[@inline] charge st c = st.cycles <- st.cycles + c

exception Break_exc
exception Continue_exc
exception Return_exc of Value.t

(* Allocator failures (a double free, an exhausted heap) are program
   faults too. *)
let alloc st heap size =
  try Machine.alloc st.machine heap size with Failure msg -> raise (Runtime_error msg)

let free st addr =
  try Machine.free st.machine addr with Failure msg -> raise (Runtime_error msg)

let v_false = Value.VInt 0
let v_true = Value.VInt 1
let[@inline] of_bool b = if b then v_true else v_false

(* printf-style rendering: %d, %f, %x, %%. *)
let render_format fmt args =
  let buf = Buffer.create (String.length fmt + 16) in
  let args = ref args in
  let next () =
    match !args with
    | [] -> error "print: not enough arguments for %S" fmt
    | a :: rest ->
      args := rest;
      a
  in
  let n = String.length fmt in
  let i = ref 0 in
  while !i < n do
    (if fmt.[!i] = '%' && !i + 1 < n then begin
       (match fmt.[!i + 1] with
       | 'd' -> Buffer.add_string buf (string_of_int (Value.as_int (next ())))
       | 'f' -> Buffer.add_string buf (Printf.sprintf "%.6f" (Value.as_float (next ())))
       | 'x' -> Buffer.add_string buf (Printf.sprintf "%x" (Value.as_int (next ())))
       | '%' -> Buffer.add_char buf '%'
       | c -> error "print: bad directive %%%c" c);
       i := !i + 2
     end
     else begin
       Buffer.add_char buf fmt.[!i];
       incr i
     end)
  done;
  if !args <> [] then error "print: too many arguments for %S" fmt;
  Buffer.contents buf

(* ---- lowering ---------------------------------------------------------- *)

(* A lowered expression, by what it is known to produce.  A literal or
   global address is a constant, boxed once for value contexts, and a
   local read is its slot, so neither costs a closure call; every other
   node is a closure whose result type is fixed at lowering.  A closure
   takes the frame alone and finds its interpreter there, so calling it
   is a direct call. *)
type expr =
  | Const of Value.t
  | Slot of int * string (* the slot, and the name for the unbound error *)
  | Int_fn of (frame -> int)
  | Float_fn of (frame -> float)
  | Bool_fn of (frame -> bool)
  | Value_fn of (frame -> Value.t)

type stmt_code = frame -> unit

(* The value conversions, with [Value]'s error text.  They live here
   because the default build compiles with [-opaque], so [Value]'s
   would be real calls on the hot path. *)
let[@inline never] not_an_int f = error "expected int, got float %g" f
let[@inline] to_int : Value.t -> int = function VInt n -> n | VFloat f -> not_an_int f
let[@inline] to_float : Value.t -> float = function VFloat f -> f | VInt n -> float_of_int n

(* C-style truthiness: zero of either kind is false. *)
let[@inline] truthy : Value.t -> bool = function VInt n -> n <> 0 | VFloat f -> f <> 0.0

let[@inline never] unbound_local name = error "unbound local %s" name

(* Reading an operand in the context its consumer needs.  A constant or
   slot read is a node too: it counts its step here, when the consumer
   reads it.  [st] is [fr.interp], which the consumer has read once. *)

let[@inline] read_slot st fr slot name =
  step st;
  let v = fr.slots.(slot) in
  if v == unbound then unbound_local name else v

let[@inline] read_value e st fr =
  match e with
  | Const v ->
    step st;
    v
  | Slot (slot, name) -> read_slot st fr slot name
  | Int_fn f -> Value.VInt (f fr)
  | Float_fn f -> Value.VFloat (f fr)
  | Bool_fn f -> of_bool (f fr)
  | Value_fn f -> f fr

let[@inline] read_int e st fr =
  match e with
  | Const v ->
    step st;
    to_int v
  | Slot (slot, name) -> to_int (read_slot st fr slot name)
  | Int_fn f -> f fr
  | Float_fn f -> not_an_int (f fr)
  | Bool_fn f -> Bool.to_int (f fr)
  | Value_fn f -> to_int (f fr)

let[@inline] read_float e st fr =
  match e with
  | Const v ->
    step st;
    to_float v
  | Slot (slot, name) -> to_float (read_slot st fr slot name)
  | Int_fn f -> float_of_int (f fr)
  | Float_fn f -> f fr
  | Bool_fn f -> if f fr then 1.0 else 0.0
  | Value_fn f -> to_float (f fr)

let[@inline] read_truth e st fr =
  match e with
  | Const v ->
    step st;
    truthy v
  | Slot (slot, name) -> truthy (read_slot st fr slot name)
  | Int_fn f -> f fr <> 0
  | Float_fn f -> f fr <> 0.0
  | Bool_fn f -> f fr
  | Value_fn f -> truthy (f fr)

(* Evaluate argument codes left to right, as values. *)
let eval_args args st fr = Array.to_list (Array.map (fun a -> read_value a st fr) args)

(* The slot table of one function: parameters first, then every other
   name it assigns or reads, in order of appearance. *)
let slot_table (f : Ast.func) =
  let names = Hashtbl.create 16 in
  let add name =
    if not (Hashtbl.mem names name) then Hashtbl.add names name (Hashtbl.length names)
  in
  List.iter add f.params;
  Ast.iter_stmts
    (function Ast.Assign (x, _) | Ast.For (_, x, _, _, _) -> add x | _ -> ())
    f.body;
  Ast.iter_exprs (function Ast.Local x -> add x | _ -> ()) f.body;
  names

let[@inline never] division_by_zero () = error "division by zero"
let[@inline never] modulo_by_zero () = error "modulo by zero"

(* ---- operand shapes ---------------------------------------------------- *)

(* How a specialised node reads one operand, fixed at lowering:
   - [K]: a constant, converted once to the context's type;
   - [S]: a local slot;
   - [T]: a closure of the context's type (an int or bool closure in an
     int context, any typed closure in a float context);
   - [V]: a closure read as a value (an 8-byte load, a user call; in an
     int context also a float, which faults).
   A specialised node is one [@inline] body, instantiated once per
   combination of its operands' shapes by literal arguments, so each
   instance keeps only its shapes' reads and no run-time match on the
   operands is left.  In an int context [S] and [V] yield a value that
   is converted after the node's charge, right operand first, so a
   float operand faults where the unspecialised node would; a float
   context converts at the read, which never fails.  A bool closure in
   an int context and an int or bool closure in a float context are a
   [T] through a converting closure, which costs one more call, and in
   a float context a boxed result, than converting in place; the ports
   convert with [itof], so these shapes are rare. *)
type shape = K | S | T | V

(* One operand of a specialised node.  Only the fields its shape names
   are read; the rest are placeholders. *)
type 'a operand = {
  shape : shape;
  k : 'a; (* K *)
  slot : int; (* S, with the name for the unbound error *)
  name : string;
  typed : frame -> 'a; (* T *)
  boxed : frame -> Value.t; (* V *)
}

let int_shape = function
  | Const (VInt _) -> K
  | Slot _ -> S
  | Int_fn _ | Bool_fn _ -> T
  | Const (VFloat _) | Float_fn _ | Value_fn _ -> V

let int_placeholders : int operand =
  { shape = K; k = 0; slot = 0; name = ""; typed = (fun _ -> 0); boxed = (fun _ -> v_false) }

let float_placeholders : float operand =
  { shape = K; k = 0.0; slot = 0; name = ""; typed = (fun _ -> 0.0);
    boxed = (fun _ -> v_false) }

let int_operand e : int operand =
  let shape = int_shape e and o = int_placeholders in
  match e with
  | Const (VInt n) -> { o with shape; k = n }
  | Slot (slot, name) -> { o with shape; slot; name }
  | Int_fn f -> { o with shape; typed = f }
  | Bool_fn f -> { o with shape; typed = (fun fr -> Bool.to_int (f fr)) }
  | Value_fn f -> { o with shape; boxed = f }
  | Const (VFloat _ as v) -> { o with shape; boxed = (fun fr -> step fr.interp; v) }
  | Float_fn f -> { o with shape; boxed = (fun fr -> Value.VFloat (f fr)) }

let float_operand e : float operand =
  let o = float_placeholders in
  match e with
  | Const v -> { o with k = to_float v }
  | Slot (slot, name) -> { o with shape = S; slot; name }
  | Float_fn f -> { o with shape = T; typed = f }
  | Int_fn f -> { o with shape = T; typed = (fun fr -> float_of_int (f fr)) }
  | Bool_fn f -> { o with shape = T; typed = (fun fr -> if f fr then 1.0 else 0.0) }
  | Value_fn f -> { o with shape = V; boxed = f }

(* An int-context read, split by what the shape yields: [K] and [T] an
   int ([int_part]), [S] and [V] a value ([value_part]) that [as_int]
   converts after the charge.  The other part is a placeholder. *)
let[@inline] int_part sh (o : int operand) st fr =
  match sh with
  | K ->
    step st;
    o.k
  | T -> o.typed fr
  | S | V -> 0

let[@inline] value_part sh (o : int operand) st fr =
  match sh with
  | S -> read_slot st fr o.slot o.name
  | V -> o.boxed fr
  | K | T -> v_false

let[@inline] as_int sh x v = match sh with K | T -> x | S | V -> to_int v

let[@inline] float_read sh (o : float operand) st fr =
  match sh with
  | K ->
    step st;
    o.k
  | S -> to_float (read_slot st fr o.slot o.name)
  | T -> o.typed fr
  | V -> to_float (o.boxed fr)

let[@inline] int_arith ~a:sa ~b:sb (op : Ast.binop) c a b fr =
  let st = fr.interp in
  step st;
  let xa = int_part sa a st fr in
  let va = value_part sa a st fr in
  let xb = int_part sb b st fr in
  let vb = value_part sb b st fr in
  charge st c;
  let y = as_int sb xb vb in
  let x = as_int sa xa va in
  match op with
  | Add -> x + y
  | Sub -> x - y
  | Mul -> x * y
  | Div -> if y = 0 then division_by_zero () else x / y
  | Rem -> if y = 0 then modulo_by_zero () else x mod y
  | Band -> x land y
  | Bor -> x lor y
  | Bxor -> x lxor y
  | Shl -> x lsl y
  | _ -> x lsr y

let[@inline] int_compare ~a:sa ~b:sb (op : Ast.binop) c a b fr =
  let st = fr.interp in
  step st;
  let xa = int_part sa a st fr in
  let va = value_part sa a st fr in
  let xb = int_part sb b st fr in
  let vb = value_part sb b st fr in
  charge st c;
  let y = as_int sb xb vb in
  let x = as_int sa xa va in
  match op with Lt -> x < y | Le -> x <= y | Gt -> x > y | _ -> x >= y

let[@inline] float_arith ~a:sa ~b:sb (op : Ast.binop) c a b fr =
  let st = fr.interp in
  step st;
  let x = float_read sa a st fr in
  let y = float_read sb b st fr in
  charge st c;
  match op with Fadd -> x +. y | Fsub -> x -. y | Fmul -> x *. y | _ -> x /. y

let[@inline] float_compare ~a:sa ~b:sb (op : Ast.binop) c a b fr =
  let st = fr.interp in
  step st;
  let x = float_read sa a st fr in
  let y = float_read sb b st fr in
  charge st c;
  match op with
  | Flt -> x < y
  | Fle -> x <= y
  | Fgt -> x > y
  | Fge -> x >= y
  | Feq -> x = y
  | _ -> x <> y

(* One closure per pair of shapes.  Each line instantiates a body with
   literal shapes, which is what lets the compiler fold them. *)

let int_arith_node op c (a : int operand) (b : int operand) : frame -> int =
  match (a.shape, b.shape) with
  | K, K -> fun fr -> int_arith ~a:K ~b:K op c a b fr
  | K, S -> fun fr -> int_arith ~a:K ~b:S op c a b fr
  | K, T -> fun fr -> int_arith ~a:K ~b:T op c a b fr
  | K, V -> fun fr -> int_arith ~a:K ~b:V op c a b fr
  | S, K -> fun fr -> int_arith ~a:S ~b:K op c a b fr
  | S, S -> fun fr -> int_arith ~a:S ~b:S op c a b fr
  | S, T -> fun fr -> int_arith ~a:S ~b:T op c a b fr
  | S, V -> fun fr -> int_arith ~a:S ~b:V op c a b fr
  | T, K -> fun fr -> int_arith ~a:T ~b:K op c a b fr
  | T, S -> fun fr -> int_arith ~a:T ~b:S op c a b fr
  | T, T -> fun fr -> int_arith ~a:T ~b:T op c a b fr
  | T, V -> fun fr -> int_arith ~a:T ~b:V op c a b fr
  | V, K -> fun fr -> int_arith ~a:V ~b:K op c a b fr
  | V, S -> fun fr -> int_arith ~a:V ~b:S op c a b fr
  | V, T -> fun fr -> int_arith ~a:V ~b:T op c a b fr
  | V, V -> fun fr -> int_arith ~a:V ~b:V op c a b fr

let int_compare_node op c (a : int operand) (b : int operand) : frame -> bool =
  match (a.shape, b.shape) with
  | K, K -> fun fr -> int_compare ~a:K ~b:K op c a b fr
  | K, S -> fun fr -> int_compare ~a:K ~b:S op c a b fr
  | K, T -> fun fr -> int_compare ~a:K ~b:T op c a b fr
  | K, V -> fun fr -> int_compare ~a:K ~b:V op c a b fr
  | S, K -> fun fr -> int_compare ~a:S ~b:K op c a b fr
  | S, S -> fun fr -> int_compare ~a:S ~b:S op c a b fr
  | S, T -> fun fr -> int_compare ~a:S ~b:T op c a b fr
  | S, V -> fun fr -> int_compare ~a:S ~b:V op c a b fr
  | T, K -> fun fr -> int_compare ~a:T ~b:K op c a b fr
  | T, S -> fun fr -> int_compare ~a:T ~b:S op c a b fr
  | T, T -> fun fr -> int_compare ~a:T ~b:T op c a b fr
  | T, V -> fun fr -> int_compare ~a:T ~b:V op c a b fr
  | V, K -> fun fr -> int_compare ~a:V ~b:K op c a b fr
  | V, S -> fun fr -> int_compare ~a:V ~b:S op c a b fr
  | V, T -> fun fr -> int_compare ~a:V ~b:T op c a b fr
  | V, V -> fun fr -> int_compare ~a:V ~b:V op c a b fr

let float_arith_node op c (a : float operand) (b : float operand) : frame -> float =
  match (a.shape, b.shape) with
  | K, K -> fun fr -> float_arith ~a:K ~b:K op c a b fr
  | K, S -> fun fr -> float_arith ~a:K ~b:S op c a b fr
  | K, T -> fun fr -> float_arith ~a:K ~b:T op c a b fr
  | K, V -> fun fr -> float_arith ~a:K ~b:V op c a b fr
  | S, K -> fun fr -> float_arith ~a:S ~b:K op c a b fr
  | S, S -> fun fr -> float_arith ~a:S ~b:S op c a b fr
  | S, T -> fun fr -> float_arith ~a:S ~b:T op c a b fr
  | S, V -> fun fr -> float_arith ~a:S ~b:V op c a b fr
  | T, K -> fun fr -> float_arith ~a:T ~b:K op c a b fr
  | T, S -> fun fr -> float_arith ~a:T ~b:S op c a b fr
  | T, T -> fun fr -> float_arith ~a:T ~b:T op c a b fr
  | T, V -> fun fr -> float_arith ~a:T ~b:V op c a b fr
  | V, K -> fun fr -> float_arith ~a:V ~b:K op c a b fr
  | V, S -> fun fr -> float_arith ~a:V ~b:S op c a b fr
  | V, T -> fun fr -> float_arith ~a:V ~b:T op c a b fr
  | V, V -> fun fr -> float_arith ~a:V ~b:V op c a b fr

let float_compare_node op c (a : float operand) (b : float operand) : frame -> bool =
  match (a.shape, b.shape) with
  | K, K -> fun fr -> float_compare ~a:K ~b:K op c a b fr
  | K, S -> fun fr -> float_compare ~a:K ~b:S op c a b fr
  | K, T -> fun fr -> float_compare ~a:K ~b:T op c a b fr
  | K, V -> fun fr -> float_compare ~a:K ~b:V op c a b fr
  | S, K -> fun fr -> float_compare ~a:S ~b:K op c a b fr
  | S, S -> fun fr -> float_compare ~a:S ~b:S op c a b fr
  | S, T -> fun fr -> float_compare ~a:S ~b:T op c a b fr
  | S, V -> fun fr -> float_compare ~a:S ~b:V op c a b fr
  | T, K -> fun fr -> float_compare ~a:T ~b:K op c a b fr
  | T, S -> fun fr -> float_compare ~a:T ~b:S op c a b fr
  | T, T -> fun fr -> float_compare ~a:T ~b:T op c a b fr
  | T, V -> fun fr -> float_compare ~a:T ~b:V op c a b fr
  | V, K -> fun fr -> float_compare ~a:V ~b:K op c a b fr
  | V, S -> fun fr -> float_compare ~a:V ~b:S op c a b fr
  | V, T -> fun fr -> float_compare ~a:V ~b:T op c a b fr
  | V, V -> fun fr -> float_compare ~a:V ~b:V op c a b fr

(* An operand an int context reads with no conversion. *)
let int_typed e = match int_shape e with K | T -> true | S | V -> false

let lower_binop (op : Ast.binop) c a b =
  match op with
  | Add | Sub | Mul | Div | Rem | Band | Bor | Bxor | Shl | Shr ->
    Int_fn (int_arith_node op c (int_operand a) (int_operand b))
  | Lt | Le | Gt | Ge -> Bool_fn (int_compare_node op c (int_operand a) (int_operand b))
  | Fadd | Fsub | Fmul | Fdiv ->
    Float_fn (float_arith_node op c (float_operand a) (float_operand b))
  | Flt | Fle | Fgt | Fge | Feq | Fne ->
    Bool_fn (float_compare_node op c (float_operand a) (float_operand b))
  | Eq | Ne ->
    (* [Value.equal]'s rules: an int never equals a float, NaN equals
       NaN.  Two int operands compare unboxed. *)
    let eq = op = Eq in
    if not (int_typed a && int_typed b) then
      Bool_fn
        (fun fr ->
          let st = fr.interp in
          step st;
          let va = read_value a st fr in
          let vb = read_value b st fr in
          charge st c;
          let equal =
            match (va, vb) with VInt x, VInt y -> x = y | _ -> Value.equal va vb
          in
          equal = eq)
    else
      Bool_fn
        (fun fr ->
          let st = fr.interp in
          step st;
          let x = read_int a st fr in
          let y = read_int b st fr in
          charge st c;
          (x = y) = eq)

let[@inline] int_unop (op : Ast.unop) x =
  match op with Neg -> -x | Bnot -> lnot x | _ -> invalid_arg "Interp.int_unop"

let lower_unop (op : Ast.unop) c a =
  match op with
  | Neg | Bnot ->
    if not (int_typed a) then
      Int_fn
        (fun fr ->
          let st = fr.interp in
          step st;
          let v = read_value a st fr in
          charge st c;
          int_unop op (to_int v))
    else
      Int_fn
        (fun fr ->
          let st = fr.interp in
          step st;
          let x = read_int a st fr in
          charge st c;
          int_unop op x)
  | Not ->
    Bool_fn
      (fun fr ->
        let st = fr.interp in
        step st;
        let b = read_truth a st fr in
        charge st c;
        not b)
  | Fneg ->
    Float_fn
      (fun fr ->
        let st = fr.interp in
        step st;
        let x = read_float a st fr in
        charge st c;
        -.x)
  | Itof ->
    Float_fn
      (fun fr ->
        let st = fr.interp in
        step st;
        let x = read_float a st fr in
        charge st c;
        x)
  | Ftoi ->
    Int_fn
      (fun fr ->
        let st = fr.interp in
        step st;
        let x = read_float a st fr in
        charge st c;
        int_of_float x)

(* A builtin call: arguments, then the builtin charge, then the arity
   check and the operation. *)
let lower_builtin (cost : Cost.t) name args =
  let c = cost.c_builtin in
  let arity_error =
    Value_fn
      (fun fr ->
        let st = fr.interp in
        step st;
        ignore (eval_args args st fr);
        charge st c;
        error "%s: arity" name)
  in
  let f1 f =
    match args with
    | [| a |] ->
      Float_fn
        (fun fr ->
          let st = fr.interp in
          step st;
          let x = read_float a st fr in
          charge st c;
          f x)
    | _ -> arity_error
  in
  let f2 f =
    match args with
    | [| a; b |] ->
      Float_fn
        (fun fr ->
          let st = fr.interp in
          step st;
          let x = read_float a st fr in
          let y = read_float b st fr in
          charge st c;
          f x y)
    | _ -> arity_error
  in
  let i2 f =
    match args with
    | [| a; b |] ->
      Int_fn
        (fun fr ->
          let st = fr.interp in
          step st;
          let va = read_value a st fr in
          let vb = read_value b st fr in
          charge st c;
          let y = to_int vb in
          f (to_int va) y)
    | _ -> arity_error
  in
  match name with
  | "sqrt" -> f1 sqrt
  | "exp" -> f1 exp
  | "log" -> f1 log
  | "sin" -> f1 sin
  | "cos" -> f1 cos
  | "fabs" -> f1 abs_float
  | "floor" -> f1 floor
  | "pow" -> f2 ( ** )
  | "fmin" -> f2 min
  | "fmax" -> f2 max
  | "min" -> i2 min
  | "max" -> i2 max
  | "abs" -> (
    match args with
    | [| a |] ->
      Int_fn
        (fun fr ->
          let st = fr.interp in
          step st;
          let v = read_value a st fr in
          charge st c;
          abs (to_int v))
    | _ -> arity_error)
  | _ -> invalid_arg ("Interp: no implementation for builtin " ^ name)

(* ---- 8-byte accesses --------------------------------------------------- *)

let page_mask = Memory.page_size - 1

(* Unaligned (possibly page-crossing) words go through [Machine]'s
   byte-wise path. *)
let[@inline never] unaligned_load st addr =
  let bits, is_float = Machine.read_word st.machine addr in
  Value.of_bits bits is_float

let[@inline never] unaligned_store st addr v =
  let bits, is_float = Value.to_bits v in
  Machine.write_word st.machine addr bits is_float

(* An aligned word is read and written on its page: one call resolves
   the page ([page_for_read]'s all-zero page when unmapped), and the
   word and its float tag ([Memory.int_tag] or [float_tag]) are taken
   here, as the aligned branch of [Memory.read_word] and [write_word]
   would. *)
let[@inline] load_word st addr =
  if addr land 7 = 0 then begin
    let p = Memory.page_for_read st.machine.mem addr in
    let off = addr land page_mask in
    let bits = Bytes.get_int64_le p.bytes off in
    if Bytes.unsafe_get p.ftags (off lsr 3) = Memory.int_tag then Value.VInt (Int64.to_int bits)
    else Value.VFloat (Int64.float_of_bits bits)
  end
  else unaligned_load st addr

let[@inline] store_word st addr (v : Value.t) =
  if addr land 7 = 0 then begin
    let p = Memory.touch_page st.machine.mem addr in
    let off = addr land page_mask in
    match v with
    | VInt n ->
      Bytes.set_int64_le p.bytes off (Int64.of_int n);
      Bytes.unsafe_set p.ftags (off lsr 3) Memory.int_tag
    | VFloat f ->
      Bytes.set_int64_le p.bytes off (Int64.bits_of_float f);
      Bytes.unsafe_set p.ftags (off lsr 3) Memory.float_tag
  end
  else unaligned_store st addr v

(* The load's charge, the word, then the hook. *)
let[@inline] load8 st c id addr =
  charge st c;
  let v = load_word st addr in
  st.hooks.on_load id ~addr ~size:8 ~value:v;
  v

(* The store's charge, the hook (which sees pre-store memory), then the
   word. *)
let[@inline] store8 st c id addr v =
  charge st c;
  st.hooks.on_store id ~addr ~size:8 ~value:v;
  store_word st addr v

(* A subscript [base[index]], which the parser builds as
   [base + 8 * index], evaluated in place of those three nodes with
   their steps, charges and conversions in their order: the add's
   step, the base, the multiply's and the literal's steps, the index,
   the multiply's charge, the index's conversion, the add's charge and
   the base's conversion.  The base and the index are int-context
   operands, and [sb] and [si] their shapes. *)
let[@inline] subscript ~sb ~si c (base : int operand) (index : int operand) st fr =
  step st;
  let xb = int_part sb base st fr in
  let vb = value_part sb base st fr in
  step st;
  step st;
  let xi = int_part si index st fr in
  let vi = value_part si index st fr in
  charge st c;
  let off = 8 * as_int si xi vi in
  charge st c;
  as_int sb xb vb + off

let[@inline] subscript_load ~b:sb ~i:si ca cl id base index fr =
  let st = fr.interp in
  step st;
  let addr = subscript ~sb ~si ca base index st fr in
  load8 st cl id addr

let[@inline] subscript_store ~b:sb ~i:si ca cs id base index ev fr =
  let st = fr.interp in
  step st;
  let addr = subscript ~sb ~si ca base index st fr in
  let v = read_value ev st fr in
  store8 st cs id addr v

(* One closure per pair of base and index shapes, as for the binary
   nodes. *)

let subscript_load_node ca cl id (base : int operand) (index : int operand) : frame -> Value.t =
  match (base.shape, index.shape) with
  | K, K -> fun fr -> subscript_load ~b:K ~i:K ca cl id base index fr
  | K, S -> fun fr -> subscript_load ~b:K ~i:S ca cl id base index fr
  | K, T -> fun fr -> subscript_load ~b:K ~i:T ca cl id base index fr
  | K, V -> fun fr -> subscript_load ~b:K ~i:V ca cl id base index fr
  | S, K -> fun fr -> subscript_load ~b:S ~i:K ca cl id base index fr
  | S, S -> fun fr -> subscript_load ~b:S ~i:S ca cl id base index fr
  | S, T -> fun fr -> subscript_load ~b:S ~i:T ca cl id base index fr
  | S, V -> fun fr -> subscript_load ~b:S ~i:V ca cl id base index fr
  | T, K -> fun fr -> subscript_load ~b:T ~i:K ca cl id base index fr
  | T, S -> fun fr -> subscript_load ~b:T ~i:S ca cl id base index fr
  | T, T -> fun fr -> subscript_load ~b:T ~i:T ca cl id base index fr
  | T, V -> fun fr -> subscript_load ~b:T ~i:V ca cl id base index fr
  | V, K -> fun fr -> subscript_load ~b:V ~i:K ca cl id base index fr
  | V, S -> fun fr -> subscript_load ~b:V ~i:S ca cl id base index fr
  | V, T -> fun fr -> subscript_load ~b:V ~i:T ca cl id base index fr
  | V, V -> fun fr -> subscript_load ~b:V ~i:V ca cl id base index fr

let subscript_store_node ca cs id (base : int operand) (index : int operand) ev : frame -> unit =
  match (base.shape, index.shape) with
  | K, K -> fun fr -> subscript_store ~b:K ~i:K ca cs id base index ev fr
  | K, S -> fun fr -> subscript_store ~b:K ~i:S ca cs id base index ev fr
  | K, T -> fun fr -> subscript_store ~b:K ~i:T ca cs id base index ev fr
  | K, V -> fun fr -> subscript_store ~b:K ~i:V ca cs id base index ev fr
  | S, K -> fun fr -> subscript_store ~b:S ~i:K ca cs id base index ev fr
  | S, S -> fun fr -> subscript_store ~b:S ~i:S ca cs id base index ev fr
  | S, T -> fun fr -> subscript_store ~b:S ~i:T ca cs id base index ev fr
  | S, V -> fun fr -> subscript_store ~b:S ~i:V ca cs id base index ev fr
  | T, K -> fun fr -> subscript_store ~b:T ~i:K ca cs id base index ev fr
  | T, S -> fun fr -> subscript_store ~b:T ~i:S ca cs id base index ev fr
  | T, T -> fun fr -> subscript_store ~b:T ~i:T ca cs id base index ev fr
  | T, V -> fun fr -> subscript_store ~b:T ~i:V ca cs id base index ev fr
  | V, K -> fun fr -> subscript_store ~b:V ~i:K ca cs id base index ev fr
  | V, S -> fun fr -> subscript_store ~b:V ~i:S ca cs id base index ev fr
  | V, T -> fun fr -> subscript_store ~b:V ~i:T ca cs id base index ev fr
  | V, V -> fun fr -> subscript_store ~b:V ~i:V ca cs id base index ev fr

(* Call a lowered function on a frame whose parameters are bound. *)
let invoke (cost : Cost.t) st id fn callee =
  charge st cost.c_call;
  let saved_ctx = st.ctx in
  st.ctx <- id :: saved_ctx;
  let result =
    try
      fn.fbody callee;
      v_false
    with Return_exc v -> v
  in
  (* Auto-free stack slots on every function exit (paper 4.4). *)
  List.iter
    (fun (alloc_id, addr) ->
      charge st cost.c_free;
      let heap, size = free st addr in
      st.hooks.on_free alloc_id ~addr ~size heap)
    callee.frame_allocs;
  st.ctx <- saved_ctx;
  result

(* Everything one [create] lowers against. *)
type env = {
  e_cost : Cost.t;
  e_globals : (string, int) Hashtbl.t;
  e_fns : (string, fn) Hashtbl.t;
}

let rec lower_expr env names (e : Ast.expr) : expr =
  let cost = env.e_cost in
  match e with
  | Int n -> Const (VInt n)
  | Float f -> Const (VFloat f)
  | Local name -> Slot (Hashtbl.find names name, name)
  | Global_addr g -> (
    match Hashtbl.find_opt env.e_globals g with
    | Some addr -> Const (VInt addr)
    | None ->
      Value_fn
        (fun fr ->
          step fr.interp;
          error "unknown global %s" g))
  | Load (id, S8, Binop (Add, base, Binop (Mul, Int 8, index))) ->
    let base = int_operand (lower_expr env names base) in
    let index = int_operand (lower_expr env names index) in
    Value_fn (subscript_load_node cost.c_arith cost.c_load id base index)
  | Load (id, S8, ea) ->
    let ea = lower_expr env names ea in
    let c = cost.c_load in
    Value_fn
      (fun fr ->
        let st = fr.interp in
        step st;
        let addr = read_int ea st fr in
        load8 st c id addr)
  | Load (id, S1, ea) ->
    let ea = lower_expr env names ea in
    let c = cost.c_load in
    Int_fn
      (fun fr ->
        let st = fr.interp in
        step st;
        let addr = read_int ea st fr in
        charge st c;
        let n = Machine.read_byte st.machine addr in
        st.hooks.on_load id ~addr ~size:1 ~value:(VInt n);
        n)
  | Unop (op, a) -> lower_unop op cost.c_arith (lower_expr env names a)
  | Binop (op, a, b) ->
    lower_binop op cost.c_arith (lower_expr env names a) (lower_expr env names b)
  | And (a, b) ->
    let a = lower_expr env names a and b = lower_expr env names b in
    let c = cost.c_branch in
    Bool_fn
      (fun fr ->
        let st = fr.interp in
        step st;
        charge st c;
        read_truth a st fr && read_truth b st fr)
  | Or (a, b) ->
    let a = lower_expr env names a and b = lower_expr env names b in
    let c = cost.c_branch in
    Bool_fn
      (fun fr ->
        let st = fr.interp in
        step st;
        charge st c;
        read_truth a st fr || read_truth b st fr)
  | Call (id, fname, args) -> (
    let args = Array.of_list (List.map (lower_expr env names) args) in
    let nargs = Array.length args in
    if Validate.is_builtin fname then lower_builtin cost fname args
    else
      match Hashtbl.find_opt env.e_fns fname with
      | None ->
        Value_fn
          (fun fr ->
            let st = fr.interp in
            step st;
            ignore (eval_args args st fr);
            error "call to undefined function %s" fname)
      | Some fn when fn.arity <> nargs ->
        Value_fn
          (fun fr ->
            let st = fr.interp in
            step st;
            ignore (eval_args args st fr);
            error "%s: expected %d arguments, got %d" fname fn.arity nargs)
      | Some fn ->
        let params = fn.param_slots in
        Value_fn
          (fun fr ->
            let st = fr.interp in
            step st;
            let callee = new_frame fn st in
            for i = 0 to nargs - 1 do
              callee.slots.(params.(i)) <- read_value args.(i) st fr
            done;
            invoke cost st id fn callee))
  | Alloc (id, kind, heap, size_e) ->
    let size_e = lower_expr env names size_e in
    let c = cost.c_alloc in
    let heap =
      match (heap, kind) with
      | Some h, _ -> h
      | None, Ast.Malloc -> Heap.Default
      | None, Ast.Salloc -> Heap.Stack
    in
    Int_fn
      (fun fr ->
        let st = fr.interp in
        step st;
        let size = read_int size_e st fr in
        if size < 0 then error "negative allocation size %d" size;
        charge st c;
        let addr = alloc st heap size in
        st.hooks.on_alloc id ~ctx:st.ctx kind heap ~addr ~size;
        (match kind with
        | Salloc -> fr.frame_allocs <- (id, addr) :: fr.frame_allocs
        | Malloc -> ());
        addr)

and lower_block env names blk : stmt_code =
  match Array.of_list (List.map (lower_stmt env names) blk) with
  | [||] -> fun _ -> ()
  | [| s |] -> s
  | [| s1; s2 |] ->
    fun fr ->
      s1 fr;
      s2 fr
  | [| s1; s2; s3 |] ->
    fun fr ->
      s1 fr;
      s2 fr;
      s3 fr
  | stmts ->
    fun fr ->
      for i = 0 to Array.length stmts - 1 do
        stmts.(i) fr
      done

and lower_stmt env names (s : Ast.stmt) : stmt_code =
  let cost = env.e_cost in
  let expr = lower_expr env names in
  match s with
  | Assign (name, e) -> (
    (* One closure per kind of right-hand side, each boxing only what
       the slot must hold. *)
    let slot = Hashtbl.find names name in
    match expr e with
    | Const v ->
      fun fr ->
        let st = fr.interp in
        step st;
        step st;
        fr.slots.(slot) <- v
    | Slot (from, from_name) ->
      fun fr ->
        let st = fr.interp in
        step st;
        fr.slots.(slot) <- read_slot st fr from from_name
    | Int_fn f ->
      fun fr ->
        step fr.interp;
        fr.slots.(slot) <- VInt (f fr)
    | Float_fn f ->
      fun fr ->
        step fr.interp;
        fr.slots.(slot) <- VFloat (f fr)
    | Bool_fn f ->
      fun fr ->
        step fr.interp;
        fr.slots.(slot) <- of_bool (f fr)
    | Value_fn f ->
      fun fr ->
        step fr.interp;
        fr.slots.(slot) <- f fr)
  | Store (id, S8, Binop (Add, base, Binop (Mul, Int 8, index)), ev) ->
    let base = int_operand (expr base) in
    let index = int_operand (expr index) in
    subscript_store_node cost.c_arith cost.c_store id base index (expr ev)
  | Store (id, S8, ea, ev) ->
    let ea = expr ea and ev = expr ev in
    let c = cost.c_store in
    fun fr ->
      let st = fr.interp in
      step st;
      let addr = read_int ea st fr in
      let v = read_value ev st fr in
      store8 st c id addr v
  | Store (id, S1, ea, ev) ->
    let ea = expr ea and ev = expr ev in
    let c = cost.c_store in
    fun fr ->
      let st = fr.interp in
      step st;
      let addr = read_int ea st fr in
      let v = read_value ev st fr in
      charge st c;
      st.hooks.on_store id ~addr ~size:1 ~value:v;
      Machine.write_byte st.machine addr (to_int v)
  | If (id, c, b1, b2) -> (
    let cond = expr c and b1 = lower_block env names b1 and b2 = lower_block env names b2 in
    let c = cost.c_branch in
    let[@inline] branch st taken fr =
      st.hooks.on_branch id ~taken;
      if taken then b1 fr else b2 fr
    in
    match cond with
    | Bool_fn test ->
      fun fr ->
        let st = fr.interp in
        step st;
        charge st c;
        branch st (test fr) fr
    | cond ->
      fun fr ->
        let st = fr.interp in
        step st;
        charge st c;
        branch st (read_truth cond st fr) fr)
  | While (id, cond, body) ->
    let cond = expr cond and body = lower_block env names body in
    let c = cost.c_branch in
    fun fr ->
      let st = fr.interp in
      step st;
      st.hooks.on_loop_enter id;
      let saved_ctx = st.ctx in
      st.ctx <- id :: saved_ctx;
      let iter = ref 0 in
      (try
         let continue_loop = ref true in
         while !continue_loop do
           charge st c;
           if read_truth cond st fr then begin
             st.hooks.on_loop_iter id ~iter:!iter;
             (try body fr with Continue_exc -> ());
             incr iter
           end
           else continue_loop := false
         done
       with Break_exc -> ());
      st.ctx <- saved_ctx;
      st.hooks.on_loop_exit id ~trips:!iter
  | For (id, var, init_e, limit_e, body) ->
    let slot = Hashtbl.find names var in
    let init_e = expr init_e and limit_e = expr limit_e in
    let body = lower_block env names body in
    let loop = { loop_id = id; induction = slot; body } in
    let c = cost.c_branch in
    fun fr ->
      let st = fr.interp in
      step st;
      let init = read_int init_e st fr in
      let limit = read_int limit_e st fr in
      (match st.parallel_for with
      | Some handler when handler st fr loop ~init ~limit -> ()
      | Some _ | None ->
        st.hooks.on_loop_enter id;
        let saved_ctx = st.ctx in
        st.ctx <- id :: saved_ctx;
        fr.slots.(slot) <- VInt init;
        let iter = ref 0 in
        (try
           let continue_loop = ref true in
           while !continue_loop do
             charge st c;
             if to_int fr.slots.(slot) < limit then begin
               st.hooks.on_loop_iter id ~iter:!iter;
               (try body fr with Continue_exc -> ());
               incr iter;
               fr.slots.(slot) <- VInt (to_int fr.slots.(slot) + 1)
             end
             else continue_loop := false
           done
         with Break_exc -> ());
        st.ctx <- saved_ctx;
        st.hooks.on_loop_exit id ~trips:!iter)
  | Expr e ->
    let e = expr e in
    fun fr ->
      let st = fr.interp in
      step st;
      ignore (read_value e st fr)
  | Free (id, _, pe) ->
    let pe = expr pe in
    let c = cost.c_free in
    fun fr ->
      let st = fr.interp in
      step st;
      let addr = read_int pe st fr in
      charge st c;
      let heap, size = free st addr in
      st.hooks.on_free id ~addr ~size heap
  | Return (Some e) ->
    let e = expr e in
    fun fr ->
      let st = fr.interp in
      step st;
      raise (Return_exc (read_value e st fr))
  | Return None ->
    fun fr ->
      step fr.interp;
      raise (Return_exc v_false)
  | Break ->
    fun fr ->
      step fr.interp;
      raise Break_exc
  | Continue ->
    fun fr ->
      step fr.interp;
      raise Continue_exc
  | Print (_, fmt, args) ->
    let args = Array.of_list (List.map expr args) in
    let c = cost.c_print in
    fun fr ->
      let st = fr.interp in
      step st;
      let args = eval_args args st fr in
      charge st c;
      st.emit (render_format fmt args)

(* Lower every function of [program]; the first definition of a name
   wins, as a lookup by name did. *)
let lower cost globals (program : Ast.program) =
  let fns = Hashtbl.create 16 in
  let tables =
    List.filter_map
      (fun (f : Ast.func) ->
        if Hashtbl.mem fns f.fname then None
        else begin
          let names = slot_table f in
          let fn =
            { arity = List.length f.params;
              param_slots = Array.of_list (List.map (Hashtbl.find names) f.params);
              slot_names = names; nslots = Hashtbl.length names;
              fbody = (fun _ -> ()) }
          in
          Hashtbl.add fns f.fname fn;
          Some (f, fn)
        end)
      program.funcs
  in
  let env = { e_cost = cost; e_globals = globals; e_fns = fns } in
  List.iter (fun ((f : Ast.func), fn) -> fn.fbody <- lower_block env fn.slot_names f.body) tables;
  Hashtbl.find_opt fns program.entry

(* ---- interpreter states ------------------------------------------------ *)

(* Build an interpreter over a fresh machine, laying out the program's
   globals and lowering its functions.  Global storage is allocated
   from each global's assigned heap during "an initializer which runs
   before main" (paper 4.4). *)
let create ?(cost = Cost.default) ?(max_steps = 4_000_000_000) program =
  let machine = Machine.create () in
  let globals = Hashtbl.create 16 in
  List.iter
    (fun (g : Ast.global) ->
      let heap = Option.value g.gheap ~default:Heap.Default in
      let addr = Machine.alloc machine heap (max 8 g.gbytes) in
      Hashtbl.replace globals g.gname addr)
    program.Ast.globals;
  let st =
    { program; machine; globals; cost; code = lower cost globals program;
      hooks = Hooks.default; cycles = 0; ctx = []; emit = (fun _ -> ());
      output = Buffer.create 256; steps = 0; max_steps; parallel_for = None }
  in
  st.emit <- (fun s -> Buffer.add_string st.output s);
  st

(* A worker-process view of [st]: copy-on-write machine snapshot, same
   program, global layout and lowered code, independent cycle counter
   and output. *)
let fork st =
  let child =
    { st with machine = Machine.snapshot st.machine; hooks = Hooks.default; cycles = 0;
              output = Buffer.create 64; steps = 0; parallel_for = None }
  in
  child.emit <- (fun s -> Buffer.add_string child.output s);
  child

(* One iteration of a loop the executor took over, on [st]: the frame
   is bound to [st] (a worker's frame copy to its fork), the induction
   variable set to [v], then the body runs. *)
let run_iteration st fr l v =
  fr.interp <- st;
  set_induction fr l v;
  l.body fr

(* Run the program's entry function.  Returns the entry's return value. *)
let run_entry st =
  match st.code with
  | None -> error "entry function %s not found" st.program.entry
  | Some fn ->
    if fn.arity <> 0 then
      error "%s: expected %d arguments, got 0" st.program.entry fn.arity;
    (* 0 is the synthetic call-site id of the entry invocation. *)
    invoke st.cost st 0 fn (new_frame fn st)

let output st = Buffer.contents st.output
