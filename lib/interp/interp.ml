(* The IR interpreter: a deterministic simulated machine.

   Runs a program against a Machine (paged memory + per-heap
   allocators), firing instrumentation hooks at every memory event and
   charging cycle costs from a cost table.  The DOALL executor
   intercepts a chosen For loop through [parallel_for]; everything
   else (profiling runs, sequential baselines, worker-iteration
   execution, sequential recovery) is this same evaluator.

   [create] lowers every function once into OCaml closures: names are
   resolved at lowering time, so a local is an int slot in the frame's
   value array, a global is its laid-out address and a callee is its
   lowered function.  Each expression lowers to a typed code: a
   constant (a literal or global address, boxed once for value
   contexts), a slot read, or a closure known to return an [int], a
   [float], a [bool] or a [Value.t] (8-byte loads and user calls).  Each
   consumer reads its operands in the context it needs, so arithmetic,
   addresses and conditions run unboxed, and a value is boxed only
   where it crosses a dynamic boundary: a slot assignment, call
   arguments and results, store values (the [on_store] hook's
   [~value]), print arguments, [==]/[!=] unless both operands are ints,
   and [assert_value].  The conversions are this module's own: the
   default build compiles with [-opaque], so [Value]'s would be calls.
   The closures take the interpreter and the frame as arguments, so
   [fork] shares them.  The observables are fixed (test_interp pins
   them): one step per expression node and per statement, cycle
   charges and hooks in evaluation order, and the error texts. *)

open Privateer_ir
open Privateer_machine

exception Runtime_error = Value.Runtime_error

let error fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

type frame = {
  slots : Value.t array; (* one per local name of the function *)
  names : (string, int) Hashtbl.t; (* the function's local name -> slot *)
  (* Stack slots to auto-free at function exit: (alloc site, address). *)
  mutable frame_allocs : (Ast.node_id * int) list;
}

type t = {
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
and loop = { loop_id : Ast.node_id; induction : int; body : t -> frame -> unit }

and fn = {
  arity : int;
  param_slots : int array;
  slot_names : (string, int) Hashtbl.t;
  nslots : int;
  mutable fbody : t -> frame -> unit; (* set once every function is lowered *)
}

(* The entry function; every function it can call hangs off it. *)
and code = fn option

(* An unbound slot holds this value; it is compared physically and
   never escapes to the program. *)
let unbound = Value.VFloat (Sys.opaque_identity Float.nan)

let new_frame (fn : fn) =
  { slots = Array.make fn.nslots unbound; names = fn.slot_names; frame_allocs = [] }

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

let[@inline] step st =
  st.steps <- st.steps + 1;
  if st.steps > st.max_steps then step_budget_exhausted ()

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
   node is a closure whose result type is fixed at lowering. *)
type expr =
  | Const of Value.t
  | Slot of int * string (* the slot, and the name for the unbound error *)
  | Int_fn of (t -> frame -> int)
  | Float_fn of (t -> frame -> float)
  | Bool_fn of (t -> frame -> bool)
  | Value_fn of (t -> frame -> Value.t)

type stmt_code = t -> frame -> unit

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
   reads it. *)

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
  | Int_fn f -> Value.VInt (f st fr)
  | Float_fn f -> Value.VFloat (f st fr)
  | Bool_fn f -> of_bool (f st fr)
  | Value_fn f -> f st fr

let[@inline] read_int e st fr =
  match e with
  | Const v ->
    step st;
    to_int v
  | Slot (slot, name) -> to_int (read_slot st fr slot name)
  | Int_fn f -> f st fr
  | Float_fn f -> not_an_int (f st fr)
  | Bool_fn f -> Bool.to_int (f st fr)
  | Value_fn f -> to_int (f st fr)

let[@inline] read_float e st fr =
  match e with
  | Const v ->
    step st;
    to_float v
  | Slot (slot, name) -> to_float (read_slot st fr slot name)
  | Int_fn f -> float_of_int (f st fr)
  | Float_fn f -> f st fr
  | Bool_fn f -> if f st fr then 1.0 else 0.0
  | Value_fn f -> to_float (f st fr)

let[@inline] read_truth e st fr =
  match e with
  | Const v ->
    step st;
    truthy v
  | Slot (slot, name) -> truthy (read_slot st fr slot name)
  | Int_fn f -> f st fr <> 0
  | Float_fn f -> f st fr <> 0.0
  | Bool_fn f -> f st fr
  | Value_fn f -> truthy (f st fr)

(* Whether an integer consumer must convert the operand (and may fail):
   everything but an int constant, an int closure or a condition. *)
let checked = function
  | Const (VInt _) | Int_fn _ | Bool_fn _ -> false
  | Const (VFloat _) | Slot _ | Float_fn _ | Value_fn _ -> true

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

(* An integer operator, typed by its result. *)
type _ int_op = Arith : Ast.binop -> int int_op | Compare : Ast.binop -> bool int_op

let[@inline] apply_int_op : type r. r int_op -> int -> int -> r =
 fun op x y ->
  match op with
  | Arith Add -> x + y
  | Arith Sub -> x - y
  | Arith Mul -> x * y
  | Arith Div -> if y = 0 then division_by_zero () else x / y
  | Arith Rem -> if y = 0 then modulo_by_zero () else x mod y
  | Arith Band -> x land y
  | Arith Bor -> x lor y
  | Arith Bxor -> x lxor y
  | Arith Shl -> x lsl y
  | Arith Shr -> x lsr y
  | Compare Lt -> x < y
  | Compare Le -> x <= y
  | Compare Gt -> x > y
  | Compare Ge -> x >= y
  | Arith _ | Compare _ -> invalid_arg "Interp.apply_int_op"

(* An integer operator: one closure shape per (left checked?, right
   checked?) pair, with the operator's match inlined into each.  A
   checked operand is read as a value and converted after the charge,
   right first: when both are floats, the error names the right one. *)
let int_shapes (type r) (op : r int_op) c a b : t -> frame -> r =
  match (checked a, checked b) with
  | false, false ->
    fun st fr ->
      step st;
      let x = read_int a st fr in
      let y = read_int b st fr in
      charge st c;
      apply_int_op op x y
  | true, false ->
    fun st fr ->
      step st;
      let va = read_value a st fr in
      let y = read_int b st fr in
      charge st c;
      apply_int_op op (to_int va) y
  | false, true ->
    fun st fr ->
      step st;
      let x = read_int a st fr in
      let vb = read_value b st fr in
      charge st c;
      apply_int_op op x (to_int vb)
  | true, true ->
    fun st fr ->
      step st;
      let va = read_value a st fr in
      let vb = read_value b st fr in
      charge st c;
      let y = to_int vb in
      apply_int_op op (to_int va) y

let lower_binop (op : Ast.binop) c a b =
  match op with
  | Add | Sub | Mul | Div | Rem | Band | Bor | Bxor | Shl | Shr ->
    Int_fn (int_shapes (Arith op) c a b)
  | Lt | Le | Gt | Ge -> Bool_fn (int_shapes (Compare op) c a b)
  | Fadd | Fsub | Fmul | Fdiv ->
    (* Float operators read their operands as floats, which never
       fails. *)
    Float_fn
      (fun st fr ->
        step st;
        let x = read_float a st fr in
        let y = read_float b st fr in
        charge st c;
        match op with
        | Fadd -> x +. y
        | Fsub -> x -. y
        | Fmul -> x *. y
        | _ -> x /. y)
  | Flt | Fle | Fgt | Fge | Feq | Fne ->
    Bool_fn
      (fun st fr ->
        step st;
        let x = read_float a st fr in
        let y = read_float b st fr in
        charge st c;
        match op with
        | Flt -> x < y
        | Fle -> x <= y
        | Fgt -> x > y
        | Fge -> x >= y
        | Feq -> x = y
        | _ -> x <> y)
  | Eq | Ne ->
    (* [Value.equal]'s rules: an int never equals a float, NaN equals
       NaN.  Two int operands compare unboxed. *)
    let eq = op = Eq in
    if checked a || checked b then
      Bool_fn
        (fun st fr ->
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
        (fun st fr ->
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
    if checked a then
      Int_fn
        (fun st fr ->
          step st;
          let v = read_value a st fr in
          charge st c;
          int_unop op (to_int v))
    else
      Int_fn
        (fun st fr ->
          step st;
          let x = read_int a st fr in
          charge st c;
          int_unop op x)
  | Not ->
    Bool_fn
      (fun st fr ->
        step st;
        let b = read_truth a st fr in
        charge st c;
        not b)
  | Fneg ->
    Float_fn
      (fun st fr ->
        step st;
        let x = read_float a st fr in
        charge st c;
        -.x)
  | Itof ->
    Float_fn
      (fun st fr ->
        step st;
        let x = read_float a st fr in
        charge st c;
        x)
  | Ftoi ->
    Int_fn
      (fun st fr ->
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
      (fun st fr ->
        step st;
        ignore (eval_args args st fr);
        charge st c;
        error "%s: arity" name)
  in
  let f1 f =
    match args with
    | [| a |] ->
      Float_fn
        (fun st fr ->
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
        (fun st fr ->
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
        (fun st fr ->
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
        (fun st fr ->
          step st;
          let v = read_value a st fr in
          charge st c;
          abs (to_int v))
    | _ -> arity_error)
  | _ -> invalid_arg ("Interp: no implementation for builtin " ^ name)

(* Call a lowered function on a frame whose parameters are bound. *)
let invoke (cost : Cost.t) st id fn callee =
  charge st cost.c_call;
  let saved_ctx = st.ctx in
  st.ctx <- id :: saved_ctx;
  let result =
    try
      fn.fbody st callee;
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
        (fun st _ ->
          step st;
          error "unknown global %s" g))
  | Load (id, size, ea) -> (
    let ea = lower_expr env names ea in
    let c = cost.c_load in
    match size with
    | S8 ->
      Value_fn
        (fun st fr ->
          step st;
          let addr = read_int ea st fr in
          charge st c;
          let bits, is_float = Machine.read_word st.machine addr in
          let v = Value.of_bits bits is_float in
          st.hooks.on_load id ~addr ~size:8 ~value:v;
          v)
    | S1 ->
      Int_fn
        (fun st fr ->
          step st;
          let addr = read_int ea st fr in
          charge st c;
          let n = Machine.read_byte st.machine addr in
          st.hooks.on_load id ~addr ~size:1 ~value:(VInt n);
          n))
  | Unop (op, a) -> lower_unop op cost.c_arith (lower_expr env names a)
  | Binop (op, a, b) ->
    lower_binop op cost.c_arith (lower_expr env names a) (lower_expr env names b)
  | And (a, b) ->
    let a = lower_expr env names a and b = lower_expr env names b in
    let c = cost.c_branch in
    Bool_fn
      (fun st fr ->
        step st;
        charge st c;
        read_truth a st fr && read_truth b st fr)
  | Or (a, b) ->
    let a = lower_expr env names a and b = lower_expr env names b in
    let c = cost.c_branch in
    Bool_fn
      (fun st fr ->
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
          (fun st fr ->
            step st;
            ignore (eval_args args st fr);
            error "call to undefined function %s" fname)
      | Some fn when fn.arity <> nargs ->
        Value_fn
          (fun st fr ->
            step st;
            ignore (eval_args args st fr);
            error "%s: expected %d arguments, got %d" fname fn.arity nargs)
      | Some fn ->
        let params = fn.param_slots in
        Value_fn
          (fun st fr ->
            step st;
            let callee = new_frame fn in
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
      (fun st fr ->
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
  | [||] -> fun _ _ -> ()
  | [| s |] -> s
  | [| s1; s2 |] ->
    fun st fr ->
      s1 st fr;
      s2 st fr
  | [| s1; s2; s3 |] ->
    fun st fr ->
      s1 st fr;
      s2 st fr;
      s3 st fr
  | stmts ->
    fun st fr ->
      for i = 0 to Array.length stmts - 1 do
        stmts.(i) st fr
      done

and lower_stmt env names (s : Ast.stmt) : stmt_code =
  let cost = env.e_cost in
  let expr = lower_expr env names in
  match s with
  | Assign (name, e) ->
    let slot = Hashtbl.find names name and e = expr e in
    fun st fr ->
      step st;
      fr.slots.(slot) <- read_value e st fr
  | Store (id, size, ea, ev) -> (
    let ea = expr ea and ev = expr ev in
    let c = cost.c_store in
    match size with
    | S8 ->
      fun st fr ->
        step st;
        let addr = read_int ea st fr in
        let v = read_value ev st fr in
        charge st c;
        st.hooks.on_store id ~addr ~size:8 ~value:v;
        let bits, is_float = Value.to_bits v in
        Machine.write_word st.machine addr bits is_float
    | S1 ->
      fun st fr ->
        step st;
        let addr = read_int ea st fr in
        let v = read_value ev st fr in
        charge st c;
        st.hooks.on_store id ~addr ~size:1 ~value:v;
        Machine.write_byte st.machine addr (to_int v))
  | If (id, c, b1, b2) ->
    let cond = expr c and b1 = lower_block env names b1 and b2 = lower_block env names b2 in
    let c = cost.c_branch in
    fun st fr ->
      step st;
      charge st c;
      let taken = read_truth cond st fr in
      st.hooks.on_branch id ~taken;
      if taken then b1 st fr else b2 st fr
  | While (id, cond, body) ->
    let cond = expr cond and body = lower_block env names body in
    let c = cost.c_branch in
    fun st fr ->
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
             (try body st fr with Continue_exc -> ());
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
    fun st fr ->
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
               (try body st fr with Continue_exc -> ());
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
    fun st fr ->
      step st;
      ignore (read_value e st fr)
  | Free (id, _, pe) ->
    let pe = expr pe in
    let c = cost.c_free in
    fun st fr ->
      step st;
      let addr = read_int pe st fr in
      charge st c;
      let heap, size = free st addr in
      st.hooks.on_free id ~addr ~size heap
  | Return (Some e) ->
    let e = expr e in
    fun st fr ->
      step st;
      raise (Return_exc (read_value e st fr))
  | Return None ->
    fun st _ ->
      step st;
      raise (Return_exc v_false)
  | Break ->
    fun st _ ->
      step st;
      raise Break_exc
  | Continue ->
    fun st _ ->
      step st;
      raise Continue_exc
  | Print (_, fmt, args) ->
    let args = Array.of_list (List.map expr args) in
    let c = cost.c_print in
    fun st fr ->
      step st;
      let args = eval_args args st fr in
      charge st c;
      st.emit (render_format fmt args)
  | Check_heap (id, pe, heap) ->
    let pe = expr pe in
    let c = cost.c_check_heap in
    fun st fr ->
      step st;
      let addr = read_int pe st fr in
      charge st c;
      st.hooks.on_check_heap id ~addr heap ~ok:(Heap.check addr heap)
  | Assert_value (id, e, expected) ->
    let e = expr e in
    let c = cost.c_assert_value in
    let expected_v = Value.VInt expected in
    fun st fr ->
      step st;
      let v = read_value e st fr in
      charge st c;
      st.hooks.on_assert_value id ~observed:v ~expected ~ok:(Value.equal v expected_v)
  | Misspec (id, reason) ->
    fun st _ ->
      step st;
      st.hooks.on_misspec id ~reason

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
              fbody = (fun _ _ -> ()) }
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

(* One iteration of a loop the executor took over: the induction
   variable set to [v], then the body. *)
let run_iteration st fr l v =
  set_induction fr l v;
  l.body st fr

(* Run the program's entry function.  Returns the entry's return value. *)
let run_entry st =
  match st.code with
  | None -> error "entry function %s not found" st.program.entry
  | Some fn ->
    if fn.arity <> 0 then
      error "%s: expected %d arguments, got 0" st.program.entry fn.arity;
    (* 0 is the synthetic call-site id of the entry invocation. *)
    invoke st.cost st 0 fn (new_frame fn)

let output st = Buffer.contents st.output
