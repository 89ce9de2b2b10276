(* Syntactic recognition of memory reduction operations.

   The paper's getFootprint (Algorithm 2) classifies a load/store pair
   as a reduction when the store's value is [op r, x] for the loaded
   value r and an associative-commutative op, through the same
   pointer.  In this structured IR the whole pattern appears as one
   statement:

       store(addr, load(addr') op x)     with addr ~ addr'

   where ~ is structural equality modulo node ids. *)

open Privateer_ir

type pair = {
  store_site : Ast.node_id;
  load_site : Ast.node_id;
  op : Ast.binop;
  addr : Ast.expr; (* the shared address expression *)
}

(* Match [rhs] as [load(addr) op x] or [x op load(addr)]. *)
let match_update addr rhs =
  match (rhs : Ast.expr) with
  | Binop (op, Load (lid, _, addr'), _) when Ast.is_reduction_op op
                                             && Ast_util.equal_expr_mod_ids addr addr' ->
    Some (op, lid)
  | Binop (op, _, Load (lid, _, addr')) when Ast.is_reduction_op op
                                             && Ast_util.equal_expr_mod_ids addr addr' ->
    Some (op, lid)
  | _ -> None

(* All reduction pairs in a block (not following calls). *)
let pairs_in_block blk =
  let acc = ref [] in
  Ast.iter_stmts
    (fun stmt ->
      match stmt with
      | Store (sid, _, addr, rhs) -> (
        match match_update addr rhs with
        | Some (op, lid) -> acc := { store_site = sid; load_site = lid; op; addr } :: !acc
        | None -> ())
      | _ -> ())
    blk;
  List.rev !acc

(* Identity element for merging partial reduction results: the value a
   worker's accumulator starts from (paper 3.2: "bytes within those
   pages are initialized with the identity value").  Returns the raw
   64-bit word image. *)
let identity_bits (op : Ast.binop) : int64 * bool =
  match op with
  | Add -> (0L, false)
  | Mul -> (1L, false)
  | Band -> (-1L, false)
  | Bor | Bxor -> (0L, false)
  | Fadd -> (Int64.bits_of_float 0.0, true)
  | Fmul -> (Int64.bits_of_float 1.0, true)
  | _ -> invalid_arg "Reduction.identity_bits: not a reduction op"

(* Merge two partial values under the reduction operator. *)
let merge_values (op : Ast.binop) (a : Privateer_interp.Value.t) b =
  let open Privateer_interp.Value in
  match op with
  | Add -> VInt (as_int a + as_int b)
  | Mul -> VInt (as_int a * as_int b)
  | Band -> VInt (as_int a land as_int b)
  | Bor -> VInt (as_int a lor as_int b)
  | Bxor -> VInt (as_int a lxor as_int b)
  | Fadd -> VFloat (as_float a +. as_float b)
  | Fmul -> VFloat (as_float a *. as_float b)
  | _ -> invalid_arg "Reduction.merge_values: not a reduction op"

let identity_value op =
  let bits, is_float = identity_bits op in
  Privateer_interp.Value.of_bits bits is_float
