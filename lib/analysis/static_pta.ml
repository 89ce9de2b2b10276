(* Flow-insensitive, context-insensitive points-to analysis.

   This is the deliberately-weak static analysis of the paper's
   story: strong enough to prove separation for direct global/array
   accesses (so their checks can be elided, section 4.5) and to let
   the non-speculative DOALL-only baseline handle affine array loops,
   but defeated by pointer indirection through memory — exactly the
   layout-sensitivity that motivates speculative separation.

   Abstract objects: globals, allocation sites, and Top (unknown).
   Memory is modeled field-insensitively with one content set per
   abstract object. *)

open Privateer_ir

module Abs = struct
  type t = AGlobal of string | ASite of Ast.node_id | ATop

  let compare = compare

  let to_string = function
    | AGlobal g -> "&" ^ g
    | ASite s -> Printf.sprintf "alloc@%d" s
    | ATop -> "T"
end

module Abs_set = Set.Make (Abs)

type t = {
  program : Ast.program;
  (* Per-function local variable points-to sets ("fname.local"). *)
  locals : (string, Abs_set.t ref) Hashtbl.t;
  (* Field-insensitive heap contents per abstract object. *)
  contents : (Abs.t, Abs_set.t ref) Hashtbl.t;
  (* Return-value set per function. *)
  returns : (string, Abs_set.t ref) Hashtbl.t;
  mutable changed : bool;
}

let cell tbl key =
  match Hashtbl.find_opt tbl key with
  | Some c -> c
  | None ->
    let c = ref Abs_set.empty in
    Hashtbl.replace tbl key c;
    c

let add_to t c s =
  if not (Abs_set.subset s !c) then begin
    c := Abs_set.union !c s;
    t.changed <- true
  end

let local_key fname v = fname ^ "." ^ v

(* Contents reachable through a pointer set; ATop taints everything.
   A store through an unknown pointer may have written any object, so
   every load also sees the ATop cell's contents. *)
let load_from t ptrs =
  if Abs_set.mem Abs.ATop ptrs then Abs_set.singleton Abs.ATop
  else
    Abs_set.fold
      (fun o acc -> Abs_set.union acc !(cell t.contents o))
      ptrs
      !(cell t.contents Abs.ATop)

let store_into t ptrs values =
  if Abs_set.is_empty values then ()
  else if Abs_set.mem Abs.ATop ptrs then
    (* Unknown target: every object's contents may now include values.
       We record it on the ATop cell and treat ATop's contents as part
       of every load (see [load_from] returning Top). *)
    add_to t (cell t.contents Abs.ATop) values
  else Abs_set.iter (fun o -> add_to t (cell t.contents o) values) ptrs

let rec eval t fname (e : Ast.expr) : Abs_set.t =
  match e with
  | Int _ | Float _ -> Abs_set.empty
  | Local v -> !(cell t.locals (local_key fname v))
  | Global_addr g -> Abs_set.singleton (AGlobal g)
  | Load (_, _, addr) -> load_from t (eval t fname addr)
  | Alloc (id, _, _, size) ->
    ignore (eval t fname size);
    Abs_set.singleton (ASite id)
  | Unop (_, a) -> eval t fname a
  | Binop (_, a, b) | And (a, b) | Or (a, b) ->
    (* Pointer arithmetic stays within the object in well-defined
       programs; union the operand sets. *)
    Abs_set.union (eval t fname a) (eval t fname b)
  | Call (_, callee, args) ->
    let arg_sets = List.map (eval t fname) args in
    if Validate.is_builtin callee then Abs_set.empty
    else begin
      (match Ast.find_func t.program callee with
      | Some f ->
        (try
           List.iter2
             (fun p s -> add_to t (cell t.locals (local_key callee p)) s)
             f.params arg_sets
         with Invalid_argument _ -> ())
      | None -> ());
      !(cell t.returns callee)
    end

let rec transfer_block t fname blk = List.iter (transfer_stmt t fname) blk

and transfer_stmt t fname (s : Ast.stmt) =
  match s with
  | Assign (x, e) -> add_to t (cell t.locals (local_key fname x)) (eval t fname e)
  | Store (_, _, addr, v) ->
    let ptrs = eval t fname addr in
    let values = eval t fname v in
    store_into t ptrs values
  | If (_, c, b1, b2) ->
    ignore (eval t fname c);
    transfer_block t fname b1;
    transfer_block t fname b2
  | While (_, c, body) ->
    ignore (eval t fname c);
    transfer_block t fname body
  | For (_, v, init, limit, body) ->
    add_to t (cell t.locals (local_key fname v)) (eval t fname init);
    ignore (eval t fname limit);
    transfer_block t fname body
  | Expr e | Free (_, _, e) -> ignore (eval t fname e)
  | Return (Some e) -> add_to t (cell t.returns fname) (eval t fname e)
  | Print (_, _, args) -> List.iter (fun e -> ignore (eval t fname e)) args
  | Return None | Break | Continue -> ()

(* Iterate all functions to a fixpoint. *)
let analyze program =
  let t =
    { program; locals = Hashtbl.create 64; contents = Hashtbl.create 32;
      returns = Hashtbl.create 16; changed = true }
  in
  let rounds = ref 0 in
  while t.changed && !rounds < 100 do
    t.changed <- false;
    incr rounds;
    List.iter (fun (f : Ast.func) -> transfer_block t f.fname f.body) program.funcs
  done;
  t

(* Points-to set of an address expression evaluated in [fname];
   answers "which objects might this access touch". *)
let points_to t ~fname e =
  let s = eval t fname e in
  (* Re-running eval must not perturb the fixpoint. *)
  s

(* True when the analysis can bound the targets (no Top). *)
let is_precise s = (not (Abs_set.is_empty s)) && not (Abs_set.mem Abs.ATop s)
