(* Small syntactic helpers shared by the analyses. *)

open Privateer_ir

module String_set = Set.Make (String)

(* Structural expression equality ignoring node ids: two occurrences
   of the same source expression (e.g. the address of a reduction's
   load and store) have different ids but equal shape. *)
let rec equal_expr_mod_ids (a : Ast.expr) (b : Ast.expr) =
  match (a, b) with
  | Int x, Int y -> x = y
  | Float x, Float y -> x = y
  | Local x, Local y -> x = y
  | Global_addr x, Global_addr y -> x = y
  | Load (_, sx, ex), Load (_, sy, ey) -> sx = sy && equal_expr_mod_ids ex ey
  | Unop (ox, ex), Unop (oy, ey) -> ox = oy && equal_expr_mod_ids ex ey
  | Binop (ox, ax, bx), Binop (oy, ay, by) ->
    ox = oy && equal_expr_mod_ids ax ay && equal_expr_mod_ids bx by
  | And (ax, bx), And (ay, by) | Or (ax, bx), Or (ay, by) ->
    equal_expr_mod_ids ax ay && equal_expr_mod_ids bx by
  | Call (_, fx, ax), Call (_, fy, ay) ->
    fx = fy && List.length ax = List.length ay && List.for_all2 equal_expr_mod_ids ax ay
  | Alloc (_, kx, hx, ex), Alloc (_, ky, hy, ey) ->
    kx = ky && hx = hy && equal_expr_mod_ids ex ey
  | ( ( Int _ | Float _ | Local _ | Global_addr _ | Load _ | Unop _ | Binop _ | And _
      | Or _ | Call _ | Alloc _ ),
      _ ) -> false

(* Locals assigned anywhere in a block, including For induction
   variables of nested loops. *)
let assigned_locals blk =
  let acc = ref String_set.empty in
  Ast.iter_stmts
    (fun stmt ->
      match stmt with
      | Assign (x, _) -> acc := String_set.add x !acc
      | For (_, v, _, _, _) -> acc := String_set.add v !acc
      | Store _ | If _ | While _ | Expr _ | Free _ | Return _ | Break | Continue
      | Print _ -> ())
    blk;
  !acc

(* Locals read anywhere in a block (at any expression depth). *)
let read_locals blk =
  let acc = ref String_set.empty in
  Ast.iter_exprs
    (fun e -> match e with Local x -> acc := String_set.add x !acc | _ -> ())
    blk;
  !acc

(* Does the block contain a statement for which [pred] holds
   (recursively, not following calls)? *)
let exists_stmt pred blk =
  let found = ref false in
  Ast.iter_stmts (fun s -> if pred s then found := true) blk;
  !found

(* Direct callees of a block (function names, builtins excluded). *)
let callees blk =
  let acc = ref String_set.empty in
  Ast.iter_exprs
    (fun e ->
      match e with
      | Call (_, fn, _) when not (Validate.is_builtin fn) -> acc := String_set.add fn !acc
      | _ -> ())
    blk;
  !acc

(* Transitive closure of functions reachable from a block. *)
let reachable_funcs program blk =
  let visited = ref String_set.empty in
  let rec visit name =
    if not (String_set.mem name !visited) then begin
      visited := String_set.add name !visited;
      match Ast.find_func program name with
      | Some f -> String_set.iter visit (callees f.body)
      | None -> ()
    end
  in
  String_set.iter visit (callees blk);
  !visited

(* Is [e] invariant w.r.t. a loop whose body assigns [assigned]?
   Conservative: constants, and locals not assigned in the body.
   Loads and calls are never considered invariant. *)
let rec loop_invariant ~assigned (e : Ast.expr) =
  match e with
  | Int _ | Float _ | Global_addr _ -> true
  | Local x -> not (String_set.mem x assigned)
  | Unop (_, a) -> loop_invariant ~assigned a
  | Binop (_, a, b) | And (a, b) | Or (a, b) ->
    loop_invariant ~assigned a && loop_invariant ~assigned b
  | Load _ | Call _ | Alloc _ -> false
