(* Structural validation of IR programs.

   Every pass output is validated in tests: unique node ids, resolvable
   callees and globals, break/continue confined to loops, and node ids
   below the program's [next_id] watermark (so a table indexed by node
   id, like the manifest's, can be sized by it). *)

open Ast

type error =
  | Duplicate_node_id of node_id
  | Unknown_function of string
  | Unknown_global of string
  | Stray_break_continue of string
  | Node_id_above_watermark of node_id
  | Duplicate_function of string
  | Duplicate_global of string
  | Missing_entry of string

let error_to_string = function
  | Duplicate_node_id id -> Printf.sprintf "duplicate node id %d" id
  | Unknown_function f -> Printf.sprintf "call to unknown function %s" f
  | Unknown_global g -> Printf.sprintf "reference to unknown global %s" g
  | Stray_break_continue f -> Printf.sprintf "break/continue outside loop in %s" f
  | Node_id_above_watermark id -> Printf.sprintf "node id %d >= next_id" id
  | Duplicate_function f -> Printf.sprintf "duplicate function %s" f
  | Duplicate_global g -> Printf.sprintf "duplicate global %s" g
  | Missing_entry e -> Printf.sprintf "entry function %s not defined" e

(* Builtins callable without a user definition (interpreter intrinsics). *)
let builtins =
  [ "sqrt"; "exp"; "log"; "pow"; "fabs"; "floor"; "fmin"; "fmax"; "min"; "max"; "abs";
    "sin"; "cos" ]

let is_builtin name = List.mem name builtins

let check program =
  let errors = ref [] in
  let err e = errors := e :: !errors in
  let seen_ids = Hashtbl.create 256 in
  let note_id id =
    if Hashtbl.mem seen_ids id then err (Duplicate_node_id id)
    else Hashtbl.add seen_ids id ();
    if id >= program.next_id then err (Node_id_above_watermark id)
  in
  let fnames = List.map (fun f -> f.fname) program.funcs in
  let gnames = List.map (fun g -> g.gname) program.globals in
  let rec dup_names = function
    | [] -> []
    | x :: rest -> (if List.mem x rest then [ x ] else []) @ dup_names rest
  in
  List.iter (fun f -> err (Duplicate_function f)) (dup_names fnames);
  List.iter (fun g -> err (Duplicate_global g)) (dup_names gnames);
  if not (List.mem program.entry fnames) then err (Missing_entry program.entry);
  let on_expr e =
    match e with
    | Load (id, _, _) | Call (id, _, _) | Alloc (id, _, _, _) -> note_id id
    | Global_addr g -> if not (List.mem g gnames) then err (Unknown_global g)
    | Int _ | Float _ | Local _ | Unop _ | Binop _ | And _ | Or _ -> ()
  in
  let on_call_target e =
    match e with
    | Call (_, fn, _) ->
      if not (List.mem fn fnames || is_builtin fn) then err (Unknown_function fn)
    | _ -> ()
  in
  let rec check_block in_loop fname blk =
    List.iter
      (fun stmt ->
        (match stmt with
        | Store (id, _, _, _)
        | Free (id, _, _)
        | Print (id, _, _) -> note_id id
        | While (id, _, _) | For (id, _, _, _, _) | If (id, _, _, _) -> note_id id
        | Break | Continue -> if not in_loop then err (Stray_break_continue fname)
        | Assign _ | Expr _ | Return _ -> ());
        match stmt with
        | If (_, _, b1, b2) ->
          check_block in_loop fname b1;
          check_block in_loop fname b2
        | While (_, _, b) | For (_, _, _, _, b) -> check_block true fname b
        | _ -> ())
      blk
  in
  List.iter
    (fun f ->
      check_block false f.fname f.body;
      iter_exprs
        (fun e ->
          on_expr e;
          on_call_target e)
        f.body;
      (* Expressions in statement heads are covered by iter_exprs. *))
    program.funcs;
  List.rev !errors

let check_exn program =
  match check program with
  | [] -> ()
  | errs ->
    failwith
      ("IR validation failed: " ^ String.concat "; " (List.map error_to_string errs))
