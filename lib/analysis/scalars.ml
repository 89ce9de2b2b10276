(* Register-level (scalar) classification for DOALL legality.

   Memory is handled by the heap assignment; loop-local variables
   (registers) need their own privatization story.  For a candidate
   loop each local assigned in the body must be one of:

   - the induction variable;
   - iteration-private: defined before any use on every path through
     one iteration (each worker computes it afresh);
   - a register reduction: every assignment is [x = x op e] with one
     associative-commutative op, and x is read only inside those
     updates (the paper's 052.alvinn scalar reduction);

   anything else is a loop-carried register dependence and the loop is
   rejected.  Locals that are only read are live-ins, copied into each
   worker's frame. *)

open Privateer_ir
module SS = Ast_util.String_set

type scalar_class =
  | Induction
  | Private_reg
  | Live_in
  | Reduction_reg of Ast.binop

type result =
  | Classified of (string * scalar_class) list
  | Rejected of string

(* Locals possibly read before being defined within one iteration of
   [blk].  Branches join with set-intersection of definitions; nested
   loop bodies are analyzed once with definitions accumulating (their
   own cross-iteration reads stay within one outer iteration, which is
   all DOALL needs), but definitions inside a nested loop do not count
   as definite afterwards (the loop may run zero times). *)
let reads_before_def blk ~induction =
  let flagged = ref SS.empty in
  let read defined x = if not (SS.mem x defined) then flagged := SS.add x !flagged in
  let rec expr defined (e : Ast.expr) =
    match e with
    | Local x -> read defined x
    | Int _ | Float _ | Global_addr _ -> ()
    | Load (_, _, a) | Unop (_, a) | Alloc (_, _, _, a) -> expr defined a
    | Binop (_, a, b) | And (a, b) | Or (a, b) ->
      expr defined a;
      expr defined b
    | Call (_, _, args) -> List.iter (expr defined) args
  in
  let rec block defined stmts = List.fold_left stmt defined stmts
  and stmt defined (s : Ast.stmt) =
    match s with
    | Assign (x, e) ->
      expr defined e;
      SS.add x defined
    | Store (_, _, a, v) ->
      expr defined a;
      expr defined v;
      defined
    | If (_, c, b1, b2) ->
      expr defined c;
      let d1 = block defined b1 in
      let d2 = block defined b2 in
      SS.inter d1 d2
    | While (_, c, body) ->
      expr defined c;
      ignore (block defined body);
      defined
    | For (_, v, init, limit, body) ->
      expr defined init;
      expr defined limit;
      ignore (block (SS.add v defined) body);
      defined
    | Expr e | Return (Some e) | Free (_, _, e) ->
      expr defined e;
      defined
    | Print (_, _, args) ->
      List.iter (expr defined) args;
      defined
    | Return None | Break | Continue -> defined
  in
  ignore (block (SS.singleton induction) blk);
  !flagged

(* All assignments to [x] in the body, shallowly and in nested
   control flow (calls don't see our locals). *)
let assignments_to blk x =
  let acc = ref [] in
  Ast.iter_stmts
    (fun s -> match s with Assign (y, rhs) when y = x -> acc := rhs :: !acc | _ -> ())
    blk;
  List.rev !acc

(* Count reads of [x] at any expression depth in the body. *)
let count_reads blk x =
  let n = ref 0 in
  Ast.iter_exprs (fun e -> match e with Local y when y = x -> incr n | _ -> ()) blk;
  !n

(* Match [rhs] as a self-update [x op e] / [e op x]. *)
let match_self_update x (rhs : Ast.expr) =
  match rhs with
  | Binop (op, Local y, _) when y = x && Ast.is_reduction_op op -> Some op
  | Binop (op, _, Local y) when y = x && Ast.is_reduction_op op -> Some op
  | _ -> None

let classify ~induction (body : Ast.block) : result =
  let assigned = Ast_util.assigned_locals body in
  let read = Ast_util.read_locals body in
  let rbd = reads_before_def body ~induction in
  let classes = ref [ (induction, Induction) ] in
  let reject = ref None in
  SS.iter
    (fun x ->
      if !reject = None then
        if x = induction then () (* already classified *)
        else if not (SS.mem x rbd) then classes := (x, Private_reg) :: !classes
        else begin
          (* Read-before-def: only acceptable as a register reduction. *)
          let updates = assignments_to body x in
          let ops = List.map (match_self_update x) updates in
          let distinct_ops =
            List.sort_uniq compare (List.filter_map (fun o -> o) ops)
          in
          match distinct_ops with
          | [ op ] when List.for_all Option.is_some ops ->
            (* Every read of x must come from the self-updates. *)
            if count_reads body x = List.length updates then
              classes := (x, Reduction_reg op) :: !classes
            else
              reject :=
                Some
                  (Printf.sprintf "local %s is read outside its reduction updates" x)
          | _ ->
            reject :=
              Some (Printf.sprintf "loop-carried register dependence on local %s" x)
        end)
    assigned;
  (match !reject with
  | None ->
    SS.iter
      (fun x ->
        if (not (SS.mem x assigned)) && x <> induction then
          classes := (x, Live_in) :: !classes)
      read
  | Some _ -> ());
  match !reject with Some r -> Rejected r | None -> Classified (List.rev !classes)
