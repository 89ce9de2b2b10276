(* Instrumentation hooks fired by the interpreter.

   Profilers (during the training run) and the speculative runtime
   (during parallel execution) both observe execution through this one
   interface, mirroring how the paper's profilers and inserted
   validation calls intercept the same IR operations. *)

open Privateer_ir

type t = {
  (* [on_load] fires after the value is read; [on_store] fires before
     the value is written (so validators see pre-store memory). *)
  on_load : Ast.node_id -> addr:int -> size:int -> value:Value.t -> unit;
  on_store : Ast.node_id -> addr:int -> size:int -> value:Value.t -> unit;
  (* [ctx] is the dynamic context: node ids of enclosing call sites and
     loops, innermost first (paper section 4.1). *)
  on_alloc :
    Ast.node_id -> ctx:int list -> Ast.alloc_kind -> Heap.kind -> addr:int ->
    size:int -> unit;
  on_free : Ast.node_id -> addr:int -> size:int -> Heap.kind -> unit;
  on_loop_enter : Ast.node_id -> unit;
  on_loop_iter : Ast.node_id -> iter:int -> unit;
  on_loop_exit : Ast.node_id -> trips:int -> unit;
  (* Separation check outcome: [ok = false] is a misspeculation when
     running speculatively. *)
  on_check_heap : Ast.node_id -> addr:int -> Heap.kind -> ok:bool -> unit;
  (* Value-prediction check outcome, with the observed value. *)
  on_assert_value : Ast.node_id -> observed:Value.t -> expected:int -> ok:bool -> unit;
  on_branch : Ast.node_id -> taken:bool -> unit;
  (* A control-speculation marker was reached. *)
  on_misspec : Ast.node_id -> reason:string -> unit;
}

let default =
  { on_load = (fun _ ~addr:_ ~size:_ ~value:_ -> ());
    on_store = (fun _ ~addr:_ ~size:_ ~value:_ -> ());
    on_alloc = (fun _ ~ctx:_ _ _ ~addr:_ ~size:_ -> ());
    on_free = (fun _ ~addr:_ ~size:_ _ -> ());
    on_loop_enter = (fun _ -> ());
    on_loop_iter = (fun _ ~iter:_ -> ());
    on_loop_exit = (fun _ ~trips:_ -> ());
    on_check_heap = (fun _ ~addr:_ _ ~ok:_ -> ());
    on_assert_value = (fun _ ~observed:_ ~expected:_ ~ok:_ -> ());
    on_branch = (fun _ ~taken:_ -> ());
    on_misspec = (fun _ ~reason:_ -> ()) }
