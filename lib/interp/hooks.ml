(* Instrumentation hooks fired by the interpreter.

   Profilers (during the training run) and the speculative runtime
   (during parallel execution) both observe execution through this one
   interface.  The paper's transformation inserts validation calls
   into the program; here the program carries none, and the runtime's
   hooks perform every check at these operations from the manifest:
   separation and privacy at loads and stores, lifetimes at
   allocations and frees, control speculation at branches. *)

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
  (* Fires after the branch's cycle charge, before either side runs. *)
  on_branch : Ast.node_id -> taken:bool -> unit;
}

let default =
  { on_load = (fun _ ~addr:_ ~size:_ ~value:_ -> ());
    on_store = (fun _ ~addr:_ ~size:_ ~value:_ -> ());
    on_alloc = (fun _ ~ctx:_ _ _ ~addr:_ ~size:_ -> ());
    on_free = (fun _ ~addr:_ ~size:_ _ -> ());
    on_loop_enter = (fun _ -> ());
    on_loop_iter = (fun _ ~iter:_ -> ());
    on_loop_exit = (fun _ ~trips:_ -> ());
    on_branch = (fun _ ~taken:_ -> ()) }
