(* Misspeculation signalling. *)

type reason =
  | Separation of { site : int; addr : int; expected : Privateer_ir.Heap.kind }
  | Privacy_flow of { addr : int } (* read of an earlier iteration's write *)
  | Privacy_conservative of { addr : int } (* write over read-live-in *)
  | Short_lived_escape of { unfreed : int }
  | Value_prediction of { global : string; offset : int; expected : int }
  | Control of { site : int }
  | Phase2 of { addr : int } (* cross-worker live-in read/write conflict *)
  | Foreign_heap of { addr : int } (* access outside any sanctioned heap *)
  | Redux_violation of { site : int; addr : int }
  | Injected (* artificial misspeculation (Figure 9 experiments) *)
  | Worker_fault of string (* runtime error inside a speculative worker *)

let to_string = function
  | Separation { site; addr; expected } ->
    Printf.sprintf "separation check failed at site %d: %#x not in %s heap" site addr
      (Privateer_ir.Heap.name expected)
  | Privacy_flow { addr } ->
    Printf.sprintf "privacy: read of earlier iteration's write at %#x" addr
  | Privacy_conservative { addr } ->
    Printf.sprintf "privacy: overwrite of read-live-in byte at %#x (conservative)" addr
  | Short_lived_escape { unfreed } ->
    Printf.sprintf "short-lived object lifetime violation (%d unfreed)" unfreed
  | Value_prediction { global; offset; expected } ->
    Printf.sprintf "value prediction failed: %s+%d != %d" global offset expected
  | Control { site } -> Printf.sprintf "control speculation violated at branch %d" site
  | Phase2 { addr } -> Printf.sprintf "phase-2 privacy conflict at %#x" addr
  | Foreign_heap { addr } -> Printf.sprintf "access outside sanctioned heaps at %#x" addr
  | Redux_violation { site; addr } ->
    Printf.sprintf "non-reduction access to redux heap at site %d (%#x)" site addr
  | Injected -> "injected misspeculation"
  | Worker_fault msg -> "worker fault: " ^ msg

exception Misspeculation of reason
