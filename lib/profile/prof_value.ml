(* Value-prediction profiler: load sites that always observed one
   constant value, and branch taken/not-taken counts (branch bias is
   the degenerate control-flow form of value prediction).  Flat
   site-indexed arrays; one array probe per load or branch. *)

open Privateer_interp

type t = {
  mutable const : Profile_types.const_status option array; (* load site *)
  mutable taken : int array; (* branch id -> taken count *)
  mutable not_taken : int array;
}

let create () =
  { const = Array.make 256 None; taken = Array.make 256 0; not_taken = Array.make 256 0 }

let ensure_const p site =
  let n = Array.length p.const in
  if site >= n then begin
    let a = Array.make (max (2 * n) (site + 1)) None in
    Array.blit p.const 0 a 0 n;
    p.const <- a
  end

let ensure_branch p id =
  let n = Array.length p.taken in
  if id >= n then begin
    let n' = max (2 * n) (id + 1) in
    let t = Array.make n' 0 and f = Array.make n' 0 in
    Array.blit p.taken 0 t 0 n;
    Array.blit p.not_taken 0 f 0 n;
    p.taken <- t;
    p.not_taken <- f
  end

let on_load p site value =
  ensure_const p site;
  match p.const.(site) with
  | None -> p.const.(site) <- Some (Profile_types.Const value)
  | Some (Profile_types.Const v) ->
    if not (Value.equal v value) then p.const.(site) <- Some Profile_types.Varying
  | Some Profile_types.Varying -> ()

let on_branch p id taken =
  ensure_branch p id;
  if taken then p.taken.(id) <- p.taken.(id) + 1
  else p.not_taken.(id) <- p.not_taken.(id) + 1

let const_load_value p site =
  if site >= 0 && site < Array.length p.const then
    match p.const.(site) with
    | Some (Profile_types.Const v) -> Some v
    | Some Profile_types.Varying | None -> None
  else None

let branch_counts p id =
  if id >= 0 && id < Array.length p.taken then (p.taken.(id), p.not_taken.(id))
  else (0, 0)

let branch_bias p id =
  match branch_counts p id with
  | t, 0 when t > 0 -> Some true
  | 0, f when f > 0 -> Some false
  | _ -> None
