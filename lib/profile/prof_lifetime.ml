(* Object-lifetime profiler: which (object name, loop) pairs are
   short-lived — every instance allocated under the loop was freed in
   the same invocation and iteration it was born in.  Classification
   uses this to place such objects in the short-lived heap (paper
   section 4.1).

   Instances are keyed by exact base address: the allocator recycles
   freed storage at identical bases and never overlaps live ranges,
   so a replace-on-alloc table reproduces the reference's interval
   map bookkeeping.  Birth contexts are shared {!Loop_ctx.snapshot}
   arrays. *)

type t = {
  ctx : Loop_ctx.t;
  instances : (int, int * int array) Hashtbl.t; (* addr -> name id, birth *)
  sl_seen : (int * int, unit) Hashtbl.t; (* (name id, loop) *)
  sl_bad : (int * int, unit) Hashtbl.t;
  born_in : (int, (int, int) Hashtbl.t) Hashtbl.t; (* loop -> addr -> name *)
}

let create ctx =
  { ctx; instances = Hashtbl.create 64; sl_seen = Hashtbl.create 32;
    sl_bad = Hashtbl.create 32; born_in = Hashtbl.create 8 }

let mark_bad p id loop = Hashtbl.replace p.sl_bad (id, loop) ()

let on_alloc p addr id =
  Hashtbl.replace p.instances addr (id, (Loop_ctx.snapshot p.ctx).Loop_ctx.triples);
  Loop_ctx.iter_current p.ctx (fun l _inv _it ->
      Hashtbl.replace p.sl_seen (id, l) ();
      match Hashtbl.find_opt p.born_in l with
      | Some tbl -> Hashtbl.replace tbl addr id
      | None ->
        let tbl = Hashtbl.create 16 in
        Hashtbl.replace p.born_in l tbl;
        Hashtbl.replace tbl addr id)

let on_free p addr id =
  if id >= 0 then begin
    match Hashtbl.find_opt p.instances addr with
    | Some (born_id, birth) ->
      Hashtbl.remove p.instances addr;
      (* Every loop active at birth must still be in the same
         invocation and iteration now ... *)
      let triples = Array.length birth / 3 in
      for j = 0 to triples - 1 do
        let l = birth.(3 * j) in
        let inv = birth.((3 * j) + 1) in
        let it = birth.((3 * j) + 2) in
        let cur = Loop_ctx.find_current p.ctx l in
        if not (cur >= 0 && Loop_ctx.inv_at p.ctx cur = inv
                && Loop_ctx.iter_at p.ctx cur = it)
        then mark_bad p born_id l;
        match Hashtbl.find_opt p.born_in l with
        | Some tbl -> Hashtbl.remove tbl addr
        | None -> ()
      done;
      (* ... and loops active now but not at birth saw the object
         cross into them from outside. *)
      Loop_ctx.iter_current p.ctx (fun l _inv _it ->
          if Loop_ctx.find_in_snapshot birth l < 0 then mark_bad p born_id l)
    | None ->
      (* Freed but never seen allocated under profiling (a global, or
         pre-existing storage): born before every active loop. *)
      Loop_ctx.iter_current p.ctx (fun l _inv _it -> mark_bad p id l)
  end

(* {!Profiler} has already pushed/popped the context stack when these
   run; only the born-in bookkeeping is this consumer's. *)
let on_enter p loop =
  match Hashtbl.find_opt p.born_in loop with
  | Some tbl -> Hashtbl.reset tbl
  | None -> Hashtbl.replace p.born_in loop (Hashtbl.create 16)

let on_exit p loop =
  (* Objects born in this invocation and still live are not
     short-lived with respect to this loop. *)
  match Hashtbl.find_opt p.born_in loop with
  | None -> ()
  | Some tbl ->
    Hashtbl.iter (fun _addr id -> mark_bad p id loop) tbl;
    Hashtbl.reset tbl

let is_short_lived p id loop =
  Hashtbl.mem p.sl_seen (id, loop) && not (Hashtbl.mem p.sl_bad (id, loop))
