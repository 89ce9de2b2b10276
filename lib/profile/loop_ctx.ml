(* Mutable loop-context tracking for profiler consumers: the stack of
   (loop, invocation, iteration) triples for the loops currently
   executing.  The reference profiler rebuilds an immutable list on
   every [on_loop_iter]; here the stack lives in flat arrays mutated
   in place, and consumers that must remember "the context as of this
   event" (flow-dep write records, lifetime birth vectors) take a
   packed [snapshot] that is shared until the next mutation.

   A snapshot is an int array of [3 * depth] slots — loop, invocation,
   iteration — with the innermost loop first, matching the reference's
   innermost-first list order so first-match scans agree.

   Recursion can put the same loop id on the stack more than once;
   [iter] updates every matching entry and [exit] pops the top entry
   if it matches, otherwise removes all matching entries — exactly the
   reference semantics. *)

(* A snapshot carries a match-memo for the flow profiler: the set of
   currently-active loops whose iteration has advanced past this
   context is a function of (snapshot, epoch) alone — not of which
   word is being read — so one walk per (snapshot, epoch) serves every
   shadow word written under that snapshot.  Only the flow profiler
   reads or writes the memo, and each profiler instance owns its
   context, so a memo never mixes epochs of two contexts — except
   [empty_snapshot], whose matched set is empty at every epoch of
   every context, making sharing harmless. *)
type snap = {
  triples : int array; (* packed (loop, invocation, iter), innermost first *)
  s_dups : bool; (* some loop id appears twice (recursion) *)
  mutable m_epoch : int; (* epoch [m_matched] was computed at; 0 = never *)
  mutable m_matched : int array; (* loops with a cross-iteration match *)
}

type t = {
  mutable loops : int array; (* index 0 = outermost *)
  mutable invs : int array;
  mutable iters : int array;
  mutable depth : int;
  counts : (int, int ref) Hashtbl.t; (* loop -> invocation counter *)
  mutable snap : snap option; (* cached packed snapshot *)
  mutable epoch : int; (* bumped on every enter/iter/exit *)
}

let no_loops : int array = [||]

let empty_snapshot : snap =
  { triples = [||]; s_dups = false; m_epoch = 0; m_matched = no_loops }

let create () =
  { loops = Array.make 8 0; invs = Array.make 8 0; iters = Array.make 8 0;
    depth = 0; counts = Hashtbl.create 8; snap = Some empty_snapshot;
    epoch = 1 }

let grow t =
  let n = Array.length t.loops * 2 in
  let cp a = let b = Array.make n 0 in Array.blit a 0 b 0 t.depth; b in
  t.loops <- cp t.loops;
  t.invs <- cp t.invs;
  t.iters <- cp t.iters

let enter t loop =
  let c =
    match Hashtbl.find_opt t.counts loop with
    | Some c -> c
    | None -> let c = ref 0 in Hashtbl.replace t.counts loop c; c
  in
  incr c;
  if t.depth = Array.length t.loops then grow t;
  t.loops.(t.depth) <- loop;
  t.invs.(t.depth) <- !c;
  t.iters.(t.depth) <- -1;
  t.depth <- t.depth + 1;
  t.snap <- None;
  t.epoch <- t.epoch + 1

let iter t loop iteration =
  for i = 0 to t.depth - 1 do
    if t.loops.(i) = loop then t.iters.(i) <- iteration
  done;
  t.snap <- None;
  t.epoch <- t.epoch + 1

let exit t loop =
  (if t.depth > 0 && t.loops.(t.depth - 1) = loop then t.depth <- t.depth - 1
   else begin
     (* Unbalanced exit: drop every entry for [loop], compacting. *)
     let j = ref 0 in
     for i = 0 to t.depth - 1 do
       if t.loops.(i) <> loop then begin
         t.loops.(!j) <- t.loops.(i);
         t.invs.(!j) <- t.invs.(i);
         t.iters.(!j) <- t.iters.(i);
         incr j
       end
     done;
     t.depth <- !j
   end);
  t.snap <- None;
  t.epoch <- t.epoch + 1

let depth t = t.depth

(* Innermost-first packed triples; cached and shared until the next
   mutation, so consecutive stores in one iteration share one array. *)
let snapshot t =
  match t.snap with
  | Some s -> s
  | None ->
    let s =
      if t.depth = 0 then empty_snapshot
      else begin
        let a = Array.make (3 * t.depth) 0 in
        for i = 0 to t.depth - 1 do
          let src = t.depth - 1 - i in
          a.(3 * i) <- t.loops.(src);
          a.(3 * i + 1) <- t.invs.(src);
          a.(3 * i + 2) <- t.iters.(src)
        done;
        (* Duplicate loop ids (recursion) force consumers onto the
           shadow-aware slow walk; the check is O(depth^2) but runs
           once per snapshot, amortized over every event sharing it. *)
        let dups = ref false in
        for i = 1 to t.depth - 1 do
          for j = 0 to i - 1 do
            if a.(3 * i) = a.(3 * j) then dups := true
          done
        done;
        { triples = a; s_dups = !dups; m_epoch = 0; m_matched = no_loops }
      end
    in
    t.snap <- Some s;
    s

(* First entry for [loop] in a packed snapshot, innermost-first —
   the analogue of the reference's [List.find_opt] over [wvec].
   Returns the triple index, or -1. *)
let find_in_snapshot snap loop =
  let n = Array.length snap / 3 in
  let rec go i = if i >= n then -1 else if snap.(3 * i) = loop then i else go (i + 1) in
  go 0

(* Innermost entry for [loop] on the current stack (the analogue of
   [List.find_opt] over the reference's innermost-first list).
   Returns the stack index for [inv_at]/[iter_at], or -1. *)
let find_current t loop =
  let rec go i = if i < 0 then -1 else if t.loops.(i) = loop then i else go (i - 1) in
  go (t.depth - 1)

let inv_at t i = t.invs.(i)
let iter_at t i = t.iters.(i)

(* Iterate the current context innermost-first: [f loop inv iter]. *)
let iter_current t f =
  for i = t.depth - 1 downto 0 do
    f t.loops.(i) t.invs.(i) t.iters.(i)
  done
