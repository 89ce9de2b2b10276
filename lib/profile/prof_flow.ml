(* Memory flow-dependence profiler: cross-iteration (loop-carried)
   flow dependences per loop, at word granularity.

   The reference keeps a [Hashtbl] from word address to last-writer
   record; here the shadow is a direct-mapped array per heap tag —
   word index [(addr land (capacity-1)) lsr 3] into a grow-on-demand
   array — so the per-word cost of a store is two array writes.  The
   writer's loop context is a shared {!Loop_ctx.snapshot}, refreshed
   only when the context actually changes (the reference rebuilds the
   list on every loop iteration instead). *)

open Privateer_ir

type shadow = {
  mutable w_site : int array; (* word -> writer site, -1 = none *)
  mutable w_vec : Loop_ctx.snap array; (* word -> writer context snapshot *)
  mutable w_epoch : int array; (* word -> Loop_ctx.epoch at write *)
}

type t = {
  ctx : Loop_ctx.t;
  shadows : shadow array; (* indexed by heap tag *)
  deps : (int, (int * int, Profile_types.dep_info) Hashtbl.t) Hashtbl.t;
  (* One-entry memo on (loop, writer site, reader site): a streaming
     read repeats the same dependence every iteration, and the memo
     turns those two hash lookups into three compares. *)
  mutable last_loop : int; (* -1 = memo invalid *)
  mutable last_wsite : int;
  mutable last_rsite : int;
  mutable last_info : Profile_types.dep_info;
  mutable scratch : int array; (* match-walk collection buffer *)
  mutable singles : int array array; (* loop -> interned [| loop |] *)
}

let create ctx =
  { ctx;
    shadows =
      Array.init
        (1 lsl Heap.tag_bits)
        (fun _ -> { w_site = [||]; w_vec = [||]; w_epoch = [||] });
    deps = Hashtbl.create 8; last_loop = -1; last_wsite = -1; last_rsite = -1;
    last_info =
      { Profile_types.dep_count = 0; dep_value = Profile_types.Varying; dep_addr = `Many };
    scratch = Array.make 8 0; singles = Array.make 64 Loop_ctx.no_loops }

let heap_of addr = (addr lsr Heap.tag_shift) land ((1 lsl Heap.tag_bits) - 1)
let word_of addr = (addr land (Heap.capacity - 1)) lsr 3

(* Stdlib.max/min are polymorphic — a generic call per event in the
   hot paths below; these stay integer compares. *)
let[@inline] imax a b : int = if a >= b then a else b
let[@inline] imin a b : int = if a <= b then a else b

let ensure sh word =
  let n = Array.length sh.w_site in
  if word >= n then begin
    let n' = max (max (2 * n) 1024) (word + 1) in
    let ws = Array.make n' (-1) in
    Array.blit sh.w_site 0 ws 0 n;
    let wv = Array.make n' Loop_ctx.empty_snapshot in
    Array.blit sh.w_vec 0 wv 0 n;
    let we = Array.make n' 0 in
    Array.blit sh.w_epoch 0 we 0 n;
    sh.w_site <- ws;
    sh.w_vec <- wv;
    sh.w_epoch <- we
  end

let record_dep p loop wsite rsite addr value =
  let info =
    if loop = p.last_loop && wsite = p.last_wsite && rsite = p.last_rsite then
      p.last_info
    else begin
      let deps =
        match Hashtbl.find_opt p.deps loop with
        | Some d -> d
        | None ->
          let d = Hashtbl.create 16 in
          Hashtbl.replace p.deps loop d;
          d
      in
      let info =
        match Hashtbl.find_opt deps (wsite, rsite) with
        | Some info -> info
        | None ->
          let info =
            { Profile_types.dep_count = 0; dep_value = Profile_types.Const value;
              dep_addr = `Addr addr }
          in
          Hashtbl.replace deps (wsite, rsite) info;
          info
      in
      p.last_loop <- loop;
      p.last_wsite <- wsite;
      p.last_rsite <- rsite;
      p.last_info <- info;
      info
    end
  in
  info.Profile_types.dep_count <- info.Profile_types.dep_count + 1;
  (match info.Profile_types.dep_value with
  | Profile_types.Const v when Privateer_interp.Value.equal v value -> ()
  | Profile_types.Const _ -> info.Profile_types.dep_value <- Profile_types.Varying
  | Profile_types.Varying -> ());
  match info.Profile_types.dep_addr with
  | `Addr a when a = addr -> ()
  | `Addr _ -> info.Profile_types.dep_addr <- `Many
  | `Many -> ()

(* Interned one-loop match sets: nearly every productive walk matches
   exactly one loop, and the memo would otherwise allocate a fresh
   one-element array per (snapshot, epoch). *)
let singleton p l =
  let n = Array.length p.singles in
  if l >= n then begin
    let a = Array.make (max (2 * n) (l + 1)) Loop_ctx.no_loops in
    Array.blit p.singles 0 a 0 n;
    p.singles <- a
  end;
  match p.singles.(l) with
  | [||] ->
    let s = [| l |] in
    p.singles.(l) <- s;
    s
  | s -> s

let seal p n =
  if n = 0 then Loop_ctx.no_loops
  else if n = 1 then singleton p p.scratch.(0)
  else Array.sub p.scratch 0 n

(* The loops matched against writer snapshot [wvec] at the current
   context state: active loops still in the writer's invocation whose
   iteration has advanced.  Word-independent, so the result is cached
   in the snapshot keyed by the context epoch — one walk per
   (snapshot, epoch) serves every word written under that snapshot.

   The walk exploits a structural fact: the stack is LIFO and
   invocation counters are globally unique, so the writer-stack
   entries still live are exactly a *positional common prefix* of the
   current stack.  For duplicate-free snapshots (no recursive loop,
   the overwhelmingly common case) one linear co-walk — compare
   (loop, invocation) level by level from the outermost — finds every
   live entry, with no nested stack search; snapshots carrying a
   duplicated loop id take the shadow-aware quadratic walk instead
   (the reference consults only the innermost entry per loop).

   A walk finding no live entry marks the snapshot *dead*: invocation
   counters only grow, so an ended invocation never returns and the
   snapshot is unmatchable at every future epoch.  Dead snapshots
   (m_epoch = max_int) never walk again — this is what keeps data
   written by a finished loop (initialization is the common case)
   O(1) per read forever after. *)
let matched_loops p (wvec : Loop_ctx.snap) ep =
  if wvec.Loop_ctx.m_epoch >= ep then wvec.Loop_ctx.m_matched
  else begin
    let ctx = p.ctx in
    let tr = wvec.Loop_ctx.triples in
    let ntr = Array.length tr / 3 in
    if Array.length p.scratch < ntr then p.scratch <- Array.make (2 * ntr) 0;
    if not wvec.Loop_ctx.s_dups then begin
      (* Triples are innermost-first; stack index 0 is outermost, so
         triple [ntr - 1 - k] sits at stack position [k].  Returns the
         match count, or -1 when even the outermost writer entry is
         gone (the snapshot is dead); all-int tail recursion so the
         walk allocates nothing. *)
      let lim = imin ntr ctx.Loop_ctx.depth in
      let loops = ctx.Loop_ctx.loops
      and invs = ctx.Loop_ctx.invs
      and iters = ctx.Loop_ctx.iters
      and scratch = p.scratch in
      let rec go k n =
        if k >= lim then n
        else begin
          let j = 3 * (ntr - 1 - k) in
          if
            Array.unsafe_get loops k = Array.unsafe_get tr j
            && Array.unsafe_get invs k = Array.unsafe_get tr (j + 1)
          then
            if Array.unsafe_get iters k > Array.unsafe_get tr (j + 2) then begin
              Array.unsafe_set scratch n (Array.unsafe_get tr j);
              go (k + 1) (n + 1)
            end
            else go (k + 1) n
          else if k = 0 then -1
          else n
        end
      in
      let n = if ntr = 0 then -1 else go 0 0 in
      if n >= 0 then begin
        let m = seal p n in
        wvec.Loop_ctx.m_epoch <- ep;
        wvec.Loop_ctx.m_matched <- m;
        m
      end
      else begin
        wvec.Loop_ctx.m_epoch <- max_int;
        wvec.Loop_ctx.m_matched <- Loop_ctx.no_loops;
        Loop_ctx.no_loops
      end
    end
    else begin
      let n = ref 0 in
      let alive = ref false in
      for j = 0 to ntr - 1 do
        let l = tr.(3 * j) in
        (* Innermost-first: entries shadowed by an earlier entry for
           the same loop are never consulted (the reference's
           [find_opt]). *)
        if Loop_ctx.find_in_snapshot tr l = j then begin
          let inv = tr.((3 * j) + 1) in
          (* The stack level running invocation [inv] of [l], if any
             (invocations are unique, so at most one level matches). *)
          let s = ref (ctx.Loop_ctx.depth - 1) in
          while
            !s >= 0
            && not
                 (Array.unsafe_get ctx.Loop_ctx.loops !s = l
                 && Array.unsafe_get ctx.Loop_ctx.invs !s = inv)
          do
            decr s
          done;
          if !s >= 0 then begin
            alive := true;
            if Array.unsafe_get ctx.Loop_ctx.iters !s > tr.((3 * j) + 2) then begin
              p.scratch.(!n) <- l;
              incr n
            end
          end
        end
      done;
      if !alive then begin
        let m = seal p !n in
        wvec.Loop_ctx.m_epoch <- ep;
        wvec.Loop_ctx.m_matched <- m;
        m
      end
      else begin
        wvec.Loop_ctx.m_epoch <- max_int;
        wvec.Loop_ctx.m_matched <- Loop_ctx.no_loops;
        Loop_ctx.no_loops
      end
    end
  end

let on_load p site addr size value =
  let ctx = p.ctx in
  if ctx.Loop_ctx.depth > 0 then begin
    let sh = Array.unsafe_get p.shadows (heap_of addr) in
    let extent = Array.length sh.w_site in
    let ep = ctx.Loop_ctx.epoch in
    for w = word_of addr to word_of (addr + imax 1 size - 1) do
      (* Two word-local fast paths, both a probe and a compare into a
         flat int array: same-epoch (no loop boundary crossed since
         the write, so every active loop is still in the writer's
         iteration — the write-then-read-in-the-same-iteration case)
         and the max_int dead-word sentinel (the writer's loop
         invocations have all ended — data a finished loop
         initialized, re-read forever after). *)
      if w < extent then begin
        let we = Array.unsafe_get sh.w_epoch w in
        if we <> ep && we <> max_int && Array.unsafe_get sh.w_site w >= 0
        then begin
          let wsite = Array.unsafe_get sh.w_site w in
          let wvec = Array.unsafe_get sh.w_vec w in
          let m = matched_loops p wvec ep in
          for k = 0 to Array.length m - 1 do
            record_dep p (Array.unsafe_get m k) wsite site addr value
          done;
          if wvec.Loop_ctx.m_epoch = max_int then
            Array.unsafe_set sh.w_epoch w max_int
        end
      end
    done
  end

let on_store p site addr size =
  let sh = p.shadows.(heap_of addr) in
  let hi = word_of (addr + imax 1 size - 1) in
  ensure sh hi;
  let snap = Loop_ctx.snapshot p.ctx in
  let ep = p.ctx.Loop_ctx.epoch in
  for w = word_of addr to hi do
    sh.w_site.(w) <- site;
    sh.w_vec.(w) <- snap;
    sh.w_epoch.(w) <- ep
  done

let on_free p addr size =
  let sh = p.shadows.(heap_of addr) in
  let extent = Array.length sh.w_site in
  let hi = imin (word_of (addr + imax 8 size - 1)) (extent - 1) in
  for w = word_of addr to hi do
    sh.w_site.(w) <- -1;
    sh.w_vec.(w) <- Loop_ctx.empty_snapshot
  done

(* Canonical order (writer site, reader site), matching the
   reference. *)
let flow_deps p loop =
  match Hashtbl.find_opt p.deps loop with
  | None -> []
  | Some tbl ->
    Hashtbl.fold (fun (w, r) info acc -> (w, r, info) :: acc) tbl []
    |> List.sort (fun (w1, r1, _) (w2, r2, _) -> compare (w1, r1) (w2, r2))
