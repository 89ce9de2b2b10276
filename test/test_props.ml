(* Property-based tests (qcheck via QCheck_alcotest).

   Each property targets a core invariant of the system:
   - the interval map behaves like a naive model;
   - the allocator never hands out overlapping live ranges and always
     stays within its heap's tagged range;
   - copy-on-write snapshots, snapshots of snapshots included, stay
     isolated and agree with a byte model (reads, float tags, dirty
     sets) while their page caches share, evict and refill slots and
     retired snapshots hand their pages on to the others;
   - copy-on-write allocator state agrees with deep-copying every
     allocator at each snapshot;
   - the shadow metadata machine agrees with an oracle that tracks
     the full access history of a byte (the privatization criterion),
     and its exact per-page timestamp counts agree with the page
     bytes, every timestamp sits on a dirty page, and each heap's
     mapped-page count agrees with the page table;
   - pretty-printing and validation are total on generated loop
     programs, whose generator test_contract also runs as one of its
     corpora. *)

open Privateer_support

let count = 200

(* ---- interval map vs naive model --------------------------------------- *)

type im_op = Insert of int * int | RemoveStart of int | Query of int

let im_op_gen =
  QCheck.Gen.(
    frequency
      [ (4, map2 (fun lo len -> Insert (lo * 8, lo * 8 + 8 + (len mod 64))) (int_bound 100) (int_bound 63));
        (1, map (fun lo -> RemoveStart (lo * 8)) (int_bound 100));
        (3, map (fun a -> Query a) (int_bound 900)) ])

let im_ops_arb =
  QCheck.make ~print:(fun ops -> string_of_int (List.length ops) ^ " ops")
    QCheck.Gen.(list_size (int_bound 60) im_op_gen)

(* Naive model: list of disjoint (lo, hi, id). *)
let prop_interval_map_model ops =
  let m = Interval_map.create () in
  let model = ref [] in
  let ok = ref true in
  List.iteri
    (fun i op ->
      match op with
      | Insert (lo, hi) ->
        Interval_map.insert m lo hi i;
        model := (lo, hi, i) :: List.filter (fun (l, h, _) -> h <= lo || l >= hi) !model
      | RemoveStart lo -> (
        let got = Interval_map.remove_start m lo in
        let want = List.find_opt (fun (l, _, _) -> l = lo) !model in
        model := List.filter (fun (l, _, _) -> l <> lo) !model;
        match (got, want) with
        | Some (h, v), Some (_, h', v') -> if h <> h' || v <> v' then ok := false
        | None, None -> ()
        | _ -> ok := false)
      | Query a -> (
        let got = Interval_map.find_opt m a in
        let want = List.find_opt (fun (l, h, _) -> l <= a && a < h) !model in
        match (got, want) with
        | Some (l, h, v), Some (l', h', v') ->
          if l <> l' || h <> h' || v <> v' then ok := false
        | None, None -> ()
        | _ -> ok := false))
    ops;
  !ok && Interval_map.well_formed m

(* ---- allocator --------------------------------------------------------- *)

let alloc_script_arb =
  (* positive = alloc of that many bytes; negative = free the n-th
     oldest live allocation. *)
  QCheck.make
    ~print:(fun l -> String.concat ";" (List.map string_of_int l))
    QCheck.Gen.(list_size (int_bound 80) (map (fun n -> (n mod 120) - 20) nat))

let prop_allocator_no_overlap script =
  let open Privateer_machine in
  let a = Allocator.create Privateer_ir.Heap.Private in
  let live = ref [] in
  let ok = ref true in
  List.iter
    (fun n ->
      if n >= 0 then begin
        let size = max 1 n in
        let addr = Allocator.alloc a size in
        if Privateer_ir.Heap.(heap_of_addr addr <> Private) then ok := false;
        (* no overlap with any live range *)
        List.iter
          (fun (base, sz) ->
            if addr < base + sz && base < addr + size then ok := false)
          !live;
        live := (addr, size) :: !live
      end
      else begin
        match !live with
        | [] -> ()
        | (base, _) :: rest ->
          ignore (Allocator.free a base);
          live := rest
      end)
    script;
  !ok && Allocator.live_count a = List.length !live

(* ---- COW snapshots and the page cache vs a byte model ------------------- *)

(* Scripts over a parent memory and copy-on-write snapshots
   (snapshots of snapshots included), at most four memories live at a
   time, checked op by op against a plain model per memory: a byte
   map, the word float tags, and the dirty and mapped page sets.  A
   [Release] retires a live snapshot ([Memory.release]), whose pages
   the others' later clones and fresh pages may reuse, and no later op
   touches a retired memory.  After every op, every live memory reads
   its model at every address written so far, and a page object that
   two live memories map is flagged [shared].  Addresses span more
   than 64 pages of the Default, Private and Shadow heaps, and an op
   may reuse a recent address, its private/shadow twin, or the page 64
   pages further on in the same heap, so page-cache slots are shared,
   evicted and refilled while snapshots share and clone pages. *)

type mem_op =
  | Read_byte of int * int (* memory, address *)
  | Read_word of int * int
  | Write_byte of int * int * int
  | Write_word of int * int * int64 * bool
  | Fill_words of int * int * int * int64 * bool (* memory, address, words, bits, float *)
  | Clear_dirty of int
  | Snapshot of int (* source memory *)
  | Release of int (* a live memory; the parent is never retired *)

let max_memories = 4

let cow_pages = List.init 8 Fun.id @ List.init 8 (( + ) 36) @ List.init 8 (( + ) 64)

let cow_addr_gen =
  QCheck.Gen.(
    map3
      (fun heap page off ->
        Privateer_ir.Heap.base heap + (page * Privateer_machine.Memory.page_size) + off)
      (oneofl Privateer_ir.Heap.[ Default; Private; Shadow ])
      (oneofl cow_pages)
      (* the head or the tail of a page, so word ops cross pages *)
      (oneof
         [ int_bound 40; map (fun k -> Privateer_machine.Memory.page_size - 24 + k) (int_bound 23) ]))

(* An op's address: a fresh one, or derived from one of the last
   eight addresses. *)
let resolve_addr recent fresh pick =
  let open Privateer_ir in
  match List.nth_opt recent (pick mod 8) with
  | Some a when pick < 8 -> a
  | Some a when pick < 10 && Heap.(heap_of_addr a = Private || heap_of_addr a = Shadow) ->
    a lxor Heap.private_shadow_bit
  | Some a when pick < 12 -> a + (64 * Privateer_machine.Memory.page_size)
  | _ -> fresh

let mem_ops_gen =
  QCheck.Gen.(
    list_size (int_bound 150)
      (map3
         (fun (kind, m, pick) (fresh, align, v) (words, bits, is_float) ->
           (kind, m, pick, fresh, align, v, words, bits, is_float))
         (triple (int_bound 104) (int_bound (max_memories - 1)) (int_bound 15))
         (triple cow_addr_gen bool (int_bound 255))
         (triple (int_range 1 6) (map Int64.of_int int) bool))
    >|= fun raw ->
    let recent = ref [] in
    List.map
      (fun (kind, m, pick, fresh, align, v, words, bits, is_float) ->
        let a = resolve_addr !recent fresh pick in
        let a = if align then a land lnot 7 else a in
        if kind < 90 then recent := a :: !recent;
        if kind < 20 then Read_byte (m, a)
        else if kind < 40 then Read_word (m, a)
        else if kind < 60 then Write_byte (m, a, v)
        else if kind < 82 then Write_word (m, a, bits, is_float)
        else if kind < 90 then Fill_words (m, a, words, bits, is_float)
        else if kind < 95 then Clear_dirty m
        else if kind < 100 then Snapshot m
        else Release m)
      raw)

let mem_ops_arb =
  QCheck.make ~print:(fun ops -> string_of_int (List.length ops) ^ " ops") mem_ops_gen

type mem_model = {
  bytes : (int, int) Hashtbl.t;
  ftags : (int, bool) Hashtbl.t; (* word address -> float tag *)
  dirty : (int, unit) Hashtbl.t; (* page numbers *)
  mapped : (int, unit) Hashtbl.t;
}

let model_touch md addr =
  let key = Privateer_machine.Memory.page_of_addr addr in
  Hashtbl.replace md.dirty key ();
  Hashtbl.replace md.mapped key ()

let model_write_byte md addr v =
  model_touch md addr;
  Hashtbl.replace md.bytes addr (v land 0xff);
  Hashtbl.replace md.ftags (addr land lnot 7) false

let model_write_word md addr bits is_float =
  for i = 0 to 7 do
    model_write_byte md (addr + i)
      (Int64.to_int (Int64.shift_right_logical bits (8 * i)) land 0xff)
  done;
  if addr land 7 = 0 then Hashtbl.replace md.ftags addr is_float

let model_read_byte md addr = Option.value (Hashtbl.find_opt md.bytes addr) ~default:0

let model_read_word md addr =
  let bits = ref 0L in
  for i = 7 downto 0 do
    bits := Int64.logor (Int64.shift_left !bits 8) (Int64.of_int (model_read_byte md (addr + i)))
  done;
  ( !bits,
    addr land 7 = 0 && Option.value (Hashtbl.find_opt md.ftags addr) ~default:false )

let sorted_keys tbl = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) tbl [])

(* The memory's dirty sets, per heap and in total, equal the model's,
   and every dirty page shows [written_this_interval]. *)
let dirty_agrees mem md =
  let open Privateer_machine in
  let model_dirty = sorted_keys md.dirty in
  List.for_all
    (fun heap ->
      List.sort compare (Memory.dirty_pages ~heap mem)
      = List.filter
          (fun key ->
            Privateer_ir.Heap.heap_of_addr (Memory.base_of_page key) = heap)
          model_dirty)
    Privateer_ir.Heap.all
  && Memory.dirty_count mem = List.length model_dirty
  && List.for_all
       (fun key ->
         let a = Memory.base_of_page key in
         Memory.is_mapped mem a && (Memory.page_for_read mem a).Memory.written_this_interval)
       model_dirty

(* Every page object that two live memories map, or one maps at two
   page numbers, is flagged [shared]: a write through either clones. *)
let shared_pages_flagged mems =
  let open Privateer_machine in
  let pages =
    Array.of_list
      (List.concat_map
         (fun mem ->
           List.map
             (fun key -> Memory.page_for_read mem (Memory.base_of_page key))
             (Memory.mapped_pages mem))
         mems)
  in
  let ok = ref true in
  Array.iteri
    (fun i p ->
      for j = i + 1 to Array.length pages - 1 do
        if pages.(j) == p && not p.Memory.shared then ok := false
      done)
    pages;
  !ok

let prop_cow_page_cache ops =
  let open Privateer_machine in
  let mems = ref [| Memory.create () |] in
  let models =
    ref
      [| { bytes = Hashtbl.create 64; ftags = Hashtbl.create 16; dirty = Hashtbl.create 8;
           mapped = Hashtbl.create 8 } |]
  in
  (* The indices of the live memories, the parent first. *)
  let live = ref [ 0 ] in
  let touched = Hashtbl.create 64 in
  let ok = ref true in
  let pick m = List.nth !live (m mod List.length !live) in
  List.iter
    (fun op ->
      (match op with
      | Read_byte (m, a) ->
        let m = pick m in
        if Memory.read_byte !mems.(m) a <> model_read_byte !models.(m) a then ok := false
      | Read_word (m, a) ->
        let m = pick m in
        if Memory.read_word !mems.(m) a <> model_read_word !models.(m) a then ok := false
      | Write_byte (m, a, v) ->
        let m = pick m in
        Hashtbl.replace touched a ();
        Memory.write_byte !mems.(m) a v;
        model_write_byte !models.(m) a v
      | Write_word (m, a, bits, is_float) ->
        let m = pick m in
        Hashtbl.replace touched a ();
        Memory.write_word !mems.(m) a bits is_float;
        model_write_word !models.(m) a bits is_float
      | Fill_words (m, a, words, bits, is_float) ->
        let m = pick m in
        Memory.fill_words !mems.(m) a ~words bits is_float;
        for w = 0 to words - 1 do
          Hashtbl.replace touched (a + (8 * w)) ();
          model_write_word !models.(m) (a + (8 * w)) bits is_float
        done
      | Clear_dirty m ->
        let m = pick m in
        Memory.clear_dirty !mems.(m);
        Hashtbl.reset !models.(m).dirty
      | Snapshot m ->
        if List.length !live < max_memories then begin
          let m = pick m in
          let md = !models.(m) in
          live := !live @ [ Array.length !mems ];
          mems := Array.append !mems [| Memory.snapshot !mems.(m) |];
          models :=
            Array.append !models
              [| { bytes = Hashtbl.copy md.bytes; ftags = Hashtbl.copy md.ftags;
                   dirty = Hashtbl.create 8; mapped = Hashtbl.copy md.mapped } |]
        end
      | Release m ->
        let m = pick m in
        if m <> 0 then begin
          Memory.release !mems.(m);
          live := List.filter (( <> ) m) !live
        end);
      List.iter
        (fun m ->
          let mem = !mems.(m) and md = !models.(m) in
          if not (dirty_agrees mem md) then ok := false;
          (* [is_mapped] answers false for an unmapped page even when
             the page cache holds the all-zero stand-in for it. *)
          List.iter
            (fun a ->
              let mapped = Hashtbl.mem md.mapped (Memory.page_of_addr a) in
              if Memory.is_mapped mem a <> mapped then ok := false)
            (match op with
            | Read_byte (_, a) | Read_word (_, a) | Write_byte (_, a, _)
            | Write_word (_, a, _, _) | Fill_words (_, a, _, _, _) -> [ a; a + 7 ]
            | Clear_dirty _ | Snapshot _ | Release _ -> []);
          (* The memory reads its model at every address written so
             far: a page another memory reused would show here. *)
          Hashtbl.iter
            (fun a () -> if Memory.read_word mem a <> model_read_word md a then ok := false)
            touched)
        !live;
      if not (shared_pages_flagged (List.map (fun m -> !mems.(m)) !live)) then ok := false)
    ops;
  (* Every live memory still reads the model at every byte written. *)
  Hashtbl.iter
    (fun a () ->
      List.iter
        (fun m ->
          let mem = !mems.(m) and md = !models.(m) in
          for i = 0 to 7 do
            if Memory.read_byte mem (a + i) <> model_read_byte md (a + i) then ok := false
          done)
        !live)
    touched;
  !ok

(* ---- copy-on-write allocator state vs deep copies ------------------------ *)

(* Scripts over a parent machine and up to three snapshots; the second
   snapshot is always of the first, so whenever a script makes two,
   one is a snapshot of a snapshot.  The model keeps eight allocators
   per machine and deep-copies all of them at each snapshot.  After
   every op, each machine must agree with its model on what the op
   returned (the address, the freed size or the [Failure] text), on
   [live_count] and [bump] in every heap, and on [is_live] at every
   address seen so far. *)

type alloc_op =
  | A_alloc of int * int * int (* machine, heap index, size *)
  | A_free of int * int (* machine, pick among seen and foreign addresses *)
  | A_snapshot of int
  | A_commit of int * int (* target, last; [all] is every machine *)

let alloc_heaps = Privateer_ir.Heap.[ Default; Private; Short_lived; Stack; Redux ]

let alloc_ops_arb =
  QCheck.make ~print:(fun ops -> string_of_int (List.length ops) ^ " ops")
    QCheck.Gen.(
      list_size (int_bound 120)
        (frequency
           [ ( 8,
               map3
                 (fun m h size -> A_alloc (m, h, size))
                 (int_bound 3)
                 (int_bound (List.length alloc_heaps - 1))
                 (oneofl [ 1; 8; 16; 24; 40; 64 ]) );
             (6, map2 (fun m k -> A_free (m, k)) (int_bound 3) (int_bound 1000));
             (2, map (fun m -> A_snapshot m) (int_bound 3));
             (1, map2 (fun t l -> A_commit (t, l)) (int_bound 3) (int_bound 3)) ]))

(* What an op returned: an address or freed size, or a [Failure]. *)
let outcome f = match f () with v -> Ok v | exception Failure msg -> Error msg

let prop_cow_allocators ops =
  let open Privateer_machine in
  let open Privateer_ir in
  let machines = ref [| Machine.create () |] in
  let models = ref [| Array.of_list (List.map Allocator.create Heap.all) |] in
  (* Addresses any machine returned, plus pointers no allocator ever
     handed out. *)
  let seen = ref (List.map (fun h -> Heap.base h + 8) alloc_heaps) in
  let ok = ref true in
  let pick m = m mod Array.length !machines in
  let agree got want = if got <> want then ok := false in
  List.iter
    (fun op ->
      (match op with
      | A_alloc (m, h, size) ->
        let m = pick m in
        let heap = List.nth alloc_heaps h in
        let got = outcome (fun () -> Machine.alloc !machines.(m) heap size) in
        let want =
          outcome (fun () -> Allocator.alloc !models.(m).(Heap.tag heap) size)
        in
        agree got want;
        Result.iter (fun a -> seen := a :: !seen) got
      | A_free (m, k) ->
        let m = pick m in
        let addr = List.nth !seen (k mod List.length !seen) in
        let got = outcome (fun () -> snd (Machine.free !machines.(m) addr)) in
        let want =
          outcome (fun () ->
              Allocator.free !models.(m).(Heap.tag (Heap.heap_of_addr addr)) addr)
        in
        agree got want
      | A_snapshot m ->
        let n = Array.length !machines in
        if n < 4 then begin
          let m = if n = 2 then 1 else pick m in
          machines := Array.append !machines [| Machine.snapshot !machines.(m) |];
          models := Array.append !models [| Array.map Allocator.copy !models.(m) |]
        end
      | A_commit (t, l) ->
        let t = pick t and l = pick l in
        Machine.commit_allocators !machines.(t) ~last:!machines.(l)
          ~all:(Array.to_list !machines);
        List.iter
          (fun heap ->
            let tag = Heap.tag heap in
            let merged = Allocator.copy !models.(l).(tag) in
            Array.iter (fun md -> Allocator.raise_bump merged (Allocator.bump md.(tag))) !models;
            !models.(t).(tag) <- merged)
          [ Heap.Default; Heap.Private; Heap.Short_lived ]);
      Array.iteri
        (fun m machine ->
          let a heap = Machine.allocator machine heap in
          let md heap = !models.(m).(Heap.tag heap) in
          List.iter
            (fun heap ->
              agree (Allocator.live_count (a heap)) (Allocator.live_count (md heap));
              agree (Allocator.bump (a heap)) (Allocator.bump (md heap)))
            Heap.all;
          List.iter
            (fun addr ->
              let heap = Heap.heap_of_addr addr in
              agree (Allocator.is_live (a heap) addr) (Allocator.is_live (md heap) addr))
            !seen)
        !machines)
    ops;
  !ok

(* ---- shadow machine vs history oracle ----------------------------------- *)

(* A byte's access history within one checkpoint interval: list of
   (iteration, op).  The oracle decides validity from the paper's
   privatization criterion directly. *)
type acc = { it : int; write : bool }

let history_arb =
  QCheck.make
    ~print:(fun l ->
      String.concat ","
        (List.map (fun a -> Printf.sprintf "%s@%d" (if a.write then "W" else "R") a.it) l))
    QCheck.Gen.(
      list_size (int_bound 20)
        (map2 (fun it w -> { it; write = w }) (int_bound 12) bool))

(* Sort accesses by iteration (stable), as execution would produce
   them; then both machine and oracle consume them in order. *)
let prop_shadow_vs_oracle history =
  let history = List.stable_sort (fun a b -> compare a.it b.it) history in
  (* Machine verdict. *)
  let open Privateer_runtime in
  let meta = ref Shadow.live_in in
  let machine_fail = ref None in
  List.iteri
    (fun idx a ->
      if !machine_fail = None then begin
        let beta = Shadow.timestamp ~iter:a.it ~interval_start:0 in
        match
          Shadow.transition (if a.write then Shadow.Write else Shadow.Read)
            ~current:!meta ~beta
        with
        | Shadow.Keep -> ()
        | Shadow.Update m -> meta := m
        | Shadow.Fail _ -> machine_fail := Some idx
      end)
    history;
  (* Oracle: the first failure index under the paper's rules:
     - a read in iteration j of a byte last written in iteration i<j
       violates privacy;
     - a read of a never-written byte is a live-in read; a LATER write
       (in any iteration) after some live-in read is flagged
       conservatively (the one-byte metadata design);
     - intra-iteration write->read is fine. *)
  let oracle_fail = ref None in
  let last_write = ref None in
  let read_live_in = ref false in
  List.iteri
    (fun idx a ->
      if !oracle_fail = None then
        if a.write then begin
          if !read_live_in then oracle_fail := Some idx else last_write := Some a.it
        end
        else
          match !last_write with
          | None -> read_live_in := true
          | Some w when w = a.it -> ()
          | Some _ -> oracle_fail := Some idx)
    history;
  !machine_fail = !oracle_fail

(* ---- range-granular shadow access vs per-byte reference ----------------- *)

(* The refactored Shadow.access resolves pages per contiguous run and
   keeps exact per-page timestamp counts; Shadow_reference retains the original
   per-byte implementation.  Under random op/addr/size/beta sequences
   (addresses biased to straddle page boundaries, occasional interval
   resets to stress the count-driven reset path) both must produce the
   same verdicts at the same op index and byte-identical metadata.

   Both implementations satisfy [Shadow_sig.S], so the op-list driver
   is a functor over the signature: the same workload replays against
   any implementation, and [test_checkpoint] reuses the instances
   to pin the full-page reset against the oracle. *)
type sh_op = Access of { write : bool; off : int; size : int; beta : int } | Reset

module Shadow_equiv (S : Privateer_oracle.Shadow_sig.S) = struct
  (* Replay [ops] on a fresh machine through [S]; returns the machine
     and the first failure (op index + structural misspec reason). *)
  let run ops =
    let open Privateer_machine in
    let open Privateer_runtime in
    let base = Privateer_ir.Heap.base Privateer_ir.Heap.Private in
    let m = Machine.create () in
    let fail = ref None in
    List.iteri
      (fun idx op ->
        if !fail = None then
          match op with
          | Reset -> ignore (S.reset_interval m)
          | Access a -> (
            try
              S.access m
                (if a.write then Shadow.Write else Shadow.Read)
                ~addr:(base + a.off) ~size:a.size ~beta:a.beta
            with Misspec.Misspeculation r -> fail := Some (idx, r)))
      ops;
    (m, !fail)
end

module Run_shadow = Shadow_equiv (Privateer_runtime.Shadow)
module Run_reference = Shadow_equiv (Privateer_oracle.Shadow_reference)

(* Word-path ops: aligned 8-byte accesses over four words at the head
   of each of two shadow pages, with beta drawn from {3, 4, 5} so a word
   revisits each uniform state (all live-in, old-write, read-live-in or
   beta), and short accesses inside those words to leave them mixed. *)
let word_op_gen =
  QCheck.Gen.(
    let word = map2 (fun page w -> (page * 4096) + (8 * w)) (int_bound 1) (int_bound 3) in
    let beta = int_range 3 5 in
    frequency
      [ ( 3,
          map3 (fun write off beta -> Access { write; off; size = 8; beta }) bool word beta );
        ( 1,
          map3
            (fun (write, off) (d, len) beta ->
              Access { write; off = off + d; size = 1 + (len mod (8 - d)); beta })
            (pair bool word)
            (pair (int_bound 7) (int_bound 6))
            beta ) ])

let sh_op_gen =
  QCheck.Gen.(
    let page = 4096 in
    let off_gen =
      oneof
        [ int_bound (3 * page);
          map (fun d -> page - 20 + d) (int_bound 40);
          map (fun d -> (2 * page) - 20 + d) (int_bound 40) ]
    in
    frequency
      [ ( 5,
          map2
            (fun (w, off) (size, beta) -> Access { write = w; off; size; beta })
            (pair bool off_gen)
            (pair (int_range 1 64) (int_range 3 250)) );
        (4, word_op_gen);
        (1, return Reset) ])

let sh_ops_arb =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | Access a ->
               Printf.sprintf "%s@%d+%d b%d" (if a.write then "W" else "R") a.off a.size
                 a.beta
             | Reset -> "RESET")
           ops))
    QCheck.Gen.(list_size (int_bound 40) sh_op_gen)

let prop_range_access_matches_reference ops =
  let open Privateer_machine in
  let m_new, f_new = Run_shadow.run ops in
  let m_ref, f_ref = Run_reference.run ops in
  (* Same failing op index and structurally equal verdict (Misspec
     reasons are pure data), and byte-identical memories afterwards. *)
  f_new = f_ref && Memory.equal_footprint m_new.Machine.mem m_ref.Machine.mem

(* What the reset and extraction rely on, after every op of a run
   whose resets are followed by [clear_dirty], as the commit does:
   - each mapped shadow page's exact timestamp count, behind the
     reset's full-page fill and both scans' early stop, equals a
     recount of its bytes;
   - every shadow page holding a timestamp is in the dirty set, the
     only pages the reset and extraction visit;
   - each heap's mapped-page count, the reset's charge, equals a
     recount of the page table.
   The reference keeps no counts, so this is checked against the
   bytes themselves; failing ops leave their partial updates counted
   too, so the run goes on past them. *)
let counts_match (m : Privateer_machine.Machine.t) =
  let open Privateer_machine in
  let open Privateer_ir in
  let mapped = Memory.mapped_pages m.mem in
  let heap_of key = Heap.heap_of_addr (Memory.base_of_page key) in
  let dirty = Memory.dirty_pages m.mem ~heap:Heap.Shadow in
  List.for_all
    (fun key ->
      (not (Heap.equal_kind (heap_of key) Heap.Shadow))
      ||
      let p = Memory.page_for_read m.mem (Memory.base_of_page key) in
      let ts = ref 0 in
      Bytes.iter
        (fun c -> if Char.code c >= Privateer_runtime.Shadow.first_timestamp then incr ts)
        p.Memory.bytes;
      !ts = p.Memory.timestamp_bytes && (!ts = 0 || List.mem key dirty))
    mapped
  && List.for_all
       (fun heap ->
         Memory.mapped_page_count m.mem ~heap
         = List.length (List.filter (fun key -> Heap.equal_kind (heap_of key) heap) mapped))
       Heap.all

let prop_shadow_counts_exact ops =
  let open Privateer_runtime in
  let base = Privateer_ir.Heap.base Privateer_ir.Heap.Private in
  let m = Privateer_machine.Machine.create () in
  List.for_all
    (fun op ->
      (match op with
      | Reset ->
        ignore (Shadow.reset_interval m);
        Privateer_machine.Memory.clear_dirty m.mem
      | Access a -> (
        try
          Shadow.access m
            (if a.write then Shadow.Write else Shadow.Read)
            ~addr:(base + a.off) ~size:a.size ~beta:a.beta
        with Misspec.Misspeculation _ -> ()));
      counts_match m)
    ops

(* ---- random privatizable programs --------------------------------------- *)

(* Generate a loop body from templates that reuse a global scratch
   array (privatization), a per-iteration malloc (short-lived), an
   output array write, and a one-byte store into a packed byte array,
   so that neighbouring iterations, on different workers, write
   different bytes of one word.  Some generated bodies have real
   loop-carried dependences (e.g. reading scratch before writing it);
   for those, selection must reject the loop.  test_contract runs
   these programs over its lattice of run settings. *)
type tmpl = Fill of int | ReadSum | Node of int | OutWrite | PrintIter | Store1 of int

let tmpl_gen =
  QCheck.Gen.(
    frequency
      [ (3, map (fun k -> Fill k) (int_bound 7)); (2, return ReadSum);
        (2, map (fun k -> Node k) (int_bound 9)); (3, return OutWrite);
        (1, return PrintIter); (2, map (fun k -> Store1 k) (int_bound 9)) ])

let body_arb =
  QCheck.make
    ~print:(fun l -> string_of_int (List.length l) ^ " stmts")
    QCheck.Gen.(list_size (int_range 1 6) tmpl_gen)

let program_of_templates tmpls =
  let buf = Buffer.create 256 in
  let packed = List.exists (function Store1 _ -> true | _ -> false) tmpls in
  Buffer.add_string buf "global scratch[8]; global out[40];\n";
  if packed then Buffer.add_string buf "global packed[5];\n";
  Buffer.add_string buf "fn main() {\n";
  Buffer.add_string buf "  for (k = 0; k < 40) {\n    var s = k;\n";
  List.iteri
    (fun i t ->
      match t with
      | Fill n ->
        Buffer.add_string buf
          (Printf.sprintf "    scratch[%d] = k * %d + %d;\n" (n mod 8) (i + 1) i)
      | ReadSum ->
        Buffer.add_string buf
          (Printf.sprintf "    s = s + scratch[%d];\n" (i mod 8))
      | Node n ->
        Buffer.add_string buf
          (Printf.sprintf
             "    var p%d = malloc(2);\n    p%d[0] = k + %d;\n    s = s + p%d[0];\n    free(p%d);\n"
             i i n i i)
      | OutWrite -> Buffer.add_string buf (Printf.sprintf "    out[k] = s + %d;\n" i)
      | PrintIter -> Buffer.add_string buf "    print(\"%d \", s);\n"
      | Store1 n ->
        Buffer.add_string buf
          (Printf.sprintf "    store1(&packed + k, s * %d + %d);\n" (i + 1) n))
    tmpls;
  Buffer.add_string buf "  }\n  var total = 0;\n";
  Buffer.add_string buf
    (if packed then
       "  for (q = 0; q < 40) { total = total + out[q] + load1(&packed + q) * (q + 1); }\n"
     else "  for (q = 0; q < 40) { total = total + out[q]; }\n");
  Buffer.add_string buf "  print(\"= %d\\n\", total);\n  return total;\n}\n";
  Buffer.contents buf

(* ---- parser totality ----------------------------------------------------- *)

let prop_pp_total tmpls =
  (* Pretty-printing and validation never raise on generated
     programs, before or after transformation. *)
  let src = program_of_templates tmpls in
  let program = Privateer.Pipeline.parse src in
  let tr, _ = Privateer.Pipeline.compile program in
  String.length (Privateer_ir.Pp.program_str program) > 0
  && String.length (Privateer_ir.Pp.program_str tr.program) > 0
  && Privateer_ir.Validate.check tr.program = []

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ QCheck.Test.make ~count ~name:"interval map matches naive model" im_ops_arb
        prop_interval_map_model;
      QCheck.Test.make ~count ~name:"allocator: live ranges disjoint + tagged"
        alloc_script_arb prop_allocator_no_overlap;
      QCheck.Test.make ~count ~name:"COW snapshots isolated" mem_ops_arb
        prop_cow_page_cache;
      QCheck.Test.make ~count ~name:"COW allocators = deep copies" alloc_ops_arb
        prop_cow_allocators;
      QCheck.Test.make ~count:500 ~name:"shadow machine = history oracle" history_arb
        prop_shadow_vs_oracle;
      QCheck.Test.make ~count:300 ~name:"range-granular access = per-byte reference"
        sh_ops_arb prop_range_access_matches_reference;
      QCheck.Test.make ~count:300 ~name:"shadow page mark counts = recount"
        sh_ops_arb prop_shadow_counts_exact;
      QCheck.Test.make ~count:40 ~name:"pp/validate total on generated programs"
        body_arb prop_pp_total ]
