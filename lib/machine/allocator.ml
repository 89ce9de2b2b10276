(* Per-heap allocator: bump pointer plus size-class free lists.

   Each logical heap subdivides its fixed 16 TB address range; all
   objects inherit the heap's address tag (paper section 5.1).  Freed
   ranges are recycled exactly (same size class first), which is what
   makes the pointer-to-object profiler's interval-map eviction
   interesting: a recycled address names a different object.

   Workers share their parent's allocators until they first change
   them ([Machine] copies a heap's allocator before its first alloc or
   free there), so same-address allocations in different workers never
   interfere. *)

open Privateer_ir

type t = {
  heap : Heap.kind;
  mutable bump : int; (* next fresh offset within the heap range *)
  free_lists : (int, int list ref) Hashtbl.t; (* size -> addresses *)
  live : (int, int) Hashtbl.t; (* address -> size *)
  mutable live_count : int;
}

let alignment = 16

let create heap =
  { heap; bump = Heap.base heap + alignment; free_lists = Hashtbl.create 16;
    live = Hashtbl.create 64; live_count = 0 }

(* Sized to the content, not to the source's bucket arrays: a copy of a
   heap holding a handful of objects costs a handful of inserts. *)
let copy t =
  let free_lists = Hashtbl.create (Hashtbl.length t.free_lists) in
  Hashtbl.iter (fun k v -> Hashtbl.add free_lists k (ref !v)) t.free_lists;
  let live = Hashtbl.create (Hashtbl.length t.live) in
  Hashtbl.iter (Hashtbl.add live) t.live;
  { heap = t.heap; bump = t.bump; free_lists; live; live_count = t.live_count }

let round_up n = (n + alignment - 1) / alignment * alignment

let alloc t size =
  if size < 0 then invalid_arg "Allocator.alloc: negative size";
  let size = max alignment (round_up size) in
  let addr =
    match Hashtbl.find_opt t.free_lists size with
    | Some ({ contents = addr :: rest } as cell) ->
      cell := rest;
      addr
    | Some _ | None ->
      let addr = t.bump in
      t.bump <- t.bump + size;
      if t.bump - Heap.base t.heap > Heap.capacity then
        failwith ("Allocator: heap exhausted: " ^ Heap.name t.heap);
      addr
  in
  Hashtbl.replace t.live addr size;
  t.live_count <- t.live_count + 1;
  addr

(* Returns the freed object's size; raises if [addr] is not live
   (double free / foreign pointer — a program error worth surfacing). *)
let free t addr =
  match Hashtbl.find_opt t.live addr with
  | None -> failwith (Printf.sprintf "Allocator.free: %#x not live in %s heap" addr (Heap.name t.heap))
  | Some size ->
    Hashtbl.remove t.live addr;
    t.live_count <- t.live_count - 1;
    (match Hashtbl.find_opt t.free_lists size with
    | Some cell -> cell := addr :: !cell
    | None -> Hashtbl.replace t.free_lists size (ref [ addr ]));
    size

let live_count t = t.live_count
let is_live t addr = Hashtbl.mem t.live addr

let bump t = t.bump
let raise_bump t b = if b > t.bump then t.bump <- b
