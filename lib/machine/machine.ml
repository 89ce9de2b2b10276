(* A simulated process: one page-mapped memory plus one allocator per
   logical heap.  Workers are created by [snapshot], mirroring the
   paper's fork-based worker processes whose page maps start as
   copy-on-write replicas of the parent.

   Allocator state is copy-on-write too, by the rule pages follow.
   [snapshot] gives the child the parent's eight allocators and clears
   ownership on both sides; a machine copies a heap's allocator before
   its first alloc or free in that heap, so a worker pays only for the
   heaps it allocates in.  The ownership rule: allocator state changes
   only through [alloc], [free] and [commit_allocators], and nothing
   mutates a shared allocator.  [allocator] hands out the current one
   for inspection only. *)

open Privateer_ir

type t = {
  mem : Memory.t;
  allocators : Allocator.t array; (* indexed by Heap.tag *)
  mutable owned : int;
      (* bit [Heap.tag h] set: [allocators.(Heap.tag h)] is this
         machine's alone; clear: another machine may share it *)
}

let create () =
  { mem = Memory.create ();
    allocators = Array.of_list (List.map Allocator.create Heap.all);
    owned = 0xff }

let () = assert (List.length Heap.all = 8)

let allocator t heap = t.allocators.(Heap.tag heap)

let snapshot t =
  t.owned <- 0;
  { mem = Memory.snapshot t.mem; allocators = Array.copy t.allocators; owned = 0 }

(* The allocator of heap [tag], ready to change: a shared one is copied
   first.  One branch when the machine already owns it. *)
let owned_allocator t tag =
  if t.owned land (1 lsl tag) = 0 then begin
    t.allocators.(tag) <- Allocator.copy t.allocators.(tag);
    t.owned <- t.owned lor (1 lsl tag)
  end;
  t.allocators.(tag)

let alloc t heap size = Allocator.alloc (owned_allocator t (Heap.tag heap)) size

(* Free via the address's own tag: a pointer always names its heap. *)
let free t addr =
  let heap = Heap.heap_of_addr addr in
  (heap, Allocator.free (owned_allocator t (Heap.tag heap)) addr)

let read_byte t addr = Memory.read_byte t.mem addr
let write_byte t addr v = Memory.write_byte t.mem addr v
let read_word t addr = Memory.read_word t.mem addr
let write_word t addr bits is_float = Memory.write_word t.mem addr bits is_float

(* Bulk fill: one page resolution per page touched, not per word.  It
   backs the reduction-heap identity initialization at worker spawn. *)
let fill_words t addr ~words bits is_float = Memory.fill_words t.mem addr ~words bits is_float

(* After a parallel region commits, the main process must not hand out
   addresses that collide with objects workers allocated and published
   through the committed state: adopt the last-iteration worker's live
   tables and the maximum bump pointer across all workers.  The adopted
   table is a copy this machine owns, since [last] may still share its
   own. *)
let commit_allocators t ~last ~all =
  List.iter
    (fun heap ->
      let tag = Heap.tag heap in
      let merged = Allocator.copy last.allocators.(tag) in
      List.iter (fun (m : t) -> Allocator.raise_bump merged (Allocator.bump m.allocators.(tag))) all;
      t.allocators.(tag) <- merged;
      t.owned <- t.owned lor (1 lsl tag))
    [ Heap.Default; Heap.Private; Heap.Short_lived ]

(* Convenience accessors used by workload setup and tests: 63-bit int
   words and floats at 8-byte granularity. *)
let get_int t addr = Int64.to_int (fst (read_word t addr))
let set_int t addr v = write_word t addr (Int64.of_int v) false
let get_float t addr =
  let bits, is_float = read_word t addr in
  if is_float then Int64.float_of_bits bits else Int64.to_float bits
let set_float t addr v = write_word t addr (Int64.bits_of_float v) true
