(* The retained per-byte reference implementation of the shadow-heap
   metadata operations — the pre-page-index code, kept verbatim.

   It exists for the qcheck property in [test/test_props.ml], which
   asserts that the range-granular [Shadow.access] is byte-for-byte
   equivalent (final metadata, verdicts, partial updates before a
   failure) under randomized op/addr/size/beta sequences.

   It resolves a page per byte through the generic Memory accessors
   and does NOT maintain the per-page timestamp counts or the live-in
   flag, so a machine driven through this module must not be handed
   to the count-driven fast paths ([Shadow.reset_interval],
   checkpoint extraction). *)

open Privateer_ir
open Privateer_machine
open Privateer_runtime

let access machine op ~addr ~size ~beta =
  for b = addr to addr + size - 1 do
    let shadow_addr = Heap.shadow_of_private b in
    let current = Machine.read_byte machine shadow_addr in
    match Shadow.transition op ~current ~beta with
    | Shadow.Keep -> ()
    | Shadow.Update m -> Machine.write_byte machine shadow_addr m
    | Shadow.Fail mk -> raise (Misspec.Misspeculation (mk ~addr:b))
  done

(* Per byte, in place: no timestamp counts, no full-page fill. *)
let reset_interval machine =
  let mem = machine.Machine.mem in
  let pages =
    List.filter
      (fun key ->
        Heap.equal_kind (Heap.heap_of_addr (Memory.base_of_page key)) Heap.Shadow)
      (Memory.mapped_pages mem)
  in
  List.iter
    (fun key ->
      let base = Memory.base_of_page key in
      for off = 0 to Memory.page_size - 1 do
        let m = Memory.read_byte mem (base + off) in
        if Shadow.is_timestamp m then Memory.write_byte mem (base + off) Shadow.old_write
      done)
    pages;
  List.length pages
