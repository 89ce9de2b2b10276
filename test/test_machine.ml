(* Unit tests for the machine layer: heap tags, paged COW memory,
   allocators. *)

open Privateer_ir
open Privateer_machine

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---- heap tags -------------------------------------------------------- *)

let test_heap_tags_roundtrip () =
  List.iter
    (fun h ->
      let base = Heap.base h in
      check "heap_of_addr" true (Heap.equal_kind (Heap.heap_of_addr base) h);
      check "interior address keeps tag" true
        (Heap.equal_kind (Heap.heap_of_addr (base + 123456)) h);
      Alcotest.(check int) "of_tag . tag" (Heap.tag h) (Heap.tag (Heap.of_tag (Heap.tag h))))
    Heap.all

let test_heap_tags_distinct () =
  let tags = List.map Heap.tag Heap.all in
  check_int "eight distinct tags" 8 (List.length (List.sort_uniq compare tags))

let test_private_shadow_one_bit () =
  (* Paper 5.1: the private and shadow tags differ in exactly one bit,
     so the metadata address is one OR away. *)
  let p = Heap.base Heap.Private + 0xabc in
  let s = Heap.shadow_of_private p in
  check "shadow tagged" true (Heap.equal_kind (Heap.heap_of_addr s) Heap.Shadow);
  check_int "roundtrip" p (Heap.private_of_shadow s);
  check_int "one bit apart" 1
    (let x = Heap.tag Heap.Private lxor Heap.tag Heap.Shadow in
     (* popcount of a 3-bit value *)
     (x land 1) + ((x lsr 1) land 1) + ((x lsr 2) land 1))

let test_heap_check_rejects_foreign () =
  let p = Heap.base Heap.Private + 8 in
  check "not read-only" false (Heap.equal_kind (Heap.heap_of_addr p) Heap.Read_only);
  check "not default" false (Heap.equal_kind (Heap.heap_of_addr p) Heap.Default);
  check "is private" true (Heap.equal_kind (Heap.heap_of_addr p) Heap.Private)

(* ---- memory ------------------------------------------------------------ *)

let test_memory_bytes () =
  let m = Memory.create () in
  check_int "unmapped reads zero" 0 (Memory.read_byte m 0x1234);
  Memory.write_byte m 0x1234 0xAB;
  check_int "write/read" 0xAB (Memory.read_byte m 0x1234);
  Memory.write_byte m 0x1234 0x300;
  check_int "byte truncated" 0 (Memory.read_byte m 0x1234)

let test_memory_words_and_float_tags () =
  let m = Memory.create () in
  Memory.write_word m 0x1000 42L false;
  let bits, isf = Memory.read_word m 0x1000 in
  check "int tag" false isf;
  check_int "int bits" 42 (Int64.to_int bits);
  Memory.write_word m 0x1008 (Int64.bits_of_float 2.5) true;
  let bits, isf = Memory.read_word m 0x1008 in
  check "float tag" true isf;
  Alcotest.(check (float 0.0)) "float value" 2.5 (Int64.float_of_bits bits);
  (* A partial byte store invalidates the word's float tag. *)
  Memory.write_byte m 0x1008 7;
  let _, isf = Memory.read_word m 0x1008 in
  check "tag cleared by byte store" false isf

let test_memory_unaligned_word () =
  let m = Memory.create () in
  Memory.write_word m 0x1003 0x1122334455667788L false;
  let bits, isf = Memory.read_word m 0x1003 in
  check "unaligned loses float tag" false isf;
  check "unaligned value" true (bits = 0x1122334455667788L);
  (* Crosses a page boundary. *)
  Memory.write_word m (Memory.page_size - 3) 0x0102030405060708L false;
  let bits, _ = Memory.read_word m (Memory.page_size - 3) in
  check "page-crossing value" true (bits = 0x0102030405060708L)

let test_memory_cow_isolation () =
  let parent = Memory.create () in
  Memory.write_word parent 0x2000 100L false;
  let child = Memory.snapshot parent in
  (* Child sees parent's data. *)
  check_int "child inherits" 100 (Int64.to_int (fst (Memory.read_word child 0x2000)));
  (* Child writes don't leak to parent. *)
  Memory.write_word child 0x2000 200L false;
  check_int "parent unchanged" 100 (Int64.to_int (fst (Memory.read_word parent 0x2000)));
  check_int "child changed" 200 (Int64.to_int (fst (Memory.read_word child 0x2000)));
  (* Parent writes after snapshot don't leak to child. *)
  Memory.write_word parent 0x3000 7L false;
  check_int "child does not see later parent write" 0
    (Int64.to_int (fst (Memory.read_word child 0x3000)))

let test_memory_cow_two_children () =
  let parent = Memory.create () in
  Memory.write_word parent 0x100 1L false;
  let c1 = Memory.snapshot parent in
  let c2 = Memory.snapshot parent in
  Memory.write_word c1 0x100 11L false;
  Memory.write_word c2 0x100 22L false;
  check_int "c1" 11 (Int64.to_int (fst (Memory.read_word c1 0x100)));
  check_int "c2" 22 (Int64.to_int (fst (Memory.read_word c2 0x100)));
  check_int "parent" 1 (Int64.to_int (fst (Memory.read_word parent 0x100)))

(* A page's exact mark counts describe its content, so a copy-on-write
   clone starts with them, and a change on either side stays there. *)
let test_memory_cow_mark_counts () =
  let parent = Memory.create () in
  let p = Memory.touch_page parent 0x2000 in
  Memory.add_timestamp_bytes p 24;
  Memory.add_live_in_bytes p 3;
  let child = Memory.snapshot parent in
  let c = Memory.touch_page child 0x2000 in
  check "the child's first write clones the page" true (c != p);
  check_int "clone keeps the timestamp count" 24 c.Memory.timestamp_bytes;
  check_int "clone keeps the live-in count" 3 c.Memory.live_in_bytes;
  Memory.clear_timestamp_bytes c;
  Memory.add_live_in_bytes c (-1);
  check_int "child timestamp count cleared" 0 c.Memory.timestamp_bytes;
  check_int "child live-in count lowered" 2 c.Memory.live_in_bytes;
  let p = Memory.page_for_read parent 0x2000 in
  check_int "parent timestamp count kept" 24 p.Memory.timestamp_bytes;
  check_int "parent live-in count kept" 3 p.Memory.live_in_bytes

let test_memory_dirty_tracking () =
  let m = Memory.create () in
  Memory.write_byte m 0x0 1;
  Memory.write_byte m 0x1 1; (* same page *)
  Memory.write_byte m (Memory.page_size * 5) 1;
  check_int "two dirty pages" 2 (Memory.dirty_count m);
  Memory.clear_dirty m;
  check_int "cleared" 0 (Memory.dirty_count m);
  ignore (Memory.read_byte m 0x0);
  check_int "reads don't dirty" 0 (Memory.dirty_count m)

let test_memory_equal_range_page_boundary () =
  let a = Memory.create () in
  let b = Memory.create () in
  (* A value straddling the first page boundary, equal in both. *)
  Memory.write_word a (Memory.page_size - 3) 0x0102030405060708L false;
  Memory.write_word b (Memory.page_size - 3) 0x0102030405060708L false;
  check "equal across boundary" true
    (Memory.equal_range a b (Memory.page_size - 8) (Memory.page_size + 8));
  (* Diverge one byte just past the boundary. *)
  Memory.write_byte b (Memory.page_size + 1) 0x7f;
  check "difference past boundary detected" false
    (Memory.equal_range a b (Memory.page_size - 8) (Memory.page_size + 8));
  (* The divergent byte is outside this sub-range. *)
  check "sub-range before the divergence still equal" true
    (Memory.equal_range a b (Memory.page_size - 8) (Memory.page_size + 1));
  (* Unaligned bounds exercise the byte head/tail of the word loop. *)
  check "unaligned bounds" true (Memory.equal_range a b 3 (Memory.page_size - 5))

let test_memory_equal_range_unmapped_vs_zero () =
  let a = Memory.create () in
  let b = Memory.create () in
  (* Map a page in [a] that holds only zeros (write then zero it). *)
  Memory.write_byte a 0x20 1;
  Memory.write_byte a 0x20 0;
  check "mapped-all-zero page equals unmapped" true
    (Memory.equal_range a b 0 Memory.page_size);
  check "footprint: mapped zeros = unmapped" true (Memory.equal_footprint a b);
  Memory.write_byte a 0x20 9;
  check "nonzero byte breaks it" false (Memory.equal_range a b 0 Memory.page_size)

let test_memory_equal_range_large_stack_safe () =
  (* 1 MiB range: the old byte recursion would take ~10^6 nested
     steps; the word-wise loop must handle it comfortably. *)
  let a = Memory.create () in
  let b = Memory.create () in
  let hi = 1 lsl 20 in
  Memory.write_word a (hi - 8) 5L false;
  Memory.write_word b (hi - 8) 5L false;
  check "1 MiB equal" true (Memory.equal_range a b 0 hi);
  Memory.write_byte b (hi - 1) 1;
  check "last byte differs" false (Memory.equal_range a b 0 hi)

let test_memory_fill_words () =
  let a = Memory.create () in
  Memory.fill_words a 0x1000 ~words:(Memory.words_per_page + 4)
    (Int64.bits_of_float 1.5) true;
  (* Fill spans two pages and sets float tags. *)
  check "fill start" true (fst (Memory.read_word a 0x1000) = Int64.bits_of_float 1.5);
  let bits, isf = Memory.read_word a (0x1000 + (8 * (Memory.words_per_page + 3))) in
  check "fill end bits" true (bits = Int64.bits_of_float 1.5);
  check "fill end float tag" true isf;
  (* Word stores of the same image make a second memory equal. *)
  let b = Memory.create () in
  for w = 0 to Memory.words_per_page + 3 do
    Memory.write_word b (0x1000 + (8 * w)) (Int64.bits_of_float 1.5) true
  done;
  check "fill = word stores" true (Memory.equal_footprint a b)

(* The bulk read returns what [read_word] returns, word by word: across
   a page boundary, over an unmapped page (zeros, int tags), after a
   byte store cleared a float tag, and from an unaligned address. *)
let test_memory_read_words () =
  let a = Memory.create () in
  let base = 0x1000 + Memory.page_size - 24 in
  let words = Memory.words_per_page + 8 in
  for w = 0 to 5 do
    Memory.write_word a (base + (8 * w)) (Int64.of_int (w * 1000)) (w mod 2 = 0)
  done;
  Memory.write_byte a (base + 16) 7;
  let agrees start =
    let dst = Bytes.make ((9 * words) + 3) '\255' in
    Memory.read_words a start ~words dst ~bits_pos:1 ~tags_pos:((8 * words) + 2);
    List.for_all
      (fun w ->
        let bits, is_float = Memory.read_word a (start + (8 * w)) in
        Bytes.get_int64_le dst (1 + (8 * w)) = bits
        && Bytes.get dst ((8 * words) + 2 + w) = if is_float then '\001' else '\000')
      (List.init words Fun.id)
    && Bytes.get dst 0 = '\255'
    && Bytes.get dst ((9 * words) + 2) = '\255'
  in
  check "aligned, across three pages" true (agrees base);
  check "the third page is unmapped" false (Memory.is_mapped a (base + (8 * (words - 1))));
  check "unaligned" true (agrees (base + 3))

let test_memory_heap_banks () =
  let m = Memory.create () in
  Memory.write_byte m (Heap.base Heap.Private + 5) 1;
  Memory.write_byte m (Heap.base Heap.Private + Memory.page_size) 2;
  Memory.write_byte m (Heap.base Heap.Shadow + 7) 3;
  check_int "private bank has two pages" 2
    (Memory.mapped_page_count m ~heap:Heap.Private);
  check_int "shadow bank has one page" 1 (Memory.mapped_page_count m ~heap:Heap.Shadow);
  check_int "default bank empty" 0 (Memory.mapped_page_count m ~heap:Heap.Default);
  check_int "fold visits the bank's pages" 2
    (Memory.fold_pages m ~heap:Heap.Private ~init:0 ~f:(fun ~key:_ _ acc -> acc + 1));
  check_int "per-heap dirty index" 1
    (List.length (Memory.dirty_pages ~heap:Heap.Shadow m));
  check_int "global dirty count spans banks" 3 (Memory.dirty_count m);
  Memory.clear_dirty m;
  check_int "per-heap dirty cleared" 0
    (List.length (Memory.dirty_pages ~heap:Heap.Shadow m))

let test_memory_equal_footprint () =
  let a = Memory.create () in
  let b = Memory.create () in
  Memory.write_word a 0x42 99L false;
  check "differ" false (Memory.equal_footprint a b);
  Memory.write_word b 0x42 99L false;
  check "equal after the same store" true (Memory.equal_footprint a b);
  (* A page mapped on one side only compares as zeros. *)
  Memory.write_word b 0x9000 0L false;
  check "mapped zeros = unmapped" true (Memory.equal_footprint a b);
  Memory.write_word b 0x42 1L false;
  check "differ again" false (Memory.equal_footprint a b)

(* ---- allocator --------------------------------------------------------- *)

let test_allocator_basic () =
  let a = Allocator.create Heap.Private in
  let p1 = Allocator.alloc a 24 in
  let p2 = Allocator.alloc a 24 in
  check "tagged" true (Heap.equal_kind (Heap.heap_of_addr p1) Heap.Private);
  check "distinct" true (p1 <> p2);
  check "aligned" true (p1 mod 16 = 0);
  check "no overlap" true (abs (p2 - p1) >= 24);
  check_int "live" 2 (Allocator.live_count a);
  check_int "freed size (rounded)" 32 (Allocator.free a p1);
  check_int "live after free" 1 (Allocator.live_count a)

let test_allocator_recycles () =
  let a = Allocator.create Heap.Short_lived in
  let p1 = Allocator.alloc a 16 in
  ignore (Allocator.free a p1);
  let p2 = Allocator.alloc a 16 in
  check_int "same-size free list recycles the address" p1 p2;
  let p3 = Allocator.alloc a 64 in
  check "different size gets fresh storage" true (p3 <> p1)

let test_allocator_double_free () =
  let a = Allocator.create Heap.Default in
  let p = Allocator.alloc a 8 in
  ignore (Allocator.free a p);
  check "double free rejected" true
    (try
       ignore (Allocator.free a p);
       false
     with Failure _ -> true)

let test_allocator_copy_independent () =
  let a = Allocator.create Heap.Private in
  let p1 = Allocator.alloc a 16 in
  let b = Allocator.copy a in
  let pa = Allocator.alloc a 16 in
  let pb = Allocator.alloc b 16 in
  check_int "copies evolve identically from the same state" pa pb;
  ignore (Allocator.free a p1);
  check "copy still considers p1 live" true (Allocator.is_live b p1)

let test_machine_free_by_tag () =
  let m = Machine.create () in
  let p = Machine.alloc m Heap.Short_lived 40 in
  let heap, size = Machine.free m p in
  check "freed from its tag's heap" true (Heap.equal_kind heap Heap.Short_lived);
  check_int "size" 48 size

let test_machine_accessors () =
  let m = Machine.create () in
  Machine.set_int m 0x500 (-12345);
  check_int "int roundtrip" (-12345) (Machine.get_int m 0x500);
  Machine.set_float m 0x508 3.25;
  Alcotest.(check (float 0.0)) "float roundtrip" 3.25 (Machine.get_float m 0x508)

let test_machine_commit_allocators () =
  let main = Machine.create () in
  let w1 = Machine.snapshot main in
  let w2 = Machine.snapshot main in
  let a1 = Machine.alloc w1 Heap.Private 16 in
  let _a2 = Machine.alloc w2 Heap.Private 16 in
  let _a3 = Machine.alloc w2 Heap.Private 16 in
  Machine.commit_allocators main ~last:w1 ~all:[ w1; w2 ];
  (* Main must not hand out addresses colliding with either worker's
     allocations: its bump is the max across workers. *)
  let fresh = Machine.alloc main Heap.Private 16 in
  check "fresh allocation beyond all workers" true (fresh > a1);
  check "last worker's live table adopted" true
    (Allocator.is_live (Machine.allocator main Heap.Private) a1)

let suite =
  [ Alcotest.test_case "heap tag roundtrips" `Quick test_heap_tags_roundtrip;
    Alcotest.test_case "heap tags distinct" `Quick test_heap_tags_distinct;
    Alcotest.test_case "private/shadow one bit apart" `Quick test_private_shadow_one_bit;
    Alcotest.test_case "separation check rejects foreign tags" `Quick test_heap_check_rejects_foreign;
    Alcotest.test_case "memory bytes" `Quick test_memory_bytes;
    Alcotest.test_case "memory words and float tags" `Quick test_memory_words_and_float_tags;
    Alcotest.test_case "memory unaligned words" `Quick test_memory_unaligned_word;
    Alcotest.test_case "COW parent/child isolation" `Quick test_memory_cow_isolation;
    Alcotest.test_case "COW sibling isolation" `Quick test_memory_cow_two_children;
    Alcotest.test_case "COW clones keep mark counts" `Quick test_memory_cow_mark_counts;
    Alcotest.test_case "dirty page tracking" `Quick test_memory_dirty_tracking;
    Alcotest.test_case "equal_range across a page boundary" `Quick test_memory_equal_range_page_boundary;
    Alcotest.test_case "equal_range: unmapped vs mapped zeros" `Quick test_memory_equal_range_unmapped_vs_zero;
    Alcotest.test_case "equal_range is stack-safe on 1 MiB" `Quick test_memory_equal_range_large_stack_safe;
    Alcotest.test_case "fill_words" `Quick test_memory_fill_words;
    Alcotest.test_case "read_words = read_word per word" `Quick test_memory_read_words;
    Alcotest.test_case "heap-banked page index" `Quick test_memory_heap_banks;
    Alcotest.test_case "footprint equality" `Quick test_memory_equal_footprint;
    Alcotest.test_case "allocator basics" `Quick test_allocator_basic;
    Alcotest.test_case "allocator recycles freed ranges" `Quick test_allocator_recycles;
    Alcotest.test_case "allocator rejects double free" `Quick test_allocator_double_free;
    Alcotest.test_case "allocator copies are independent" `Quick test_allocator_copy_independent;
    Alcotest.test_case "machine frees by address tag" `Quick test_machine_free_by_tag;
    Alcotest.test_case "machine int/float accessors" `Quick test_machine_accessors;
    Alcotest.test_case "machine allocator commit" `Quick test_machine_commit_allocators ]
