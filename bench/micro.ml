(* Bechamel microbenchmarks: one Test.make per core runtime mechanism.
   These are the only wall-clock measurements in the repository;
   everything else uses the deterministic cycle model. *)

open Bechamel
open Toolkit
open Privateer_ir
open Privateer_machine
open Privateer_runtime
open Privateer_oracle

let test_heap_check =
  let addr = Heap.base Heap.Private + 0x1234 in
  Test.make ~name:"separation-check (tag test)"
    (Staged.stage (fun () -> ignore (Heap.check addr Heap.Private)))

let test_shadow_transition =
  Test.make ~name:"shadow metadata transition"
    (Staged.stage (fun () -> ignore (Shadow.transition Shadow.Write ~current:0 ~beta:7)))

let test_shadow_access =
  let m = Machine.create () in
  let addr = Heap.base Heap.Private + 64 in
  Test.make ~name:"private-write validation (8B)"
    (Staged.stage (fun () -> Shadow.access m Shadow.Write ~addr ~size:8 ~beta:7))

let test_shadow_access_reference =
  let m = Machine.create () in
  let addr = Heap.base Heap.Private + 64 in
  Test.make ~name:"private-write validation (8B, per-byte ref)"
    (Staged.stage (fun () -> Shadow_reference.access m Shadow.Write ~addr ~size:8 ~beta:7))

let test_shadow_access_run =
  let m = Machine.create () in
  let addr = Heap.base Heap.Private + 128 in
  Test.make ~name:"private-write validation (64B run)"
    (Staged.stage (fun () -> Shadow.access m Shadow.Write ~addr ~size:64 ~beta:7))

let test_alloc_free =
  let a = Allocator.create Heap.Short_lived in
  Test.make ~name:"h_alloc + h_dealloc (16B)"
    (Staged.stage (fun () ->
         let p = Allocator.alloc a 16 in
         ignore (Allocator.free a p)))

let test_cow_fault =
  let parent = Memory.create () in
  Memory.write_byte parent 0 1;
  Test.make ~name:"COW snapshot + first-write fault"
    (Staged.stage (fun () ->
         let child = Memory.snapshot parent in
         Memory.write_byte child 0 2))

let test_interval_lookup =
  let m = Privateer_support.Interval_map.create () in
  for i = 0 to 999 do
    Privateer_support.Interval_map.insert m (i * 64) ((i * 64) + 48) i
  done;
  Test.make ~name:"profiler interval-map lookup"
    (Staged.stage (fun () -> ignore (Privateer_support.Interval_map.find_opt m 31337)))

(* Reset mutates (timestamps -> old-write), so a fair repeated
   measurement must re-populate the page's timestamps each run; both
   the indexed and the per-byte reference variant pay the same
   repopulation (via their own access implementation). *)
let test_metadata_reset =
  let m = Machine.create () in
  Test.make ~name:"checkpoint reset (1 page, incl. repopulate)"
    (Staged.stage (fun () ->
         for i = 0 to 511 do
           Shadow.access m Shadow.Write ~addr:(Heap.base Heap.Private + (i * 8)) ~size:8
             ~beta:5
         done;
         ignore (Shadow.reset_interval m)))

let test_metadata_reset_reference =
  let m = Machine.create () in
  Test.make ~name:"checkpoint reset (1 page, per-byte ref)"
    (Staged.stage (fun () ->
         for i = 0 to 511 do
           Shadow_reference.access m Shadow.Write
             ~addr:(Heap.base Heap.Private + (i * 8))
             ~size:8 ~beta:5
         done;
         ignore (Shadow_reference.reset_interval m)))

let all_tests =
  [ test_heap_check; test_shadow_transition; test_shadow_access;
    test_shadow_access_reference; test_shadow_access_run; test_alloc_free;
    test_cow_fault; test_interval_lookup; test_metadata_reset;
    test_metadata_reset_reference ]

let run () =
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let table =
    Privateer_support.Table.create
      ~aligns:[ Privateer_support.Table.Left; Privateer_support.Table.Right ]
      [ "microbenchmark"; "ns/op" ]
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let results = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          let ns =
            match Analyze.OLS.estimates ols_result with
            | Some (x :: _) -> Printf.sprintf "%.1f" x
            | Some [] | None -> "n/a"
          in
          Privateer_support.Table.add_row table [ name; ns ])
        results)
    all_tests;
  Privateer_support.Table.print table
