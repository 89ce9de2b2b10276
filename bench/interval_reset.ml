(* The `interval_reset` experiment: host time of the shadow interval
   reset, and the pooled swap-and-zero retirement of fully-timestamped
   pages.

   Two measurements:

   - rewrite vs swap on a fixed footprint (24 fully-timestamped + 8
     half-timestamped private shadow pages): with the page pool
     disabled every page is scan-rewritten in place; with an unbounded
     pool full pages are retired by pointer swap and the retired
     buffers are refilled by memset and recycled next interval.  The
     pool's win is algorithmic (memset refill beats the word-wise
     read-check-write scan).  Steady-state pool stats
     (swaps/recycled/high water) are reported alongside;
   - simulated-cycle identity: dijkstra at pool cap unbounded must
     report byte-identical output and the same wall/parallel cycles
     and checkpoint count as the cap-0 baseline — the pool is not
     allowed to move the cycle model.

   Results go to BENCH_interval_reset.json; iteration counts scale
   down via INTERVAL_RESET_ITERS (CI smoke runs use a small value). *)

open Privateer_ir
open Privateer_machine
open Privateer_runtime
open Privateer_support

let iters () =
  match Sys.getenv_opt "INTERVAL_RESET_ITERS" with
  | Some s -> (try max 1 (int_of_string s) with Failure _ -> 40)
  | None -> 40

let time_ns = Overhead.time_ns

(* ---- the interval footprint --------------------------------------------- *)

let full_pages = 24
let partial_pages = 8

(* A machine whose private shadow bank holds [full_pages] pages of
   wall-to-wall timestamps (swap candidates) and [partial_pages] pages
   stamped only on their first half (scan-rewritten regardless of the
   pool).  beta = 5 puts every mark at or above [first_timestamp]. *)
let footprint () =
  let m = Machine.create () in
  Memory.clear_dirty m.Machine.mem;
  for p = 0 to full_pages - 1 do
    let base = Heap.base Heap.Private + (p * Memory.page_size) in
    for i = 0 to (Memory.page_size / 8) - 1 do
      Shadow.access m Shadow.Write ~addr:(base + (i * 8)) ~size:8 ~beta:5
    done
  done;
  for p = full_pages to full_pages + partial_pages - 1 do
    let base = Heap.base Heap.Private + (p * Memory.page_size) in
    for i = 0 to (Memory.page_size / 16) - 1 do
      Shadow.access m Shadow.Write ~addr:(base + (i * 8)) ~size:8 ~beta:5
    done
  done;
  m

let fresh_pool () = Page_pool.create ~fill:(Char.chr Shadow.old_write) ()

(* ns per full reset of the footprint.  The footprint is consumed by
   each reset, so `prep` rebuilds it outside the timed section; the
   page pool (when present) persists across rounds, so after the
   warmup mints its buffers every timed round runs at steady state,
   swapping in recycled pages. *)
let bench_reset ?page_pool () =
  let machine = ref (Machine.create ()) in
  let prep () = machine := footprint () in
  time_ns ~prep ~rounds:(iters ()) ~reps:1 (fun () ->
      ignore (Shadow.reset_interval ?page_pool !machine))

(* ---- simulated-cycle identity ------------------------------------------- *)

let identity_check () =
  let c = Harness.compiled Privateer_workloads.Dijkstra.workload in
  let open Privateer.Pipeline in
  let base = Harness.run_parallel ~pool_cap:0 c in
  let par = Harness.run_parallel ~pool_cap:Page_pool.unbounded c in
  let identical =
    base.par_cycles = par.par_cycles
    && base.stats.wall_cycles = par.stats.wall_cycles
    && base.stats.checkpoints = par.stats.checkpoints
    && String.equal base.par_output par.par_output
  in
  (base, par, identical)

(* ---- driver ------------------------------------------------------------- *)

let run () =
  Printf.printf "\n================ interval_reset: shadow reset and page pool ================\n\n";
  Printf.printf "footprint: %d fully-timestamped + %d half-timestamped private pages\n\n"
    full_pages partial_pages;
  let pool = fresh_pool () in
  let rewrite_ns = bench_reset () in
  let pooled_ns = bench_reset ~page_pool:pool () in
  Printf.printf "rewrite %.1f us, pooled %.1f us: pool win %.2fx\n" (rewrite_ns /. 1e3)
    (pooled_ns /. 1e3) (rewrite_ns /. pooled_ns);
  let ps = Page_pool.stats pool in
  Printf.printf
    "\npool steady state: %d swaps (%d recycled), high water %d buffers, %d evictions\n"
    ps.Page_pool.swaps ps.Page_pool.recycled ps.Page_pool.high_water
    ps.Page_pool.evictions;
  let base, par, identical = identity_check () in
  let open Privateer.Pipeline in
  Printf.printf
    "\nsimulated identity (dijkstra, 24 workers): cap 0 -> %d wall cycles, cap unbounded -> %d; %s\n"
    base.stats.wall_cycles par.stats.wall_cycles
    (if identical then "identical" else "DIFFERS (BUG)");
  let json =
    let open Json in
    Obj
      [ ("experiment", String "interval_reset");
        ("iters", Int (iters ()));
        ( "footprint",
          Obj
            [ ("full_pages", Int full_pages); ("partial_pages", Int partial_pages);
              ("page_size", Int Memory.page_size) ] );
        ( "reset_ns",
          Obj
            [ ("rewrite_ns", Float rewrite_ns); ("pooled_ns", Float pooled_ns);
              ("pool_win", Float (rewrite_ns /. pooled_ns)) ] );
        ( "pool_stats",
          Obj
            [ ("swaps", Int ps.Page_pool.swaps);
              ("recycled", Int ps.Page_pool.recycled);
              ("high_water", Int ps.Page_pool.high_water);
              ("evictions", Int ps.Page_pool.evictions) ] );
        ( "simulated_identity",
          Obj
            [ ("workload", String "dijkstra");
              ("baseline_wall_cycles", Int base.stats.wall_cycles);
              ("pooled_wall_cycles", Int par.stats.wall_cycles);
              ("identical_to_baseline", Bool identical) ] ) ]
  in
  let oc = open_out "BENCH_interval_reset.json" in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  print_endline "\nwrote BENCH_interval_reset.json";
  Harness.require [ ("simulated_identity.identical_to_baseline", identical) ]
