(* Unit tests for Privateer_support: interval map, RNG, stats, tables. *)

open Privateer_support

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_interval_insert_find () =
  let m = Interval_map.create () in
  Interval_map.insert m 100 200 "a";
  Interval_map.insert m 300 400 "b";
  check_int "cardinal" 2 (Interval_map.cardinal m);
  (match Interval_map.find_opt m 150 with
  | Some (lo, hi, v) ->
    check_int "lo" 100 lo;
    check_int "hi" 200 hi;
    Alcotest.(check string) "value" "a" v
  | None -> Alcotest.fail "expected interval containing 150");
  check "left edge inclusive" true (Interval_map.mem m 100);
  check "right edge exclusive" false (Interval_map.mem m 200);
  check "gap" false (Interval_map.mem m 250);
  check "second" true (Interval_map.mem m 399)

let test_interval_overlap_eviction () =
  let m = Interval_map.create () in
  Interval_map.insert m 0 100 "a";
  Interval_map.insert m 100 200 "b";
  (* Overlapping insert evicts both neighbours it intersects. *)
  Interval_map.insert m 50 150 "c";
  check_int "only c remains" 1 (Interval_map.cardinal m);
  (match Interval_map.find_opt m 60 with
  | Some (_, _, v) -> Alcotest.(check string) "c" "c" v
  | None -> Alcotest.fail "expected c");
  check "old left gone" false (Interval_map.mem m 10);
  check "old right gone" false (Interval_map.mem m 180)

let test_interval_overlapping_query () =
  let m = Interval_map.create () in
  Interval_map.insert m 0 10 1;
  Interval_map.insert m 20 30 2;
  Interval_map.insert m 40 50 3;
  let hits = Interval_map.overlapping m 5 45 in
  check_int "three intervals intersect [5,45)" 3 (List.length hits);
  let hits = Interval_map.overlapping m 10 20 in
  check_int "none intersect the gap" 0 (List.length hits);
  let hits = Interval_map.overlapping m 25 26 in
  check_int "interior" 1 (List.length hits)

let test_interval_remove_start () =
  let m = Interval_map.create () in
  Interval_map.insert m 10 20 "x";
  (match Interval_map.remove_start m 10 with
  | Some (20, "x") -> ()
  | _ -> Alcotest.fail "remove_start should return (20, x)");
  check "gone" true (Interval_map.is_empty m);
  check "remove missing" true (Interval_map.remove_start m 10 = None)

let test_rng_determinism () =
  let a = Rng.create 42 in
  let b = Rng.create 42 in
  for _ = 1 to 100 do
    check_int "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done;
  let c = Rng.create 43 in
  let diff = ref false in
  for _ = 1 to 20 do
    if Rng.int a 1000 <> Rng.int c 1000 then diff := true
  done;
  check "different seeds differ" true !diff

let test_rng_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    check "in range" true (v >= 0 && v < 17);
    let f = Rng.float r in
    check "float in [0,1)" true (f >= 0.0 && f < 1.0)
  done;
  Alcotest.check_raises "bound must be positive"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int r 0))

let test_rng_split () =
  let r = Rng.create 1 in
  let s = Rng.split r in
  let a = Rng.int r 1000000 and b = Rng.int s 1000000 in
  check "split decorrelates" true (a <> b)

let test_stats () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "geomean" 2.0 (Stats.geomean [ 1.0; 4.0 ]);
  Alcotest.(check (float 1e-9)) "geomean of equal" 5.0 (Stats.geomean [ 5.0; 5.0; 5.0 ]);
  Alcotest.(check (float 1e-9)) "percent" 25.0 (Stats.percent 1.0 4.0);
  Alcotest.(check (float 1e-9)) "clamp low" 0.0 (Stats.clamp 0.0 1.0 (-5.0));
  Alcotest.(check (float 1e-9)) "clamp high" 1.0 (Stats.clamp 0.0 1.0 5.0);
  check "geomean of empty is nan" true (Float.is_nan (Stats.geomean []))

let test_table_render () =
  let t = Table.create ~aligns:[ Table.Left; Table.Right ] [ "name"; "n" ] in
  Table.add_row t [ "a"; "1" ];
  Table.add_row t [ "bb"; "22" ];
  let s = Table.render t in
  check "header present" true (String.length s > 0);
  let lines = String.split_on_char '\n' s in
  check_int "four lines" 4 (List.length lines);
  (* All lines padded to the same width. *)
  let widths = List.map String.length lines in
  check "uniform width" true (List.for_all (fun w -> w = List.hd widths) widths);
  Alcotest.check_raises "arity enforced"
    (Invalid_argument "Table.add_row: wrong arity") (fun () ->
      Table.add_row t [ "only-one" ]);
  (* A left-aligned last column and an empty last cell leave no
     trailing blank on any line. *)
  let t = Table.create [ "program"; "note" ] in
  Table.add_row t [ "dijkstra"; "a long note" ];
  Table.add_row t [ "alvinn"; "short" ];
  Table.add_row t [ "geomean"; "" ];
  let lines = String.split_on_char '\n' (Table.render t) in
  check "no trailing blank" true
    (List.for_all (fun l -> l = "" || l.[String.length l - 1] <> ' ') lines);
  Alcotest.(check string) "empty last cell ends at its first column" "geomean"
    (List.nth lines 4)

let test_table_fmt () =
  Alcotest.(check string) "fx" "2.50x" (Table.fx 2.5);
  Alcotest.(check string) "fpct" "12.3%" (Table.fpct 12.34);
  Alcotest.(check string) "bytes" "4.0 KB" (Table.fbytes 4096);
  Alcotest.(check string) "gbytes" "2.0 GB" (Table.fbytes (2 * 1024 * 1024 * 1024));
  Alcotest.(check string) "small" "100 B" (Table.fbytes 100)

let suite =
  [ Alcotest.test_case "interval-map insert/find" `Quick test_interval_insert_find;
    Alcotest.test_case "interval-map overlap eviction" `Quick test_interval_overlap_eviction;
    Alcotest.test_case "interval-map overlapping query" `Quick test_interval_overlapping_query;
    Alcotest.test_case "interval-map remove_start" `Quick test_interval_remove_start;
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng split" `Quick test_rng_split;
    Alcotest.test_case "stats" `Quick test_stats;
    Alcotest.test_case "table rendering" `Quick test_table_render;
    Alcotest.test_case "table formatting" `Quick test_table_fmt ]
