(* The front end fails closed: the lexer against its reference oracle,
   and a seeded byte-mutation fuzzer over Cmini sources and the jobs
   manifest.

   The sources are every registered workload, the seed-1 and seed-7919
   scenario corpora and examples/programs.  On each of them and on
   their byte mutants, the lexer must give Lexer_reference's located
   tokens, or its Lex_error text and position.  A mutant that parses
   must pass the IR validator; one that does not makes the parser
   raise only Lex_error or Parse_error, and Pipeline.parse fail only
   with "Cmini lex|parse error at L:C: ...".  Mutants of
   examples/jobs.manifest fail only with "line N: ...". *)

open Privateer
open Privateer_lang
module Rng = Privateer_support.Rng
module Reference = Privateer_oracle.Lexer_reference
module Scenario_gen = Privateer_gen.Scenario_gen
module Workload = Privateer_workloads.Workload
module Workloads = Privateer_workloads.Workloads
module Jobs_manifest = Privateer_server.Jobs_manifest
module RC = Privateer_parallel.Runtime_config

(* dune runtest runs in _build/default/test, next to the copies that
   test/dune declares; dune exec runs at the repository root. *)
let examples =
  if Sys.file_exists "../examples/jobs.manifest" then "../examples" else "examples"

let read path = In_channel.with_open_bin path In_channel.input_all

(* (name, source, mutants to draw from it): the hand-written programs
   get more mutants than the generated ones, which resemble each
   other. *)
let sources () =
  List.map (fun (w : Workload.t) -> (w.name, w.source, 20)) (Workloads.all ())
  @ List.concat_map
      (fun seed ->
        List.map
          (fun (t : Scenario_gen.t) -> (t.sc_name, t.sc_source, 6))
          (Scenario_gen.corpus ~seed ~count:200))
      [ 1; 7919 ]
  @ (Sys.readdir (Filename.concat examples "programs")
    |> Array.to_list |> List.sort compare
    |> List.filter (fun f -> Filename.check_suffix f ".cm")
    |> List.map (fun f -> (f, read (Filename.concat examples ("programs/" ^ f)), 20)))

let lex tokenize src =
  match tokenize src with
  | toks -> Ok toks
  | exception Lexer.Lex_error (msg, line, col) -> Error (msg, line, col)

let same_lexing name src =
  if compare (lex Lexer.tokenize src) (lex Reference.tokenize src) <> 0 then
    Alcotest.failf "%s: the lexer differs from Lexer_reference on %S" name src

(* "Cmini lex error at L:C: ..." or "Cmini parse error at L:C: ...". *)
let positioned msg =
  try
    Scanf.sscanf msg "Cmini %[a-z] error at %u:%u: " (fun kind line col ->
        (kind = "lex" || kind = "parse") && line >= 1 && col >= 1)
  with Scanf.Scan_failure _ | Failure _ | End_of_file -> false

(* "line N: ...", the manifest loader's message. *)
let line_positioned msg =
  try Scanf.sscanf msg "line %u: " (fun n -> n >= 1)
  with Scanf.Scan_failure _ | Failure _ | End_of_file -> false

(* Bytes that open, close or continue a token (quote, comment and
   escape starters, a float's dot and exponent, digits, operators,
   newline); one draw in four is a raw byte instead. *)
let pool = "\"/*\\.e0123456789+-<>=!&|^~%(){}[];,\n"

let mutate rng src =
  let b = Bytes.of_string src in
  for _ = 1 to 1 + Rng.int rng 6 do
    let c =
      if Rng.int rng 4 = 0 then Char.chr (Rng.int rng 256)
      else pool.[Rng.int rng (String.length pool)]
    in
    Bytes.set b (Rng.int rng (Bytes.length b)) c
  done;
  Bytes.to_string b

let fails_closed name src =
  same_lexing name src;
  match Parser.parse_program src with
  | program ->
    if Privateer_ir.Validate.check program <> [] then
      Alcotest.failf "%s: the parser accepts a program the validator rejects: %S" name src
  | exception (Lexer.Lex_error _ | Parser.Parse_error _) -> (
    match Pipeline.parse src with
    | _ -> Alcotest.failf "%s: Pipeline.parse accepts what the parser rejects" name
    | exception Failure msg when positioned msg -> ()
    | exception e ->
      Alcotest.failf "%s: Pipeline.parse raised %s on %S" name (Printexc.to_string e) src)
  | exception e -> Alcotest.failf "%s: the parser raised %s on %S" name (Printexc.to_string e) src

let test_oracle_on_sources () =
  List.iter (fun (name, src, _) -> same_lexing name src) (sources ())

let test_source_mutants () =
  let rng = Rng.create 1 in
  List.iter
    (fun (name, src, count) ->
      for k = 1 to count do
        fails_closed (Printf.sprintf "%s mutant %d" name k) (mutate rng src)
      done)
    (sources ())

let test_manifest_mutants () =
  let text = read (Filename.concat examples "jobs.manifest") in
  let rng = Rng.create 2 in
  for k = 1 to 300 do
    let m = mutate rng text in
    match Jobs_manifest.parse ~dir:examples ~base:RC.default m with
    | _ -> ()
    | exception Failure msg when line_positioned msg -> ()
    | exception e ->
      Alcotest.failf "manifest mutant %d: %s on %S" k (Printexc.to_string e) m
  done

let test_deep_nesting () =
  let depth = 100_000 in
  let repeat s = String.concat "" (List.init depth (fun _ -> s)) in
  List.iter
    (fun body -> ignore (Pipeline.parse ("fn main() { " ^ body ^ " }")))
    [ "return " ^ String.make depth '(' ^ "1" ^ String.make depth ')' ^ ";";
      "return " ^ String.make depth '-' ^ "1;";
      repeat "if (1) { " ^ repeat "} " ^ "return 0;" ]

let suite =
  [ Alcotest.test_case "lexer = Lexer_reference on every source" `Quick
      test_oracle_on_sources;
    Alcotest.test_case "source mutants fail closed" `Quick test_source_mutants;
    Alcotest.test_case "manifest mutants fail with their line" `Quick
      test_manifest_mutants;
    Alcotest.test_case "10^5-deep nesting parses" `Quick test_deep_nesting ]
