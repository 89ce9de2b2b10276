(* Quickstart: privatize and parallelize a small Cmini program.

   The program repeatedly fills and sums a reused global scratch
   buffer — a textbook privatization target: every outer iteration is
   independent except for the false dependences on [scratch].

   Run with: dune exec examples/quickstart.exe *)

open Privateer

let source =
  {|
global n;
global scratch[256];   // reused every iteration: false dependences
global results[512];

fn fill(k) {
  for (i = 0; i < 256) {
    scratch[i] = k * i + (i & 7);
  }
}

fn total() {
  var s = 0;
  for (i = 0; i < 256) {
    s = s + scratch[i];
  }
  return s;
}

fn main() {
  var rounds = n;
  for (k = 0; k < rounds) {
    fill(k);
    results[k] = total();
  }
  var sum = 0;
  for (k2 = 0; k2 < rounds) {
    sum = sum + results[k2];
  }
  print("sum %d\n", sum);
  return 0;
}
|}

let () =
  let program = Pipeline.parse source in
  let setup st = Pipeline.set_global st "n" 400 in
  (* 1. Profile a training run, classify, select, transform. *)
  let tr, _profiler = Pipeline.compile ~setup program in
  List.iter
    (fun (p : Privateer_analysis.Selection.plan) ->
      Printf.printf "Privateer selected loop %d in %s:\n%s\n\n" p.loop p.func
        (Privateer_analysis.Classify.to_string p.assignment))
    tr.selection.plans;
  (* 2. Run the original sequentially and the privatized program on 16
        simulated worker processes. *)
  let seq = Pipeline.run_sequential ~setup program in
  let config = { Privateer_parallel.Runtime_config.default with workers = 16 } in
  let par = Pipeline.run_parallel ~setup ~config tr in
  Printf.printf "sequential: %d cycles -> parallel: %d cycles (%.2fx)\n"
    seq.seq_cycles par.par_cycles
    (float_of_int seq.seq_cycles /. float_of_int par.par_cycles);
  Printf.printf "outputs identical: %b\n" (String.equal seq.seq_output par.par_output);
  print_string par.par_output
