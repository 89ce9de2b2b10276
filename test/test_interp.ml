(* Unit tests for the interpreter: semantics, control flow, hooks,
   cycle accounting, forking. *)

open Privateer_ir
open Privateer_interp

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Run a Cmini main() and return its integer result. *)
let run_int ?setup src =
  let program = Privateer_lang.Parser.parse_program_exn src in
  let st = Interp.create program in
  (match setup with Some f -> f st | None -> ());
  (Value.as_int (Interp.run_entry st), st)

let result_of src = fst (run_int src)

let test_arithmetic () =
  check_int "precedence" 14 (result_of "fn main() { return 2 + 3 * 4; }");
  check_int "sub/div" 3 (result_of "fn main() { return (10 - 1) / 3; }");
  check_int "rem" 2 (result_of "fn main() { return 17 % 5; }");
  check_int "shift" 40 (result_of "fn main() { return 5 << 3; }");
  check_int "bits" 6 (result_of "fn main() { return (7 & 14) | (1 ^ 1); }");
  check_int "unary" (-5) (result_of "fn main() { return -(2 + 3); }");
  check_int "bnot" (-1) (result_of "fn main() { return ~0; }");
  check_int "cmp chain" 1 (result_of "fn main() { return (3 < 4) == (10 >= 10); }")

let test_float_arithmetic () =
  check_int "float compare" 1 (result_of "fn main() { return 1.5 *. 2.0 ==. 3.0; }");
  check_int "ftoi" 3 (result_of "fn main() { return ftoi(3.9); }");
  check_int "itof/fdiv" 1 (result_of "fn main() { return itof(7) /. 2.0 ==. 3.5; }");
  check_int "fneg" 1 (result_of "fn main() { return -. 2.5 <. 0.0; }");
  check_int "builtin sqrt" 1 (result_of "fn main() { return sqrt(9.0) ==. 3.0; }");
  check_int "builtin pow" 1 (result_of "fn main() { return pow(2.0, 10.0) ==. 1024.0; }")

let test_division_by_zero () =
  check "div by zero raises" true
    (try
       ignore (result_of "fn main() { return 1 / 0; }");
       false
     with Interp.Runtime_error _ -> true)

(* Every program fault is one exception with its message: type errors
   from [Value] and allocator failures included. *)
let test_faults_are_runtime_errors () =
  let fault src =
    match result_of src with
    | _ -> "no fault"
    | exception Interp.Runtime_error msg -> msg
  in
  let check_msg = Alcotest.(check string) in
  check_msg "float operand" "expected int, got float 1.5"
    (fault "fn main() { var x = 1.5; return x + 2; }");
  check_msg "float address" "expected int, got float 2.5"
    (fault "fn main() { var p = 2.5; return p[0]; }");
  check_msg "float loop bound" "expected int, got float 0.5"
    (fault "fn main() { for (i = 0; i < 0.5) { } return 0; }");
  check_msg "float print %d" "expected int, got float 0.25"
    (fault {|fn main() { print("%d", 0.25); return 0; }|});
  check_msg "double free" "Allocator.free: 0x10 not live in default heap"
    (fault "fn main() { var p = malloc(2); free(p); free(p); return 0; }")

let test_short_circuit () =
  (* The right operand must not be evaluated when the left decides:
     1/0 would raise. *)
  check_int "and shortcircuits" 0 (result_of "fn main() { return 0 && (1 / 0); }");
  check_int "or shortcircuits" 1 (result_of "fn main() { return 1 || (1 / 0); }");
  check_int "and both" 1 (result_of "fn main() { return 2 && 3; }");
  check_int "or falls through" 0 (result_of "fn main() { return 0 || 0; }")

let test_control_flow () =
  check_int "if/else" 10 (result_of "fn main() { if (1 < 2) { return 10; } return 20; }");
  check_int "else taken" 20 (result_of "fn main() { if (2 < 1) { return 10; } else { return 20; } }");
  check_int "while loop" 45
    (result_of "fn main() { var s = 0; var i = 0; while (i < 10) { s = s + i; i = i + 1; } return s; }");
  check_int "for loop" 45
    (result_of "fn main() { var s = 0; for (i = 0; i < 10) { s = s + i; } return s; }");
  check_int "break" 3
    (result_of "fn main() { var s = 0; for (i = 0; i < 10) { if (i == 3) { break; } s = i; } return s + 1; }");
  check_int "continue" 25
    (result_of
       "fn main() { var s = 0; for (i = 0; i < 10) { if (i % 2 == 0) { continue; } s = s + i; } return s; }");
  check_int "nested loops" 100
    (result_of
       "fn main() { var s = 0; for (i = 0; i < 10) { for (j = 0; j < 10) { s = s + 1; } } return s; }")

let test_for_induction_final_value () =
  check_int "var holds limit after loop" 10
    (result_of "fn main() { for (i = 0; i < 10) { } return i; }");
  check_int "empty loop leaves init" 5
    (result_of "fn main() { for (i = 5; i < 3) { } return i; }")

let test_functions () =
  check_int "fib" 55
    (result_of
       "fn fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); } fn main() { return fib(10); }");
  check_int "void returns 0" 0 (result_of "fn f() { } fn main() { return f(); }");
  check_int "multiple args" 6 (result_of "fn add3(a, b, c) { return a + b + c; } fn main() { return add3(1, 2, 3); }");
  check "arity mismatch raises" true
    (try
       ignore (result_of "fn f(a) { return a; } fn main() { return f(1, 2); }");
       false
     with Interp.Runtime_error _ -> true)

let test_memory_ops () =
  check_int "malloc store/load" 99
    (result_of "fn main() { var p = malloc(2); p[1] = 99; return p[1]; }");
  check_int "byte ops" 200
    (result_of "fn main() { var p = malloc(1); store1(p + 3, 200); return load1(p + 3); }");
  check_int "globals scalar" 7
    (result_of "global g; fn main() { g = 7; return g; }");
  check_int "globals array" 30
    (result_of "global a[4]; fn main() { a[0] = 10; a[1] = 20; return a[0] + a[1]; }");
  check_int "address-of" 5
    (result_of "global g; fn set(p) { p[0] = 5; } fn main() { set(&g); return g; }")

let test_salloc_auto_free () =
  let src = "fn f() { var buf[8]; buf[0] = 1; return buf[0]; } fn main() { var s = 0; for (i = 0; i < 100) { s = s + f(); } return s; }" in
  let program = Privateer_lang.Parser.parse_program_exn src in
  let st = Interp.create program in
  let r = Interp.run_entry st in
  check_int "runs" 100 (Value.as_int r);
  (* All stack slots must have been freed at function exits. *)
  check_int "no leaked stack slots" 0
    (Privateer_machine.Allocator.live_count
       (Privateer_machine.Machine.allocator st.machine Heap.Stack))

let test_print_formatting () =
  let program =
    Privateer_lang.Parser.parse_program_exn
      {|fn main() { print("i=%d f=%f x=%x pct=%%\n", 42, 1.5, 255); return 0; }|}
  in
  let st = Interp.create program in
  ignore (Interp.run_entry st);
  Alcotest.(check string) "output" "i=42 f=1.500000 x=ff pct=%\n" (Interp.output st)

let test_print_arity_errors () =
  check "too few args raises" true
    (try
       ignore (result_of {|fn main() { print("%d %d", 1); return 0; }|});
       false
     with Interp.Runtime_error _ -> true);
  check "too many args raises" true
    (try
       ignore (result_of {|fn main() { print("%d", 1, 2); return 0; }|});
       false
     with Interp.Runtime_error _ -> true)

let test_cycles_monotonic () =
  let _, st1 = run_int "fn main() { return 1; }" in
  let _, st2 = run_int "fn main() { var s = 0; for (i = 0; i < 100) { s = s + i; } return s; }" in
  check "work costs cycles" true (st2.cycles > st1.cycles);
  check "trivial program is cheap" true (st1.cycles < 100)

let test_step_budget () =
  let program = Privateer_lang.Parser.parse_program_exn "fn main() { while (1) { } return 0; }" in
  let st = Interp.create ~max_steps:10_000 program in
  check "infinite loop hits budget" true
    (try
       ignore (Interp.run_entry st);
       false
     with Interp.Runtime_error _ -> true)

let test_hooks_fire () =
  let src = "global g[4]; fn main() { for (i = 0; i < 3) { g[i] = i; g[0] = g[i] + 1; } return 0; }" in
  let program = Privateer_lang.Parser.parse_program_exn src in
  let st = Interp.create program in
  let loads = ref 0 and stores = ref 0 and iters = ref 0 and enters = ref 0 in
  st.hooks <-
    { Hooks.default with
      on_load = (fun _ ~addr:_ ~size:_ ~value:_ -> incr loads);
      on_store = (fun _ ~addr:_ ~size:_ ~value:_ -> incr stores);
      on_loop_iter = (fun _ ~iter:_ -> incr iters);
      on_loop_enter = (fun _ -> incr enters) };
  ignore (Interp.run_entry st);
  check_int "loads" 3 !loads;
  check_int "stores" 6 !stores;
  check_int "iterations" 3 !iters;
  check_int "loop entries" 1 !enters

let test_alloc_free_hooks () =
  let src = "fn main() { for (i = 0; i < 5) { var p = malloc(2); p[0] = i; free(p); } return 0; }" in
  let program = Privateer_lang.Parser.parse_program_exn src in
  let st = Interp.create program in
  let allocs = ref 0 and frees = ref 0 and ctx_depth = ref (-1) in
  st.hooks <-
    { Hooks.default with
      on_alloc =
        (fun _ ~ctx _ _ ~addr:_ ~size:_ ->
          incr allocs;
          ctx_depth := List.length ctx);
      on_free = (fun _ ~addr:_ ~size:_ _ -> incr frees) };
  ignore (Interp.run_entry st);
  check_int "allocs" 5 !allocs;
  check_int "frees" 5 !frees;
  (* Context: entry call + the for loop. *)
  check_int "dynamic context depth" 2 !ctx_depth

let test_fork_isolation () =
  let src = "global g; fn main() { g = 1; return 0; }" in
  let program = Privateer_lang.Parser.parse_program_exn src in
  let st = Interp.create program in
  ignore (Interp.run_entry st);
  let child = Interp.fork st in
  let gaddr = Hashtbl.find st.globals "g" in
  Privateer_machine.Machine.set_int child.machine gaddr 2;
  check_int "parent unchanged" 1 (Privateer_machine.Machine.get_int st.machine gaddr);
  check_int "child sees own write" 2
    (Privateer_machine.Machine.get_int child.machine gaddr)

(* A frame runs on the interpreter it is bound to: [run_iteration]
   binds a worker's frame copy to the fork, so the fork pays for the
   iteration, its nested call and stack slot included, and the parent
   pays only for its own frame. *)
let test_frame_binding () =
  let src =
    {|global g[4];
fn f(n) { var buf[2]; buf[1] = n + 1; print("f%d\n", n); return buf[1] * 2; }
fn main() { for (i = 0; i < 2) { g[i] = f(i); } return g[0] + g[1]; }|}
  in
  let program = Privateer_lang.Parser.parse_program_exn src in
  let st = Interp.create program in
  let module M = Privateer_machine.Machine in
  let module A = Privateer_machine.Allocator in
  let gaddr = Hashtbl.find st.globals "g" in
  let stack_bump (st : Interp.t) = A.bump (M.allocator st.machine Heap.Stack) in
  let observe (st : Interp.t) =
    (st.cycles, st.steps, Interp.output st, M.get_int st.machine gaddr,
     M.get_int st.machine (gaddr + 8), stack_bump st)
  in
  let ran = ref false in
  st.parallel_for <-
    Some
      (fun st fr loop ~init ~limit:_ ->
        let child = Interp.fork st in
        let frame = Interp.copy_frame fr in
        let parent_before = observe st and child_before = observe child in
        Interp.run_iteration child frame loop (init + 1);
        let c_cycles, c_steps, c_out, c_g0, c_g1, c_bump = observe child in
        let _, _, _, _, _, c_bump0 = child_before in
        check "fork charged cycles" true (c_cycles > 0);
        check "fork counted steps" true (c_steps > 0);
        Alcotest.(check string) "fork printed" "f1\n" c_out;
        check_int "fork wrote g[1]" 4 c_g1;
        check_int "fork left g[0]" 0 c_g0;
        check "fork allocated its stack slot" true (c_bump > c_bump0);
        check "parent untouched by the fork" true (observe st = parent_before);
        Interp.run_iteration st fr loop init;
        let p_cycles, p_steps, p_out, p_g0, p_g1, _ = observe st in
        let b_cycles, b_steps, _, _, _, _ = parent_before in
        check "parent charged for its frame" true (p_cycles > b_cycles && p_steps > b_steps);
        Alcotest.(check string) "parent printed" "f0\n" p_out;
        check_int "parent wrote g[0]" 2 p_g0;
        check_int "parent left g[1]" 0 p_g1;
        check "fork untouched by the parent" true
          (observe child = (c_cycles, c_steps, c_out, c_g0, c_g1, c_bump));
        ran := true;
        true);
  ignore (Interp.run_entry st);
  check "the loop was handed over" true !ran

(* ---- the event sequence ------------------------------------------------ *)

(* The interpreter's observable surface, pinned event by event: every
   hook event folds its kind, site id, arguments, [st.cycles] and
   [st.steps] into a running 63-bit digest, and the run's final cycles,
   steps, result (or error text) and output close the record.  Any
   change to step counting, cycle-charge order, hook order or
   arguments, dynamic context or error texts moves a record, so the
   records are regenerated only by a change meant to move the
   simulated surface. *)

let mix h x = (h lxor x) * 0x100000001b3

let value_bits = function
  | Value.VInt n -> n
  | Value.VFloat f -> Int64.to_int (Int64.bits_of_float f)

let recording_hooks (st : Interp.t) digest events : Hooks.t =
  let ev kind id args =
    incr events;
    let h = List.fold_left mix (mix (mix !digest kind) id) args in
    digest := mix (mix h st.cycles) st.steps
  in
  { on_load = (fun id ~addr ~size ~value -> ev 1 id [ addr; size; value_bits value ]);
    on_store = (fun id ~addr ~size ~value -> ev 2 id [ addr; size; value_bits value ]);
    on_alloc =
      (fun id ~ctx kind heap ~addr ~size ->
        let k = match kind with Ast.Malloc -> 0 | Ast.Salloc -> 1 in
        ev 3 id ([ k; Heap.tag heap; addr; size; List.length ctx ] @ ctx));
    on_free = (fun id ~addr ~size heap -> ev 4 id [ addr; size; Heap.tag heap ]);
    on_loop_enter = (fun id -> ev 5 id []);
    on_loop_iter = (fun id ~iter -> ev 6 id [ iter ]);
    on_loop_exit = (fun id ~trips -> ev 7 id [ trips ]);
    on_branch = (fun id ~taken -> ev 10 id [ Bool.to_int taken ]) }

let event_record ?(setup = fun _ -> ()) program =
  let st = Interp.create program in
  setup st;
  let digest = ref 0 and events = ref 0 in
  st.hooks <- recording_hooks st digest events;
  let result =
    match Interp.run_entry st with
    | v -> Value.to_string v
    | exception Interp.Runtime_error msg -> "error: " ^ msg
  in
  Printf.sprintf "%x events=%d cycles=%d steps=%d result=%s output=%s" !digest !events
    st.cycles st.steps result
    (Digest.to_hex (Digest.string (Interp.output st)))

let hand_written =
  [ ( "while-break-continue",
      {|fn main() {
  var s = 0; var i = 0;
  while (1) {
    i = i + 1;
    if (i % 3 == 0) { continue; }
    if (i > 20) { break; }
    s = s + i;
  }
  for (j = 0; j < 10) { if (j == 7) { break; } if (j % 2) { continue; } s = s * 3 % 1000; }
  return s + j;
}|} );
    ( "salloc-auto-free",
      {|global g[4];
fn f(n) { var buf[8]; var tmp[2]; buf[n % 8] = n; tmp[0] = buf[n % 8] + 1; g[n % 4] = tmp[0]; return tmp[0]; }
fn main() { var s = 0; for (i = 0; i < 12) { s = s + f(i); } var p = malloc(3); p[2] = s; free(p); return s; }|} );
    ( "print-builtins",
      {|fn main() {
  var x = sqrt(2.0) +. exp(1.0) -. log(3.0) +. pow(1.5, 2.5) +. fabs(-. 0.25);
  var y = floor(sin(1.0) *. 100.0) +. cos(0.5) +. fmin(1.0, 2.0) +. fmax(1.0, 2.0);
  print("x=%f y=%f m=%d M=%d a=%d h=%x %%\n", x, y, min(3, -4), max(3, -4), abs(-9), 48879);
  print("itof=%f ftoi=%d\n", itof(7) /. 2.0, ftoi(-. 3.75));
  return ftoi(x *. 1000.0) + (1 && 0) + (0 || 2) + (~5) + (!0);
}|} );
    ( "return-inside-loop",
      {|fn find(p, n, k) { for (i = 0; i < n) { while (1) { if (p[i] == k) { return i; } break; } } return -1; }
fn main() { var p = malloc(16); for (i = 0; i < 16) { p[i] = i * i; } var a = find(p, 16, 49); var b = find(p, 16, 50); store1(p, 255); return a * 100 + b + load1(p); }|} );
    ("division-by-zero", {|fn main() { var s = 0; for (i = 0; i < 5) { s = s + 10 / (3 - i); } return s; }|});
    ("unbound-local", {|fn main() { var s = 1; if (s) { s = s + q; } return s; }|});
    ("arity", {|fn f(a, b) { return a + b; } fn main() { return f(1, 2) + f(3); }|});
    ("type-error", {|fn main() { var x = 1.5; return x + 2; }|});
    ("type-error-operands", {|fn main() { var a = 1.5; var b = 2.5; return a - b; }|});
    ("type-error-store1", {|fn main() { var p = malloc(1); store1(p, 0.5); return 0; }|});
    ("type-error-bound", {|fn main() { var s = 0; for (i = 0; i < 2.5) { s = s + 1; } return s; }|});
    ("float-store-load", {|global g[2]; fn main() { g[0] = 2.5; g[1] = g[0] *. 2.0; print("%f\n", g[1]); return ftoi(g[1]); }|});
    (* The operand-kind matrix: every operator reading each kind of
       operand (literal, local, call result, 8-byte load, load1,
       comparison) on each side, and the faults of the wrong kind. *)
    ( "int-operand-kinds",
      {|global g[2];
fn three() { return 3; }
fn lt(a, b) { return a < b; }
fn main() {
  var i = 7; var c = i < 9;
  var p = malloc(3);
  p[0] = 5; p[1] = i > 2; store1(p + 16, 9);
  var s = (1 + i) * (i - 1) + three() * (three() + i) - (i - three()) + (c + 1) * (i - c);
  s = s + (p[0] + 1) * (2 - p[0]) + (p[0] * three()) + (three() * p[0]) + (p[1] << p[0]);
  s = s + (load1(p + 16) << 2) + (i >> 1) + (load1(p + 16) + p[0]) + (p[0] - load1(p + 16));
  s = s + ((i < 9) + 1) * (2 + (i > 9)) + ((i == 7) - (i != 7)) + ((i <= 7) * load1(p + 16));
  s = s + ((three() & p[0]) | (load1(p + 16) ^ three())) + ((p[0] >= three()) ^ (three() <= p[0]));
  s = s + (p[0] / 2) + (17 % p[0]) + (three() / (i < 9)) + (i % three()) + (load1(p + 16) / load1(p + 16));
  s = s + (p[0] < load1(p + 16)) + (load1(p + 16) > p[0]) + (three() < 4) + (2 >= three()) + lt(i, 8) * 100;
  s = s + (-i) + (-three()) + (~p[0]) + (~(i < 9)) + (-load1(p + 16)) + ~7 + (i & 6) + (3 | i);
  s = s + (i / -2) + (-7 % 3) + (1 << 62 >> 60) + (-1 >> 60) + (i * -(1 << 61));
  s = s + min(i, p[0]) + max(three(), load1(p + 16)) + abs(-i) + abs(p[0] - 9) + min(i < 9, 0) + max(-3, 2);
  g[0] = s; g[1] = g[0] + i;
  print("%d %d %x\n", s, g[1] - g[0], lt(2, 1));
  return s + (i << three()) + (p[0] << (i < 9)) + malloc(i < 9) - malloc(1);
}|} );
    ( "float-ops-int-operands",
      {|fn two() { return 2; }
fn half() { return 0.5; }
fn main() {
  var i = 3; var f = 0.25; var p = malloc(2); p[0] = 4; p[1] = 1.5; store1(p + 8, 6);
  var x = (i +. 1) *. (two() -. 0.5) +. (p[0] /. 8) -. (load1(p + 8) *. 0.5) +. ((i < 4) +. 1.0);
  var y = 1 +. 2 +. (f *. i) +. (half() -. two()) +. (p[1] /. p[0]) +. (-. i) +. itof(i) +. itof(f);
  var z = sqrt(16) +. pow(two(), 3) +. fmin(i, 2.5) +. fmax(p[0], half()) +. fabs(-3) +. floor(i);
  print("%f %f %f %d %d %d %d\n", x, y, z, i <. 3.5, two() >=. 2, p[0] ==. 4, load1(p + 8) !=. 6.0);
  print("%f %d %d\n", 3, ftoi(i), ftoi(p[1] *. 3));
  return ftoi(x *. 100.0) + ftoi(y) + ftoi(z) + (i <=. 3) + (p[0] >. two()) + (f <. i) + (half() >=. f);
}|} );
    ( "value-equality",
      {|fn nan() { return 0.0 /. 0.0; }
fn two() { return 2; }
fn main() {
  var i = 2; var f = 2.0; var n = 0.0 /. 0.0; var p = malloc(2); p[0] = 2.0; p[1] = 2;
  var s = (i == f) + 2 * (i != f) + 4 * (f == 2.0) + 8 * (n == n) + 16 * (n != n)
        + 32 * (n ==. n) + 64 * (nan() == n) + 128 * (p[1] == i) + 256 * ((i < 3) == 1) + 512 * (f != 2);
  s = s + 1024 * (p[0] == p[1]) + 2048 * (p[0] == f) + 4096 * (two() == 2) + 8192 * (two() != p[1])
        + 16384 * (nan() != nan()) + 32768 * (n == 0.0) + 65536 * ((1 < 2) == (2 > 1)) + 131072 * (2 == 2.0);
  print("%d\n", s);
  return s;
}|} );
    ( "truthiness",
      {|fn half() { return 0.5; }
fn main() {
  var z = 0.0; var nz = -. 0.0; var h = 0.5; var n = 0.0 /. 0.0; var p = malloc(1); p[0] = 0.25;
  var s = (!z) + 2 * (!h) + 4 * (!nz) + 8 * (!n) + 16 * (h && 2) + 32 * (z || 0) + 64 * (0 || h)
        + 128 * (half() && p[0]) + 256 * (!p[0]) + 512 * (!(1 < 2)) + 1024 * (3 && (z || -1));
  s = s + 2048 * (!0) + 4096 * (!7) + 8192 * (z && (1 / 0)) + 16384 * (h || (1 / 0)) + 32768 * (!half());
  if (h) { s = s + 1; } if (z) { s = s + 100000; } if (p[0]) { s = s + 200000; } if (nz) { s = s + 400000; }
  var k = 2.0; while (k) { k = k -. 1.0; s = s + 1000000; }
  var j = 3; while (j) { j = j - 1; s = s + 10000000; }
  if (1 < 2 && 2.5 >. 1) { s = s + 3; }
  return s;
}|} );
    ("fault-left-load", {|fn main() { var p = malloc(2); p[1] = 0.25; return p[1] + 1; }|});
    ("fault-right-call", {|fn fl() { return 1.5; } fn main() { return 2 * fl(); }|});
    ( "fault-both-load-call",
      {|fn fl() { return 1.5; } fn main() { var p = malloc(1); p[0] = 0.75; return p[0] << fl(); }|} );
    ("fault-left-literal-cmp", {|fn main() { var i = 1; return 2.5 < i; }|});
    ("fault-right-local-band", {|fn main() { var f = 0.125; return load1(8) & f; }|});
    ("fault-right-float-op", {|fn main() { var i = 4; return (i < 5) - (i *. 2.0); }|});
    ("fault-neg", {|fn main() { var f = 1.25; return -f; }|});
    ("fault-bnot-load", {|fn main() { var p = malloc(1); p[0] = 3.5; return ~p[0]; }|});
    ("div-zero-float-left", {|fn main() { var f = 4.5; return f / 0; }|});
    ("rem-zero-float-left", {|fn main() { var p = malloc(1); p[0] = 6.5; return p[0] % (1 - 1); }|});
    ("div-float-zero", {|fn main() { var i = 0; return 7 / 0.0; }|});
    ("min-float-left", {|fn main() { var f = 1.5; return min(f, 2); }|});
    ("max-float-right", {|fn fl() { return 2.5; } fn main() { return max(1, fl()); }|});
    ("min-float-both", {|fn main() { return min(0.5, 0.75); }|});
    ("abs-float", {|fn main() { var p = malloc(1); p[0] = -. 4.5; return abs(p[0]); }|});
    ( "store1-float-call",
      {|fn fl() { return 2.75; } fn main() { var p = malloc(2); store1(p + 8, 65); store1(p, fl()); return 0; }|} );
    ("float-address", {|fn main() { var p = malloc(1); p[0] = 1.5; return load1(p[0]); }|});
    ("float-alloc-size", {|fn main() { var n = 2; return malloc(n *. 1.25); }|});
    ("float-for-init", {|fn main() { var s = 0; for (i = 0.5; i < 3) { s = s + 1; } return s; }|});
    ("float-free", {|fn main() { var p = malloc(1); free(itof(p)); return 0; }|});
    ("print-float-d", {|fn main() { print("%f %x", 3, 255); print("%d", 2.5); return 0; }|});
    (* Subscripts, which the parser builds as [base + 8 * index]: every
       kind of base and index (int literal, global address, global
       scalar, int local, call result, nested load, int and bool
       expressions) in 8-byte loads and stores, then the fixed points of
       the access itself and the faults of each wrong-kind operand. *)
    ( "index-operand-kinds",
      {|global g[8]; global s; global h;
fn two() { return 2; }
fn arr() { return g; }
fn main() {
  var p = malloc(8); var i = 3; var k = malloc(4);
  s = p; h = 1;
  k[0] = 2; k[1] = 0; k[two()] = 3; k[h] = 1; k[i] = 0;
  g[i] = 5; g[0] = 9; g[k[1]] = g[i] + 4; g[&g - &g + 6] = 7; g[i < 4] = 1;
  p[k[2]] = 6; p[two()] = 8; p[h + 4] = 10; p[i + 3] = p[k[k[0]]];
  arr()[i + 1] = 11; arr()[two()] = arr()[i]; s[0] = 13; s[k[0]] = s[h];
  65536[i] = 15; 65536[two()] = 16; 65536[k[3]] = 17; 65536[h] = 65536[i]; 65536[&g] = 21;
  malloc(2)[1] = 3; (p + 8)[i] = 19;
  var t = g[i] + g[0] + g[k[1]] + p[k[2]] + p[two()] + p[h] + arr()[i] + arr()[two()];
  t = t * 3 + s[0] + s[k[0]] + 65536[i] + 65536[two()] + 65536[k[3]] + 65536[h];
  t = t * 3 + k[k[k[0]]] + p[i] + 65536[0] + g[i < 4] + (p + 8)[i] + g[&g - &g + 6] + 65536[&g];
  print("%d %d %d\n", p[4], p[5], p[6]);
  return t;
}|} );
    ( "index-float-store-load",
      {|global g[4];
fn main() {
  var p = malloc(4); var i = 1; var f = 0.5;
  p[i] = 2.5; p[i + 1] = f; g[i] = p[i] *. 2.0; p[0] = itof(i) +. p[i]; g[2] = p[i + 1];
  print("%f %f %f %f\n", g[i], p[i + 1], p[0], g[2]);
  return ftoi(g[1] +. p[2]) + p[3] + (g[2] ==. 0.5);
}|} );
    ( "index-negative",
      {|fn main() {
  var p = malloc(8); var q = p + 32; var i = -2;
  q[-1] = 7; q[i] = 9; p[3 - 4 + 1] = 5; 0[-1] = 4; 0[i] = 2.5;
  return p[3] * 100 + p[2] * 10 + p[0] + q[-4] + (q - 8)[i + 1] + 0[-1] + ftoi(0[-2]);
}|} );
    ( "index-unaligned-base",
      {|fn main() {
  var p = malloc(4); var i = 1; var z = 0;
  (p + 3)[i] = 258; (p + 1)[0] = 2.5; 4093[z] = 77;
  print("%d %d %d\n", (p + 3)[i], load1(p + 11), 4093[z]);
  return (p + 3)[i] + (p + 1)[0] + p[1] + 4093[z];
}|} );
    ( "index-unmapped-page",
      {|fn main() { var p = malloc(1); var i = 100000; return p[i] + 1048576[3] + p[i + 1] + p[i] * 0; }|}
    );
    ( "index-float-base-literal",
      {|fn main() { var f = 2.5; var p = malloc(1); return p[0] + f[1]; }|} );
    ( "index-float-base-call-index",
      {|fn pr() { print("index\n"); return 1; } fn main() { var f = 2.5; return f[pr()]; }|} );
    ( "index-float-base-load-index",
      {|fn main() { var p = malloc(2); p[0] = 1; var f = 0.5; return f[p[0]]; }|} );
    ("index-float-base-unbound-index", {|fn main() { var f = 1.5; return f[q]; }|});
    ("index-float-base-and-index", {|fn main() { var f = 1.5; var g = 0.25; return f[g]; }|});
    ("index-float-literal-base", {|fn main() { var i = 1; return 2.5[i]; }|});
    ("index-float-expr-base", {|fn main() { var i = 1; return (1.0 +. 1.0)[i]; }|});
    ( "index-float-base-store",
      {|fn pr() { print("value\n"); return 1; } fn main() { var f = 2.5; var i = 0; f[i] = pr(); return 0; }|}
    );
    ("index-float-index-local-base", {|fn main() { var p = malloc(1); var f = 0.5; return p[f]; }|});
    ( "index-float-index-global-base",
      {|global g[2]; fn main() { var f = 0.5; g[f] = 1; return 0; }|} );
    ( "index-float-index-call-base",
      {|global g[2]; fn arr() { return g; } fn main() { var f = 0.5; return arr()[f]; }|} );
    ( "index-float-index-load-base",
      {|global s; fn main() { s = malloc(2); var f = 0.75; return s[f]; }|} );
    ("index-float-expr-index", {|fn main() { var p = malloc(2); return p[1.0 +. 1.0]; }|});
    ( "index-unbound-base",
      {|fn pr() { print("index\n"); return 1; } fn main() { return q[pr()]; }|} );
    ("index-unbound-index", {|fn main() { var p = malloc(1); p[q] = 1; return 0; }|});
    (* The operand-shape matrix completed: the (left, right) shape
       pairs of comparisons, float operators and subscripts (K a
       constant, S a local slot, T a closure of the context's type, V a
       closure read as a value) that the programs above do not reach,
       one program per family, an assignment from a slot, then each
       fault those shapes can raise: a float in an int context, an
       unbound local (read before the other operand), a zero
       divisor. *)
    ( "int-compare-shapes",
      {|fn two() { return 2; }
fn main() {
  var i = 3; var p = malloc(2); p[0] = 4; p[1] = 1;
  var s = (1 < i) + 2 * (5 >= i + 1) + 4 * (i <= load1(p + 8)) + 8 * (i > two()) + 16 * (i < p[0]);
  s = s + 32 * ((i + 1) > 2) + 64 * ((i < 4) >= 1) + 128 * (i * 2 < i) + 256 * ((i - 1) <= (i < 4));
  s = s + 512 * (min(i, 9) >= max(2, i)) + 1024 * (load1(p + 8) > i);
  return s;
}|} );
    ("int-compare-fault-right-slot", {|fn main() { var f = 0.5; return 1 < f; }|});
    ("int-compare-fault-left-unbound", {|fn main() { var i = 1; return q < i + 1; }|});
    ( "int-compare-fault-slot-and-call",
      {|fn fl() { return 2.5; } fn main() { var f = 0.5; return f >= fl(); }|} );
    ( "int-compare-fault-unbound-before-call",
      {|fn fl() { print("fl\n"); return 2.5; } fn main() { return q > fl(); }|} );
    ("int-compare-fault-typed-slot", {|fn main() { var f = 1.5; return (2 + 1) <= f; }|});
    ( "float-arith-shapes",
      {|fn two() { return 2; }
fn half() { return 0.5; }
fn main() {
  var i = 3; var x = 1.5; var p = malloc(2); p[0] = 4; p[1] = 0.25;
  var y = (1.5 +. x) +. (2 *. x) +. (2.0 -. (x *. 3.0)) +. (1.0 +. (i + 1)) +. (0.5 *. p[1]) +. (3 /. two());
  y = y +. (x /. sqrt(4.0)) +. (x -. p[1]) +. (x *. half()) +. (itof(i) *. x) +. ((i < 4) -. x);
  y = y +. (p[1] +. x) +. (half() -. x) +. (p[1] /. (x *. x)) +. (half() -. (x *. x));
  print("%f\n", y);
  return ftoi(y *. 1000.0);
}|} );
    ("float-arith-fault-right-unbound", {|fn main() { return ftoi(1.0 +. q); }|});
    ("float-arith-fault-left-unbound", {|fn main() { return ftoi(q *. (1.0 +. 1.0)); }|});
    ( "float-arith-fault-unbound-before-call",
      {|fn fl() { print("fl\n"); return 2.5; } fn main() { return ftoi(q -. fl()); }|} );
    ("float-arith-fault-typed-unbound", {|fn main() { return ftoi((1.0 +. 1.0) /. q); }|});
    ( "float-arith-fault-call-unbound",
      {|fn fl() { print("fl\n"); return 2.5; } fn main() { return ftoi(fl() +. q); }|} );
    ( "float-compare-shapes",
      {|fn half() { return 0.5; }
fn main() {
  var i = 3; var x = 1.5; var p = malloc(2); p[0] = 4; p[1] = 0.25;
  var s = (1.0 <. x) + 2 * (2 >=. (x +. 1.0)) + 4 * (0.25 ==. p[1]) + 8 * (x !=. sqrt(x)) + 16 * (x <=. half());
  s = s + 32 * ((x *. 2.0) >. x) + 64 * ((x +. 1.0) <. itof(i)) + 128 * ((x +. 1.0) >=. (i < 4));
  s = s + 256 * ((x -. 1.0) !=. p[1]) + 512 * (p[1] <. (x *. 4.0)) + 1024 * (x >. p[0]) + 2048 * (half() ==. (x -. 1.0));
  return s;
}|} );
    ("float-compare-fault-right-unbound", {|fn main() { return 1.0 <. q; }|});
    ("float-compare-fault-left-unbound", {|fn main() { return q >. (1.0 +. 1.0); }|});
    ( "float-compare-fault-unbound-before-call",
      {|fn fl() { print("fl\n"); return 2.5; } fn main() { return q ==. fl(); }|} );
    ("float-compare-fault-typed-unbound", {|fn main() { return (1.0 +. 1.0) <=. q; }|});
    ( "index-shapes",
      {|global g[8]; global s;
fn two() { return 2; }
fn arr() { return g; }
fn main() {
  var p = malloc(8); var k = malloc(2); var i = 2;
  s = g; k[0] = 1; k[1] = 3;
  (p + 8)[i - 1] = 5; (p + 8)[k[0]] = (p + 8)[i - 1] + 1; arr()[i] = 7; s[i + 1] = 8;
  (p + 16)[two()] = arr()[i + 1] * 10 + (p + 8)[k[1]];
  var t = (p + 8)[k[0]] + (p + 8)[two()] + arr()[i - 1] + s[i * 2 - 1] + p[4] + s[i];
  return t * 100 + (p + 8)[i - 1];
}|} );
    ( "index-fault-typed-base-value-index",
      {|fn fl() { return 0.5; } fn main() { var p = malloc(2); return (p + 8)[fl()]; }|} );
    ( "index-fault-value-base-typed-index",
      {|fn fb() { return 2.5; } fn main() { var i = 1; return fb()[i + 1]; }|} );
    ( "index-fault-store-typed-base-value-index",
      {|fn fl() { return 0.5; } fn main() { var p = malloc(2); (p + 8)[fl()] = 1; return 0; }|} );
    ( "index-fault-store-value-base-slot-index",
      {|fn fb() { return 2.5; } fn main() { var f = 0.25; fb()[f] = 1; return 0; }|} );
    ( "index-fault-store-value-base-unbound-index",
      {|global g[2]; fn arr() { print("arr\n"); return g; } fn main() { arr()[q] = 1; return 0; }|} );
    ("assign-slot", {|fn main() { var x = 4; var y = x; y = y + 1; x = y; var z = 0.5; y = z; return x; }|});
    ("assign-slot-unbound", {|fn main() { var x = 1; var y = q; return x; }|});
    ("zero-divisor-slot", {|fn main() { var i = 7; var z = 0; return i / z; }|});
    ("zero-divisor-load", {|fn main() { var i = 7; var p = malloc(1); p[0] = 0; return i % p[0]; }|});
    ("zero-divisor-literal", {|fn main() { var i = 7; return i % 0; }|}) ]

(* A program built through [Builder] rather than parsed: its malloc
   takes the builder's size expression and its free a fresh id. *)
let built_malloc_free () =
  let b = Builder.create () in
  let body =
    [ Ast.Assign ("p", Builder.malloc b (Ast.Int 16));
      Ast.Free (Builder.fresh b, None, Ast.Local "p");
      Ast.Return (Some (Ast.Int 0)) ]
  in
  Builder.program b ~globals:[] ~funcs:[ Builder.func "main" [] body ] ~entry:"main"

let scenario_specs =
  [ "seed=3,loops=2,trip=48,misspec=0.05"; "seed=9,redux=1.0,reuse=8";
    "seed=17,loops=3,trip=32,heap=16,redux=0.25" ]

let event_programs () =
  let module Workload = Privateer_workloads.Workload in
  let ports =
    List.concat_map
      (fun (wl : Workload.t) ->
        let program = Workload.program wl in
        let setup = Workload.setup wl Workload.Train in
        let tr, _ = Privateer.Pipeline.compile ~setup program in
        [ (wl.name, setup, program);
          (wl.name ^ "/transformed", setup, tr.Privateer_transform.Transform.program) ])
      Privateer_workloads.Workloads.builtin
  in
  let scenarios =
    List.map
      (fun spec ->
        let knobs = Result.get_ok (Privateer_gen.Scenario_gen.knobs_of_spec spec) in
        let wl = (Privateer_gen.Scenario_gen.generate knobs).sc_workload in
        (spec, Workload.setup wl Workload.Train, Workload.program wl))
      scenario_specs
  in
  let hand =
    List.map
      (fun (name, src) -> (name, (fun _ -> ()), Privateer_lang.Parser.parse_program_exn src))
      hand_written
  in
  ports @ scenarios @ hand @ [ ("built-malloc-free", (fun _ -> ()), built_malloc_free ()) ]

let expected_events =
  [ ("052.alvinn",
      "67096d884f43f898 events=117089 cycles=721200 steps=822333 result=0 output=522158b93af5cc624c54507bb5d712de");
    ("052.alvinn/transformed",
      "3752ca6018f2f464 events=117089 cycles=721200 steps=822333 result=0 output=522158b93af5cc624c54507bb5d712de");
    ("dijkstra",
      "5e3a1e22e4c933b0 events=40782 cycles=216334 steps=209070 result=0 output=d8d0d249137a1c752ab28d386c6976cd");
    ("dijkstra/transformed",
      "4cc5e664f6511bf8 events=40782 cycles=216334 steps=209070 result=0 output=d8d0d249137a1c752ab28d386c6976cd");
    ("blackscholes",
      "20502130a21ccd2c events=7548 cycles=125536 steps=121173 result=0 output=9848fe23dd16397d0c9de4b053e86236");
    ("blackscholes/transformed",
      "55392b49c66eebd8 events=7548 cycles=125536 steps=121173 result=0 output=9848fe23dd16397d0c9de4b053e86236");
    ("swaptions",
      "3c6cee7bbc1fbf4d events=13305 cycles=82283 steps=91707 result=0 output=b7653822aafbb23ebb35756c5870b728");
    ("swaptions/transformed",
      "1d073c676359855 events=13305 cycles=82283 steps=91707 result=0 output=b7653822aafbb23ebb35756c5870b728");
    ("enc-md5",
      "5b25f349604accba events=24867 cycles=185664 steps=248979 result=0 output=3c9e5698b127aaf0ea7b76e336d2e8c9");
    ("enc-md5/transformed",
      "47a0481f379f7b36 events=24867 cycles=185664 steps=248979 result=0 output=3c9e5698b127aaf0ea7b76e336d2e8c9");
    ("seed=3,loops=2,trip=48,misspec=0.05",
      "7fdb3095929440fd events=2123 cycles=13214 steps=15910 result=0 output=82e728dccfe6b3adebabef4214ece342");
    ("seed=9,redux=1.0,reuse=8",
      "2ada6877d0892c3e events=1294 cycles=8688 steps=10546 result=0 output=22875d5cf2327b8cd769700e6fa84a4f");
    ("seed=17,loops=3,trip=32,heap=16,redux=0.25",
      "56e25215a3aa738f events=2342 cycles=14316 steps=17142 result=0 output=e0662c7d0877d219e5dc01468085b817");
    ("while-break-continue",
      "4113c0bef806cfc2 events=86 cycles=211 steps=466 result=914 output=d41d8cd98f00b204e9800998ecf8427e");
    ("salloc-auto-free",
      "2164269274ea23d2 events=137 cycles=2166 steps=753 result=78 output=d41d8cd98f00b204e9800998ecf8427e");
    ("print-builtins",
      "0 events=0 cycles=416 steps=76 result=6035 output=92315e0b60538fcb0244a1403b13b1d9");
    ("return-inside-loop",
      "199e7e3fb6944c6e events=183 cycles=453 steps=472 result=954 output=d41d8cd98f00b204e9800998ecf8427e");
    ("division-by-zero",
      "79fcb9c05b885b4f events=5 cycles=25 steps=37 result=error: division by zero output=d41d8cd98f00b204e9800998ecf8427e");
    ("unbound-local",
      "164b6eb13687a1bb events=1 cycles=11 steps=8 result=error: unbound local q output=d41d8cd98f00b204e9800998ecf8427e");
    ("arity",
      "0 events=0 cycles=21 steps=11 result=error: f: expected 2 arguments, got 1 output=d41d8cd98f00b204e9800998ecf8427e");
    ("type-error",
      "0 events=0 cycles=11 steps=6 result=error: expected int, got float 1.5 output=d41d8cd98f00b204e9800998ecf8427e");
    ("type-error-operands",
      "0 events=0 cycles=11 steps=8 result=error: expected int, got float 2.5 output=d41d8cd98f00b204e9800998ecf8427e");
    ("type-error-store1",
      "3b6bf7eec3284305 events=2 cycles=55 steps=8 result=error: expected int, got float 0.5 output=d41d8cd98f00b204e9800998ecf8427e");
    ("type-error-bound",
      "0 events=0 cycles=10 steps=5 result=error: expected int, got float 2.5 output=d41d8cd98f00b204e9800998ecf8427e");
    ("float-store-load",
      "f0768a4ed157a2d events=5 cycles=102 steps=36 result=5 output=133a92c8f9dbf5fe9f494b6807193604");
    ("int-operand-kinds",
      "eadde86b280e01d events=41 cycles=838 steps=513 result=2305843009213694330 output=f2e19dfe1d0c39287653a47d1941ce13");
    ("float-ops-int-operands",
      "7ade592aaa648186 events=13 cycles=490 steps=205 result=1152358554653426242 output=5d12e911fad60471838adf90b4aa2840");
    ("value-equality",
      "36441419cea9290 events=8 cycles=262 steps=186 result=72654 output=81cf068b5041aab6f6f10a7c87895d5f");
    ("truthiness",
      "30e52a65c0d22d91 events=19 cycles=174 steps=215 result=32219673 output=d41d8cd98f00b204e9800998ecf8427e");
    ("fault-left-load",
      "58f37a8d619f8bfd events=3 cycles=64 steps=21 result=error: expected int, got float 0.25 output=d41d8cd98f00b204e9800998ecf8427e");
    ("fault-right-call",
      "0 events=0 cycles=21 steps=6 result=error: expected int, got float 1.5 output=d41d8cd98f00b204e9800998ecf8427e");
    ("fault-both-load-call",
      "64eb1b8a47314ff5 events=3 cycles=74 steps=23 result=error: expected int, got float 1.5 output=d41d8cd98f00b204e9800998ecf8427e");
    ("fault-left-literal-cmp",
      "0 events=0 cycles=11 steps=6 result=error: expected int, got float 2.5 output=d41d8cd98f00b204e9800998ecf8427e");
    ("fault-right-local-band",
      "6e4fd2b3a4aff1b3 events=1 cycles=15 steps=7 result=error: expected int, got float 0.125 output=d41d8cd98f00b204e9800998ecf8427e");
    ("fault-right-float-op",
      "0 events=0 cycles=13 steps=10 result=error: expected int, got float 8 output=d41d8cd98f00b204e9800998ecf8427e");
    ("fault-neg",
      "0 events=0 cycles=11 steps=5 result=error: expected int, got float 1.25 output=d41d8cd98f00b204e9800998ecf8427e");
    ("fault-bnot-load",
      "6f31b8a47314ff5 events=3 cycles=64 steps=20 result=error: expected int, got float 3.5 output=d41d8cd98f00b204e9800998ecf8427e");
    ("div-zero-float-left",
      "0 events=0 cycles=11 steps=6 result=error: expected int, got float 4.5 output=d41d8cd98f00b204e9800998ecf8427e");
    ("rem-zero-float-left",
      "64471b8a47314ff5 events=3 cycles=65 steps=23 result=error: expected int, got float 6.5 output=d41d8cd98f00b204e9800998ecf8427e");
    ("div-float-zero",
      "0 events=0 cycles=11 steps=6 result=error: expected int, got float 0 output=d41d8cd98f00b204e9800998ecf8427e");
    ("min-float-left",
      "0 events=0 cycles=30 steps=6 result=error: expected int, got float 1.5 output=d41d8cd98f00b204e9800998ecf8427e");
    ("max-float-right",
      "0 events=0 cycles=40 steps=6 result=error: expected int, got float 2.5 output=d41d8cd98f00b204e9800998ecf8427e");
    ("min-float-both",
      "0 events=0 cycles=30 steps=4 result=error: expected int, got float 0.75 output=d41d8cd98f00b204e9800998ecf8427e");
    ("abs-float",
      "4630c064819a3fd5 events=3 cycles=84 steps=21 result=error: expected int, got float -4.5 output=d41d8cd98f00b204e9800998ecf8427e");
    ("store1-float-call",
      "339869b02eec99c9 events=3 cycles=70 steps=15 result=error: expected int, got float 2.75 output=d41d8cd98f00b204e9800998ecf8427e");
    ("float-address",
      "55ab1b8a47314ff5 events=3 cycles=63 steps=20 result=error: expected int, got float 1.5 output=d41d8cd98f00b204e9800998ecf8427e");
    ("float-alloc-size",
      "0 events=0 cycles=12 steps=9 result=error: expected int, got float 2.5 output=d41d8cd98f00b204e9800998ecf8427e");
    ("float-for-init",
      "0 events=0 cycles=10 steps=4 result=error: expected int, got float 0.5 output=d41d8cd98f00b204e9800998ecf8427e");
    ("float-free",
      "3a3be6904000e951 events=1 cycles=52 steps=8 result=error: expected int, got float 16 output=d41d8cd98f00b204e9800998ecf8427e");
    ("print-float-d",
      "0 events=0 cycles=130 steps=5 result=error: expected int, got float 2.5 output=2500986a856613d9388276dd976f9f86");
    ("built-malloc-free",
      "1d7645720a644755 events=2 cycles=70 steps=7 result=0 output=d41d8cd98f00b204e9800998ecf8427e");
    ("index-operand-kinds",
      "78e2c998737d8993 events=82 cycles=795 steps=516 result=578 output=eabfaac9e2e4110246a89b571a9f2810");
    ("index-float-store-load",
      "787eda9faabfccb1 events=17 cycles=218 steps=126 result=6 output=f4e3b3a3fdae2b09d0c677ef1315301c");
    ("index-negative",
      "137d50efdb1c4074 events=13 cycles=143 steps=114 result=815 output=d41d8cd98f00b204e9800998ecf8427e");
    ("index-unaligned-base",
      "7c4149d99291d819 events=11 cycles=178 steps=85 result=-4610560114192023153 output=54526e68efd7be5507fefbf0777b065c");
    ("index-unmapped-page",
      "71fe4a70cf4f005f events=5 cycles=80 steps=39 result=0 output=d41d8cd98f00b204e9800998ecf8427e");
    ("index-float-base-literal",
      "1bbf1f37a4a05798 events=2 cycles=59 steps=21 result=error: expected int, got float 2.5 output=d41d8cd98f00b204e9800998ecf8427e");
    ("index-float-base-call-index",
      "0 events=0 cycles=82 steps=12 result=error: expected int, got float 2.5 output=caf7e7bf96a799f0547469cb698bfb68");
    ("index-float-base-load-index",
      "33c9e2182be1a349 events=3 cycles=65 steps=26 result=error: expected int, got float 0.5 output=d41d8cd98f00b204e9800998ecf8427e");
    ("index-float-base-unbound-index",
      "0 events=0 cycles=10 steps=9 result=error: unbound local q output=d41d8cd98f00b204e9800998ecf8427e");
    ("index-float-base-and-index",
      "0 events=0 cycles=11 steps=11 result=error: expected int, got float 0.25 output=d41d8cd98f00b204e9800998ecf8427e");
    ("index-float-literal-base",
      "0 events=0 cycles=12 steps=9 result=error: expected int, got float 2.5 output=d41d8cd98f00b204e9800998ecf8427e");
    ("index-float-expr-base",
      "0 events=0 cycles=13 steps=11 result=error: expected int, got float 2 output=d41d8cd98f00b204e9800998ecf8427e");
    ("index-float-base-store",
      "0 events=0 cycles=12 steps=10 result=error: expected int, got float 2.5 output=d41d8cd98f00b204e9800998ecf8427e");
    ("index-float-index-local-base",
      "3a3be6904000e951 events=1 cycles=52 steps=14 result=error: expected int, got float 0.5 output=d41d8cd98f00b204e9800998ecf8427e");
    ("index-float-index-global-base",
      "0 events=0 cycles=11 steps=8 result=error: expected int, got float 0.5 output=d41d8cd98f00b204e9800998ecf8427e");
    ("index-float-index-call-base",
      "0 events=0 cycles=21 steps=11 result=error: expected int, got float 0.5 output=d41d8cd98f00b204e9800998ecf8427e");
    ("index-float-index-load-base",
      "52a6eb196f8fa84e events=3 cycles=60 steps=16 result=error: expected int, got float 0.75 output=d41d8cd98f00b204e9800998ecf8427e");
    ("index-float-expr-index",
      "6a34728bff167d79 events=1 cycles=53 steps=14 result=error: expected int, got float 2 output=d41d8cd98f00b204e9800998ecf8427e");
    ("index-unbound-base",
      "0 events=0 cycles=10 steps=4 result=error: unbound local q output=d41d8cd98f00b204e9800998ecf8427e");
    ("index-unbound-index",
      "3a3be6904000e951 events=1 cycles=51 steps=11 result=error: unbound local q output=d41d8cd98f00b204e9800998ecf8427e");
    ("int-compare-shapes",
      "5afe2cdbc13b534e events=6 cycles=166 steps=120 result=635 output=d41d8cd98f00b204e9800998ecf8427e");
    ("int-compare-fault-right-slot",
      "0 events=0 cycles=11 steps=6 result=error: expected int, got float 0.5 output=d41d8cd98f00b204e9800998ecf8427e");
    ("int-compare-fault-left-unbound",
      "0 events=0 cycles=10 steps=5 result=error: unbound local q output=d41d8cd98f00b204e9800998ecf8427e");
    ("int-compare-fault-slot-and-call",
      "0 events=0 cycles=21 steps=8 result=error: expected int, got float 2.5 output=d41d8cd98f00b204e9800998ecf8427e");
    ("int-compare-fault-unbound-before-call",
      "0 events=0 cycles=10 steps=3 result=error: unbound local q output=d41d8cd98f00b204e9800998ecf8427e");
    ("int-compare-fault-typed-slot",
      "0 events=0 cycles=12 steps=8 result=error: expected int, got float 1.5 output=d41d8cd98f00b204e9800998ecf8427e");
    ("float-arith-shapes",
      "77b96bfec1792bd4 events=7 cycles=244 steps=134 result=15986 output=0cde7a5e21b0bc50f233c0b17242f132");
    ("float-arith-fault-right-unbound",
      "0 events=0 cycles=10 steps=5 result=error: unbound local q output=d41d8cd98f00b204e9800998ecf8427e");
    ("float-arith-fault-left-unbound",
      "0 events=0 cycles=10 steps=4 result=error: unbound local q output=d41d8cd98f00b204e9800998ecf8427e");
    ("float-arith-fault-unbound-before-call",
      "0 events=0 cycles=10 steps=4 result=error: unbound local q output=d41d8cd98f00b204e9800998ecf8427e");
    ("float-arith-fault-typed-unbound",
      "0 events=0 cycles=11 steps=7 result=error: unbound local q output=d41d8cd98f00b204e9800998ecf8427e");
    ("float-arith-fault-call-unbound",
      "0 events=0 cycles=80 steps=8 result=error: unbound local q output=51ac5d3f32be0c213f26b14228c4ef9d");
    ("float-compare-shapes",
      "2933b79a0051b9a5 events=7 cycles=170 steps=141 result=3053 output=d41d8cd98f00b204e9800998ecf8427e");
    ("float-compare-fault-right-unbound",
      "0 events=0 cycles=10 steps=4 result=error: unbound local q output=d41d8cd98f00b204e9800998ecf8427e");
    ("float-compare-fault-left-unbound",
      "0 events=0 cycles=10 steps=3 result=error: unbound local q output=d41d8cd98f00b204e9800998ecf8427e");
    ("float-compare-fault-unbound-before-call",
      "0 events=0 cycles=10 steps=3 result=error: unbound local q output=d41d8cd98f00b204e9800998ecf8427e");
    ("float-compare-fault-typed-unbound",
      "0 events=0 cycles=11 steps=6 result=error: unbound local q output=d41d8cd98f00b204e9800998ecf8427e");
    ("index-shapes",
      "56a07ea72591424e events=26 cycles=304 steps=198 result=10106 output=d41d8cd98f00b204e9800998ecf8427e");
    ("index-fault-typed-base-value-index",
      "6a34728bff167d79 events=1 cycles=63 steps=16 result=error: expected int, got float 0.5 output=d41d8cd98f00b204e9800998ecf8427e");
    ("index-fault-value-base-typed-index",
      "0 events=0 cycles=23 steps=13 result=error: expected int, got float 2.5 output=d41d8cd98f00b204e9800998ecf8427e");
    ("index-fault-store-typed-base-value-index",
      "6a34728bff167d79 events=1 cycles=63 steps=15 result=error: expected int, got float 0.5 output=d41d8cd98f00b204e9800998ecf8427e");
    ("index-fault-store-value-base-slot-index",
      "0 events=0 cycles=21 steps=10 result=error: expected int, got float 0.25 output=d41d8cd98f00b204e9800998ecf8427e");
    ("index-fault-store-value-base-unbound-index",
      "0 events=0 cycles=80 steps=9 result=error: unbound local q output=e1483d9e89a29e273329a70562992fd6");
    ("assign-slot",
      "0 events=0 cycles=11 steps=16 result=5 output=d41d8cd98f00b204e9800998ecf8427e");
    ("assign-slot-unbound",
      "0 events=0 cycles=10 steps=4 result=error: unbound local q output=d41d8cd98f00b204e9800998ecf8427e");
    ("zero-divisor-slot",
      "0 events=0 cycles=11 steps=8 result=error: division by zero output=d41d8cd98f00b204e9800998ecf8427e");
    ("zero-divisor-load",
      "34abd28f822d5ca4 events=3 cycles=64 steps=23 result=error: modulo by zero output=d41d8cd98f00b204e9800998ecf8427e");
    ("zero-divisor-literal",
      "0 events=0 cycles=11 steps=6 result=error: modulo by zero output=d41d8cd98f00b204e9800998ecf8427e") ]

let test_event_sequence () =
  List.iter
    (fun (name, setup, program) ->
      let got = event_record ~setup program in
      match List.assoc_opt name expected_events with
      | Some want -> Alcotest.(check string) name want got
      | None -> Alcotest.failf "no pinned record for %s: %s" name got)
    (event_programs ())

(* A step budget of [k] must stop a run at the same node, with the same
   cycles charged, for every [k] up to the run's full step count: the
   record digests each budgeted run's result or error text, steps and
   cycles.  The programs are a short one nesting subscripts, so a
   subscript's steps and charges keep their places, and the record
   programs that read every operand shape of every specialised node:
   each node re-implements its steps and charges, so a budget must stop
   each one at the same place. *)
let budget_program =
  {|fn two() { return 2; }
fn main() { var p = malloc(4); var i = 1; p[i + 1] = p[i] + 3; p[two()] = p[p[2] - 2] *. 0.5; return ftoi(p[2]); }|}

let budget_record src =
  let program = Privateer_lang.Parser.parse_program_exn src in
  let full = Interp.create program in
  ignore (Interp.run_entry full);
  let digest = ref 0 in
  for k = 0 to full.steps do
    let st = Interp.create ~max_steps:k program in
    let result =
      match Interp.run_entry st with
      | v -> Value.to_string v
      | exception Interp.Runtime_error msg -> "error: " ^ msg
    in
    digest := mix (mix (mix !digest (Hashtbl.hash result)) st.steps) st.cycles
  done;
  Printf.sprintf "%x runs=%d" !digest (full.steps + 1)

let expected_budgets =
  [ ("subscripts", "3372e648b984cfa5 runs=55");
    ("int-operand-kinds", "38f588de234c6f0 runs=514");
    ("float-ops-int-operands", "f156c150f49fbf1 runs=206");
    ("truthiness", "66106b05a6a0bba7 runs=216");
    ("index-operand-kinds", "799bbed947db866d runs=517");
    ("int-compare-shapes", "12885a372c5f2104 runs=121");
    ("float-arith-shapes", "5f7d8619f97890b6 runs=135");
    ("float-compare-shapes", "e2d3df77bb5965d runs=142");
    ("index-shapes", "3cdbfa64cf1fa5c9 runs=199");
    ("assign-slot", "61c510716ac63085 runs=17") ]

let test_budget_record () =
  let sources = ("subscripts", budget_program) :: hand_written in
  List.iter
    (fun (name, want) -> Alcotest.(check string) name want (budget_record (List.assoc name sources)))
    expected_budgets

let suite =
  [ Alcotest.test_case "integer arithmetic" `Quick test_arithmetic;
    Alcotest.test_case "float arithmetic" `Quick test_float_arithmetic;
    Alcotest.test_case "division by zero" `Quick test_division_by_zero;
    Alcotest.test_case "program faults are runtime errors" `Quick
      test_faults_are_runtime_errors;
    Alcotest.test_case "short-circuit && ||" `Quick test_short_circuit;
    Alcotest.test_case "control flow" `Quick test_control_flow;
    Alcotest.test_case "for induction final value" `Quick test_for_induction_final_value;
    Alcotest.test_case "functions and recursion" `Quick test_functions;
    Alcotest.test_case "memory operations" `Quick test_memory_ops;
    Alcotest.test_case "stack slots auto-free" `Quick test_salloc_auto_free;
    Alcotest.test_case "print formatting" `Quick test_print_formatting;
    Alcotest.test_case "print arity errors" `Quick test_print_arity_errors;
    Alcotest.test_case "cycle accounting" `Quick test_cycles_monotonic;
    Alcotest.test_case "step budget stops runaways" `Quick test_step_budget;
    Alcotest.test_case "load/store/loop hooks" `Quick test_hooks_fire;
    Alcotest.test_case "alloc/free hooks and context" `Quick test_alloc_free_hooks;
    Alcotest.test_case "fork isolation" `Quick test_fork_isolation;
    Alcotest.test_case "a frame copy runs on its fork" `Quick test_frame_binding;
    Alcotest.test_case "event sequence pinned" `Quick test_event_sequence;
    Alcotest.test_case "step budget inside a subscript" `Quick test_budget_record ]
