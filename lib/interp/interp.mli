(** The IR interpreter: a deterministic simulated machine.

    [create] lays out the program's globals and lowers every function
    once into closures over a slot-indexed frame; profiling runs,
    sequential baselines, worker iterations and recovery all run that
    lowered code.  Each expression lowers to a typed code: a constant
    (a literal or global address), a slot read, or a closure known to
    return an int, a float, a bool or a {!Value.t} (8-byte loads and
    user calls).  A value is boxed only where it crosses a dynamic
    boundary (a slot assignment, call arguments and results, store
    values, print arguments, and [==]/[!=] unless both operands are
    ints).  The int/float conversions are the interpreter's own, with
    {!Value}'s error text.

    Int and float arithmetic and comparisons, subscripted 8-byte loads
    and stores, assignments and conditions fix each operand's shape at
    lowering: a constant converted once to the context's type, a local
    slot, a closure of the context's type, or a closure read as a
    value.  Such a node is one closure per combination of its operands'
    shapes, so it reads them with no run-time match; its operator is
    the one run-time switch left.  Other nodes read their operands
    through a match on the operand's code.

    The default build compiles with [-opaque], where cross-module calls
    do not inline and a closure called with two or more arguments pays
    the runtime's arity check.  So a node calls its operands with one
    argument, and an aligned 8-byte access makes one cross-module call,
    the page lookup, before its hook:
    - a lowered closure takes only the {!frame}, which records the
      interpreter running it.  A function's frame is bound to its
      caller's interpreter, and {!run_iteration} binds the frame it is
      given to the interpreter it is given, so a worker's
      {!copy_frame} runs on the worker's {!fork};
    - aligned 8-byte loads and stores read and write the word and its
      float tag on the page ({!Privateer_machine.Memory.page_for_read},
      {!Privateer_machine.Memory.touch_page}); unaligned ones take
      {!Privateer_machine.Machine.read_word} and [write_word];
    - a subscript [a[i]] (the parser's [a + 8 * i]) is evaluated inside
      its load or store, with the steps, charges and int conversions of
      the add, the multiply and the literal, in their order.

    Observables are fixed: one step per expression node and per
    statement, cycle charges and hook events in evaluation order, int
    conversions after the node's charge (right operand first), and the
    error texts of {!Runtime_error}, whatever the operands' shapes.  A
    step budget therefore stops a run at the same node, inside a
    subscript too. *)

open Privateer_ir
open Privateer_machine

(** Every program fault (the same constructor as
    {!Value.Runtime_error}). *)
exception Runtime_error of string

(** A function activation's locals, bound to the interpreter running
    it. *)
type frame

(** A [For] loop handed to [parallel_for]: its id, induction slot
    and lowered body. *)
type loop

(** The lowered functions of one {!create}, shared by its forks. *)
type code

type t = {
  program : Ast.program;
  machine : Machine.t;
  globals : (string, int) Hashtbl.t;  (** name -> base address *)
  cost : Cost.t;
  code : code;
  mutable hooks : Hooks.t;
  mutable cycles : int;
  mutable ctx : int list;  (** enclosing call/loop node ids, innermost first *)
  mutable emit : string -> unit;
  output : Buffer.t;
  mutable steps : int;
  max_steps : int;
  mutable parallel_for : (t -> frame -> loop -> init:int -> limit:int -> bool) option;
      (** Called on every [For] loop once its bounds are evaluated (and
          before any loop hook); [true] means the handler executed the
          loop, so the interpreter skips it. *)
}

(** Lay out the globals (before [main], paper 4.4) and lower the
    program.  [max_steps] bounds the steps of the run. *)
val create : ?cost:Cost.t -> ?max_steps:int -> Ast.program -> t

(** A worker-process view: copy-on-write machine snapshot, the same
    program, layout and lowered code, fresh cycles, steps, hooks and
    output. *)
val fork : t -> t

(** Run the entry function; returns its result. *)
val run_entry : t -> Value.t

(** Everything [print] emitted so far. *)
val output : t -> string

(** {2 Loops taken over by an executor} *)

val loop_id : loop -> Ast.node_id

(** Set the loop's induction variable. *)
val set_induction : frame -> loop -> int -> unit

(** One iteration on the given interpreter: the frame is bound to it
    (a worker's frame copy to the worker's fork), the induction
    variable set to the value, then the body runs.  No loop hook
    fires. *)
val run_iteration : t -> frame -> loop -> int -> unit

(** {2 Frames by name}

    For spawn and commit only: the hot path never looks a name up. *)

(** A copy of the locals, still bound to the frame's interpreter until
    {!run_iteration} binds it. *)
val copy_frame : frame -> frame

(** [None] when the name is unbound. *)
val find_local : frame -> string -> Value.t option

(** @raise Invalid_argument when the function has no such local. *)
val set_local : frame -> string -> Value.t -> unit
