(* Runtime values: 63-bit integers (doubling as pointers) and floats.

   Memory stores raw 8-byte words plus a float tag (see
   Privateer_machine.Memory); this module is the encode/decode layer. *)

type t = VInt of int | VFloat of float

exception Runtime_error of string

let not_an_int f = raise (Runtime_error (Printf.sprintf "expected int, got float %g" f))

let[@inline] as_int = function VInt n -> n | VFloat f -> not_an_int f

let[@inline] as_float = function VFloat f -> f | VInt n -> float_of_int n

(* Word encoding for memory. *)
let to_bits = function
  | VInt n -> (Int64.of_int n, false)
  | VFloat f -> (Int64.bits_of_float f, true)

let of_bits bits is_float =
  if is_float then VFloat (Int64.float_of_bits bits) else VInt (Int64.to_int bits)

let equal a b =
  match (a, b) with
  | VInt x, VInt y -> x = y
  | VFloat x, VFloat y -> x = y || (Float.is_nan x && Float.is_nan y)
  | VInt _, VFloat _ | VFloat _, VInt _ -> false

let to_string = function
  | VInt n -> string_of_int n
  | VFloat f -> Printf.sprintf "%g" f
