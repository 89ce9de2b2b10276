(* Small numeric helpers for the evaluation harness. *)

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Geometric mean; the paper's headline number (11.4x) is a geomean of
   whole-program speedups. *)
let geomean = function
  | [] -> nan
  | xs ->
    let logsum = List.fold_left (fun acc x -> acc +. log x) 0.0 xs in
    exp (logsum /. float_of_int (List.length xs))

let percent part whole = if whole = 0.0 then 0.0 else 100.0 *. part /. whole

let clamp lo hi x = if x < lo then lo else if x > hi then hi else x
