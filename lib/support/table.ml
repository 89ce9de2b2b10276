(* Fixed-width ASCII table rendering for the evaluation harness.

   The bench harness prints the paper's tables and figure series as
   aligned text; this module centralizes the layout so every experiment
   output looks the same. *)

type align = Left | Right

type t = {
  headers : string list;
  mutable rows : string list list; (* reverse order *)
  aligns : align list;
}

let create ?aligns headers =
  let aligns =
    match aligns with
    | Some a ->
      if List.length a <> List.length headers then
        invalid_arg "Table.create: aligns/headers length mismatch";
      a
    | None -> List.map (fun _ -> Left) headers
  in
  { headers; rows = []; aligns }

let add_row t row =
  if List.length row <> List.length t.headers then
    invalid_arg "Table.add_row: wrong arity";
  t.rows <- row :: t.rows

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    match align with
    | Left -> s ^ String.make (width - n) ' '
    | Right -> String.make (width - n) ' ' ^ s

(* [s] without its trailing blanks: a row whose last cell is
   left-aligned or empty would otherwise end in padding. *)
let trim_right s =
  let n = ref (String.length s) in
  while !n > 0 && s.[!n - 1] = ' ' do
    decr n
  done;
  String.sub s 0 !n

let render t =
  let rows = List.rev t.rows in
  let all = t.headers :: rows in
  let ncols = List.length t.headers in
  let widths = Array.make ncols 0 in
  List.iter
    (fun row ->
      List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row)
    all;
  let render_row row =
    let cells =
      List.mapi
        (fun i cell -> pad (List.nth t.aligns i) widths.(i) cell)
        row
    in
    trim_right (String.concat "  " cells)
  in
  let sep =
    String.concat "  "
      (Array.to_list (Array.map (fun w -> String.make w '-') widths))
  in
  String.concat "\n" (render_row t.headers :: sep :: List.map render_row rows)

let print t = print_endline (render t)

(* Formatting helpers shared by the harness. *)
let fx ?(digits = 2) v = Printf.sprintf "%.*fx" digits v
let fpct ?(digits = 1) v = Printf.sprintf "%.*f%%" digits v
let fbytes b =
  let fb = float_of_int b in
  if b >= 1 lsl 30 then Printf.sprintf "%.1f GB" (fb /. 1073741824.0)
  else if b >= 1 lsl 20 then Printf.sprintf "%.1f MB" (fb /. 1048576.0)
  else if b >= 1 lsl 10 then Printf.sprintf "%.1f KB" (fb /. 1024.0)
  else Printf.sprintf "%d B" b
