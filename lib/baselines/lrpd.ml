(* The LRPD test (Rauchwerger & Padua, PLDI'95), the paper's closest
   speculative ancestor and Table 1 comparison point.

   LRPD speculatively parallelizes loops *over statically-named
   arrays*: it allocates shadow arrays matching each source array and
   marks reads/writes per element, then validates the privatization
   criterion (no element read-before-write in one iteration is
   written in a different iteration).  Its applicability hinges on the
   memory-layout problem Privateer removes: every access must be
   provably within a named array.  Pointers, dynamic allocation and
   linked structures make it inapplicable — which is exactly what it
   reports on all five evaluation programs. *)

open Privateer_ir
open Privateer_interp
open Privateer_analysis

type applicability =
  | Applicable
  | Inapplicable of string (* why the memory layout defeats LRPD *)

(* Every access must target a statically-named global array. *)
let applicable program pta ~func ~iv body : applicability =
  let acc = Doall_only.region_accesses program ~func body in
  if acc.has_alloc then Inapplicable "dynamic allocation in region"
  else begin
    let named_array (_, fname, addr) =
      let pts = Static_pta.points_to pta ~fname addr in
      Static_pta.is_precise pts
      && Static_pta.Abs_set.for_all
           (fun a -> match a with Static_pta.Abs.AGlobal _ -> true | _ -> false)
           pts
    in
    match
      List.find_opt (fun a -> not (named_array a)) (acc.loads @ acc.stores)
    with
    | Some (site, fname, _) ->
      Inapplicable
        (Printf.sprintf
           "access at site %d (%s) is not provably within a named array" site fname)
    | None -> (
      match Scalars.classify ~induction:iv body with
      | Scalars.Rejected r -> Inapplicable ("scalars: " ^ r)
      | Scalars.Classified _ -> Applicable)
  end

(* ---- the shadow-array test ------------------------------------------- *)

type mark = {
  mutable write_iters : int list; (* distinct iterations writing (capped) *)
  mutable read_first_iters : int list; (* iterations reading before writing *)
  mutable cur_iter : int;
  mutable wrote_this_iter : bool;
}

type test_result = {
  passed : bool;
  failure : string option;
  marked_words : int;
}

(* Run the program sequentially, marking every word the loop touches
   from iteration [lo] on: the iterations that wrote it and those that
   read it before writing it.  Returns the marks and the loop's trip
   count. *)
let mark_loop program ~setup ~loop ~lo =
  let st = Interp.create program in
  let shadow : (int, mark) Hashtbl.t = Hashtbl.create 1024 in
  let current_iter = ref (-1) in
  let in_loop = ref false in
  let trips = ref 0 in
  let mark_of addr =
    let word = addr land lnot 7 in
    let m =
      match Hashtbl.find_opt shadow word with
      | Some m -> m
      | None ->
        let m =
          { write_iters = []; read_first_iters = []; cur_iter = -1;
            wrote_this_iter = false }
        in
        Hashtbl.replace shadow word m;
        m
    in
    if m.cur_iter <> !current_iter then begin
      m.cur_iter <- !current_iter;
      m.wrote_this_iter <- false
    end;
    m
  in
  let marking () = !in_loop && !current_iter >= lo in
  st.hooks <-
    { Hooks.default with
      on_loop_iter = (fun id ~iter -> if id = loop then current_iter := iter);
      on_loop_enter = (fun id -> if id = loop then in_loop := true);
      on_loop_exit =
        (fun id ~trips:n -> if id = loop then begin in_loop := false; trips := n end);
      on_load =
        (fun _ ~addr ~size:_ ~value:_ ->
          if marking () then begin
            let m = mark_of addr in
            if (not m.wrote_this_iter)
               && not (List.mem !current_iter m.read_first_iters)
            then m.read_first_iters <- !current_iter :: m.read_first_iters
          end);
      on_store =
        (fun _ ~addr ~size:_ ~value:_ ->
          if marking () then begin
            let m = mark_of addr in
            m.wrote_this_iter <- true;
            if not (List.mem !current_iter m.write_iters) then
              m.write_iters <- !current_iter :: m.write_iters
          end) };
  setup st;
  ignore (Interp.run_entry st);
  (shadow, !trips)

(* The privatization criterion per element: a read-before-write in
   iteration j must not coexist with a write in iteration i <> j (the
   "D" phase of LRPD, run after marking since our harness only needs
   the verdict and the marking cost). *)
let run_test program ~setup ~loop =
  let shadow, _ = mark_loop program ~setup ~loop ~lo:0 in
  let failure = ref None in
  Hashtbl.iter
    (fun word m ->
      if !failure = None then
        List.iter
          (fun j ->
            if List.exists (fun i -> i <> j) m.write_iters then
              failure :=
                Some
                  (Printf.sprintf
                     "element %#x read live-in in iteration %d but written in another"
                     word j))
          m.read_first_iters)
    shadow;
  { passed = !failure = None; failure = !failure; marked_words = Hashtbl.length shadow }

(* ---- the R-LRPD extension --------------------------------------------- *)

(* R-LRPD (Dang, Yu & Rauchwerger, IPDPS'02) handles *partially
   parallel* loops: when the test fails, all iterations before the
   earliest violation are correct and are committed; the test restarts
   on the remainder.  The paper's Table 1 groups it with LRPD (same
   array-only memory-layout limitation).

   Here: a staged run of the shadow test restricted to iteration
   windows; each stage commits the maximal violation-free prefix. *)

type stage = { stage_lo : int; stage_hi : int (* committed range [lo, hi) *) }

type r_lrpd_result = {
  stages : stage list;
  fully_parallel : bool; (* one stage = plain LRPD success *)
  iterations : int;
}

(* Earliest privacy-violating iteration from [lo] on, if any: the
   least iteration j that read an element before writing it after an
   earlier iteration i < j wrote it.  Iterations run in order, so every
   such write happened before j's read. *)
let earliest_violation program ~setup ~loop ~lo =
  let shadow, trips = mark_loop program ~setup ~loop ~lo in
  let violation =
    Hashtbl.fold
      (fun _ m acc ->
        List.fold_left
          (fun acc j ->
            if List.exists (fun i -> i < j) m.write_iters then
              match acc with Some j' when j' <= j -> acc | Some _ | None -> Some j
            else acc)
          acc m.read_first_iters)
      shadow None
  in
  (violation, trips)

let run_r_lrpd program ~setup ~loop =
  let rec stage lo acc total =
    match earliest_violation program ~setup ~loop ~lo with
    | None, trips ->
      let total = max total trips in
      ({ stage_lo = lo; stage_hi = total } :: acc, total)
    | Some f, trips ->
      let total = max total trips in
      if f <= lo then
        (* The very first window iteration violates: commit it alone
           sequentially and restart after it. *)
        stage (lo + 1) ({ stage_lo = lo; stage_hi = lo + 1 } :: acc) total
      else stage f ({ stage_lo = lo; stage_hi = f } :: acc) total
  in
  let stages, total = stage 0 [] 0 in
  let stages = List.rev stages in
  { stages; fully_parallel = List.length stages = 1; iterations = total }

(* Applicability verdict for a whole program's hottest For loops. *)
let survey program profiler =
  let pta = Static_pta.analyze program in
  Ast.loops_of_program program
  |> List.filter_map (fun ((f : Ast.func), (_, stmt)) ->
         match stmt with
         | Ast.For (loop, var, _, _, body) ->
           let weight =
             match Privateer_profile.Profiler.loop_summary profiler loop with
             | Some s -> s.loop_cycles
             | None -> 0
           in
           Some (loop, f.fname, weight, applicable program pta ~func:f.fname ~iv:var body)
         | _ -> None)
  |> List.sort (fun (_, _, a, _) (_, _, b, _) -> compare b a)
