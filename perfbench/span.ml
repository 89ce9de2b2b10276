(* In-memory span recorder for the benchmark's traced run.

   A span is a name, a start, an end, the span that caused it and the
   benchmark job it belongs to.  Spans are kept in memory while the
   benchmark runs and written out once, at exit.  Timing is always
   taken (the untraced run needs the stage durations for its own
   metrics); [on] only decides whether the span is kept.

   The clock is [Privateer_support.Clock.now_ns], i.e.
   [Unix.gettimeofday], which is not monotonic: a span whose end reads
   before its start is clamped to zero length and counted in
   [clamped]. *)

module Clock = Privateer_support.Clock
module Json = Privateer_support.Json

type span = {
  id : int;
  name : string;
  job : int;
  parent : int;  (** [-1] for a root span *)
  start_ns : float;
  stop_ns : float;
}

type t = {
  mutable on : bool;
  mutable spans : span list;  (** newest first *)
  mutable next_id : int;
  mutable stack : int list;  (** open spans, innermost first *)
  mutable clamped : int;
  origin_ns : float;
}

let create () =
  { on = false; spans = []; next_id = 0; stack = []; clamped = 0;
    origin_ns = Clock.now_ns () }

let duration s = s.stop_ns -. s.start_ns

let clamp t ~start ~stop =
  if stop < start then begin
    t.clamped <- t.clamped + 1;
    start
  end
  else stop

(* Record a span whose bounds were measured elsewhere (the job
   server's queue and service times).  Returns its id. *)
let add t ?(parent = -1) ~job ~start ~stop name =
  let stop = clamp t ~start ~stop in
  let id = t.next_id in
  t.next_id <- id + 1;
  if t.on then
    t.spans <- { id; name; job; parent; start_ns = start; stop_ns = stop } :: t.spans;
  id

(* Run [f ()] as a span named [name]; spans opened inside [f] become
   its children.  Returns the result and the span's clamped length in
   ns. *)
let time t ~job name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  t.stack <- id :: t.stack;
  let start = Clock.now_ns () in
  let close () =
    let stop = clamp t ~start ~stop:(Clock.now_ns ()) in
    t.stack <- List.tl t.stack;
    stop
  in
  match f () with
  | r ->
    let stop = close () in
    if t.on then
      t.spans <- { id; name; job; parent; start_ns = start; stop_ns = stop } :: t.spans;
    (r, stop -. start)
  | exception e ->
    ignore (close ());
    raise e

(* Uncovered share of every kept span named [name]: the part of the
   span its direct children do not cover, over its length.  Children
   of one span never overlap (they run one after another on the
   benchmark's domain), so their lengths add. *)
let uncovered_shares t name =
  let child_ns = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_ns s.parent
          (duration s +. Option.value ~default:0.0 (Hashtbl.find_opt child_ns s.parent)))
    t.spans;
  List.filter_map
    (fun s ->
      if s.name <> name || duration s <= 0.0 then None
      else
        let covered = Option.value ~default:0.0 (Hashtbl.find_opt child_ns s.id) in
        Some (s, Float.max 0.0 (duration s -. covered) /. duration s))
    t.spans

let write t ~path ~context =
  (* Integer ns since the recorder was created: Json prints floats with
     six digits only. *)
  let rel ns = Json.Int (int_of_float (ns -. t.origin_ns)) in
  let shares = Hashtbl.create 256 in
  List.iter (fun (s, u) -> Hashtbl.replace shares s.id u) (uncovered_shares t "job");
  let span_json s =
    Json.Obj
      ([ ("id", Json.Int s.id); ("name", Json.String s.name); ("job", Json.Int s.job);
         ("parent", Json.Int s.parent); ("start_ns", rel s.start_ns);
         ("end_ns", rel s.stop_ns) ]
      @
      match Hashtbl.find_opt shares s.id with
      | Some u -> [ ("uncovered_share", Json.Float u) ]
      | None -> [])
  in
  let json =
    Json.Obj
      [ ("context", context);
        ( "clock",
          Json.String
            "gettimeofday (not monotonic); spans ending before they start are clamped to 0" );
        ("clamped_spans", Json.Int t.clamped);
        ("spans", Json.List (List.rev_map span_json t.spans)) ]
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Json.to_string json);
      output_char oc '\n')
