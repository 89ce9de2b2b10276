(* The eager in-flight conflict board (validation mode [eager]).

   Commit-time validation only notices a cross-worker privacy conflict
   at the checkpoint merge, after every worker has burned its whole
   interval.  The board is the in-flight counterpart, shaped after the
   Speculative Threading Unit's validator + memory tracker: as workers
   execute (serially, in the engine's deterministic worker order),
   every private access publishes a coarse per-page summary here, each
   publication is cross-checked against the other workers' summaries,
   and the first confirmed conflict is reported so the executor can
   squash the interval immediately instead of at the merge.

   Two-level check, cheap by construction:

   - *coarse*: per touched page, one shadow-page lookup on the
     publishing worker's own machine and at most two hash lookups.  The
     [wrote] table maps a page to the sole worker that wrote it this
     interval, or to [multi] once a second worker has.  The [read]
     table does the same for the workers whose shadow page holds
     read-live-in marks (the page's [live_in_bytes] > 0), noted on every
     publication, writes included.  Only a marked byte can convict
     (paper Table 2), so a read coarse-hits only when the reader's own
     page is marked and another worker wrote the page, and a write
     only when another worker's page is marked.

   - *precise*: only on a coarse hit, re-read the actual shadow
     metadata (through [Shadow.probe]) and confirm the conflict at the
     byte level under exactly the checkpoint merge's rules: a reader's
     [read_live_in] byte on a dirty shadow page conflicts with any
     other worker's timestamped byte in the same 8-byte word (and
     symmetrically for writes observing reads).  Bytes are scanned in
     ascending address order and the first confirmed byte wins, so
     verdicts are deterministic.

   Why the coarse filter hides nothing the precise rules would find:
   both rules need a read-live-in byte on a shadow page dirtied this
   interval.  Marks only come from reads, a shadow page only becomes
   dirty through a [Shadow.access], and every [Shadow.access] is
   published, so the owner of such a mark is in [read] before the mark
   can matter — including a mark carried over an interval boundary on
   a page its owner only writes this interval.

   The board is sound but incomplete: it never confirms a conflict the
   merge would not also flag for this interval (no false kills — on a
   violation-free run eager mode is cycle-identical to commit mode),
   but it can miss conflicts whose evidence is not in current-interval
   metadata.  A reader whose live-in mark sits on a page not (yet)
   dirtied this interval when the conflicting write is published is
   caught by the commit-time merge, which stays on behind the board.
   A write that committed in an earlier interval is caught by no
   layer: the merge's writer index holds one interval's writes
   (ROADMAP item 7). *)

open Privateer_machine

(* A page-table entry: the sole worker id noted on the page, or
   [multi] once at least two distinct workers have been.  With >= 2
   distinct workers, at least one always differs from any given worker,
   so [multi] unconditionally coarse-hits. *)
let multi = -1

type t = {
  mutable machines : Machine.t array; (* cohort, indexed by worker id *)
  wrote : (int, int) Hashtbl.t; (* page -> sole writer | multi *)
  read : (int, int) Hashtbl.t; (* page -> sole marked worker | multi *)
  mutable interval_start : int;
  mutable checks : int; (* publications *)
  mutable hits : int; (* coarse hits that ran the precise confirm *)
}

type conflict = {
  c_addr : int; (* the reader's live-in byte, as in phase 2 *)
  c_earliest_iter : int; (* earliest iteration known involved *)
}

let create () =
  { machines = [||]; wrote = Hashtbl.create 64; read = Hashtbl.create 64;
    interval_start = 0; checks = 0; hits = 0 }

let checks t = t.checks
let hits t = t.hits

(* A fresh cohort of workers (after spawn or respawn): summaries of the
   squashed cohort are meaningless against the new machines. *)
let new_cohort t machines =
  t.machines <- machines;
  Hashtbl.reset t.wrote;
  Hashtbl.reset t.read

(* A new checkpoint interval: the committed interval's summaries are
   dropped.  Nothing checks them later (ROADMAP item 7). *)
let new_interval t ~interval_start =
  t.interval_start <- interval_start;
  Hashtbl.reset t.wrote;
  Hashtbl.reset t.read

(* ---- coarse per-page summaries ---------------------------------------- *)

let note table ~worker page =
  match Hashtbl.find_opt table page with
  | None -> Hashtbl.replace table page worker
  | Some w when w = worker || w = multi -> ()
  | Some _ -> Hashtbl.replace table page multi

let shared_with_other table ~worker page =
  match Hashtbl.find_opt table page with
  | None -> false
  | Some w -> w <> worker (* [multi] implies some other worker *)

(* ---- precise confirmation on the shadow metadata ---------------------- *)

let word_base addr = addr land lnot 7

(* Does any worker other than [self] hold a current-interval timestamp
   in the word at [base]?  Returns the smallest such iteration. *)
let other_write_iter t ~self ~base =
  let best = ref None in
  Array.iteri
    (fun id m ->
      if id <> self then
        for b = base to base + 7 do
          let md, dirty = Shadow.probe m ~addr:b in
          if dirty && Shadow.is_timestamp md then
            let it = Shadow.iteration_of_timestamp ~interval_start:t.interval_start md in
            if !best = None || Some it < !best then best := Some it
        done)
    t.machines;
  !best

(* A read by [worker]: for each byte it just marked read-live-in (on a
   dirty page), any other worker's timestamp in the same word is the
   conflict phase 2 would flag.  The earliest involved iteration is
   the smaller of the reading iteration and the writer's decoded
   timestamp. *)
let confirm_read t ~worker ~iter ~addr ~size =
  let self_machine = t.machines.(worker) in
  let rec scan b =
    if b >= addr + size then None
    else
      let md, dirty = Shadow.probe self_machine ~addr:b in
      if dirty && md = Shadow.read_live_in then
        match other_write_iter t ~self:worker ~base:(word_base b) with
        | Some w_iter -> Some { c_addr = b; c_earliest_iter = min iter w_iter }
        | None -> scan (b + 1)
      else scan (b + 1)
  in
  scan addr

(* A write by [worker]: any other worker's read-live-in byte (on a
   dirty page) in a word this write touches is the symmetric conflict.
   The reader's iteration is not recoverable from metadata (the
   read-live-in code carries no timestamp), so the writing iteration
   stands in as the earliest known — one reason eager mode can fire
   later than the true earliest violating iteration. *)
let confirm_write t ~worker ~iter ~addr ~size =
  let rec words base =
    if base >= addr + size then None
    else
      let found = ref None in
      Array.iteri
        (fun id m ->
          if !found = None && id <> worker then
            for b = base + 7 downto base do
              let md, dirty = Shadow.probe m ~addr:b in
              if dirty && md = Shadow.read_live_in then found := Some b
            done)
        t.machines;
      match !found with
      | Some b -> Some { c_addr = b; c_earliest_iter = iter }
      | None -> words (base + 8)
  in
  words (word_base addr)

(* ---- publication ------------------------------------------------------ *)

(* Publish one private access and cross-check it against the other
   workers' summaries.  Must run right after the corresponding
   [Shadow.access], on the engine's (serial, deterministic) execution
   path.  Returns the first confirmed conflict, if any. *)
let publish t ~worker ~op ~addr ~size ~iter =
  t.checks <- t.checks + 1;
  let self = t.machines.(worker) in
  let p0 = Memory.page_of_addr addr in
  let p1 = Memory.page_of_addr (addr + size - 1) in
  let coarse_hit = ref false in
  for p = p0 to p1 do
    let marked = Shadow.live_in_marks self ~addr:(Memory.base_of_page p) > 0 in
    if marked then note t.read ~worker p;
    match (op : Shadow.op) with
    | Read -> if marked && shared_with_other t.wrote ~worker p then coarse_hit := true
    | Write ->
      note t.wrote ~worker p;
      if shared_with_other t.read ~worker p then coarse_hit := true
  done;
  if not !coarse_hit then None
  else begin
    t.hits <- t.hits + 1;
    match (op : Shadow.op) with
    | Read -> confirm_read t ~worker ~iter ~addr ~size
    | Write -> confirm_write t ~worker ~iter ~addr ~size
  end
