(* A small fixed pool of OCaml 5 domains.

   The pool is a process-wide scheduler for fire-and-forget futures
   ([submit]/[await]): any number of client domains may submit work
   concurrently, and tasks from all of them interleave on the same
   worker domains.  The job server multiplexes whole speculative
   pipelines this way — each job body is one future.

   Scheduling is work-stealing: one circular deque per domain, guarded
   by a per-deque mutex.  Submissions are placed round-robin; every
   domain pops its own deque LIFO (hot cache) while idle domains steal
   FIFO from the other end, so a straggler's oldest work migrates
   first.  A global mutex/condition pair exists only for sleeping: an
   atomic count of enqueued tasks is the wake-up predicate, and
   submitters broadcast while holding the mutex, so a worker that
   re-checks the count under the lock cannot miss a wake-up.

   Determinism contract: tasks receive no ordering or placement
   guarantees, so callers must make task results independent of
   execution order. *)

type kind = Work_stealing

(* ---- per-domain deque -------------------------------------------------- *)

(* A growable circular buffer: the owner pops at the tail (LIFO),
   thieves take from the head (FIFO).  One mutex per deque —
   contention is per-victim, not global. *)
type deque = {
  dq_mutex : Mutex.t;
  mutable dq_buf : (unit -> unit) option array;
  mutable dq_head : int; (* index of the oldest task *)
  mutable dq_len : int;
}

let deque_create () =
  { dq_mutex = Mutex.create (); dq_buf = Array.make 16 None; dq_head = 0;
    dq_len = 0 }

let deque_push dq task =
  Mutex.lock dq.dq_mutex;
  let cap = Array.length dq.dq_buf in
  if dq.dq_len = cap then begin
    let buf = Array.make (cap * 2) None in
    for i = 0 to dq.dq_len - 1 do
      buf.(i) <- dq.dq_buf.((dq.dq_head + i) mod cap)
    done;
    dq.dq_buf <- buf;
    dq.dq_head <- 0
  end;
  dq.dq_buf.((dq.dq_head + dq.dq_len) mod Array.length dq.dq_buf) <- Some task;
  dq.dq_len <- dq.dq_len + 1;
  Mutex.unlock dq.dq_mutex

(* Owner side: newest task first (LIFO). *)
let deque_pop dq =
  Mutex.lock dq.dq_mutex;
  let r =
    if dq.dq_len = 0 then None
    else begin
      let i = (dq.dq_head + dq.dq_len - 1) mod Array.length dq.dq_buf in
      let task = dq.dq_buf.(i) in
      dq.dq_buf.(i) <- None;
      dq.dq_len <- dq.dq_len - 1;
      task
    end
  in
  Mutex.unlock dq.dq_mutex;
  r

(* Thief side: oldest task first (FIFO). *)
let deque_steal dq =
  Mutex.lock dq.dq_mutex;
  let r =
    if dq.dq_len = 0 then None
    else begin
      let task = dq.dq_buf.(dq.dq_head) in
      dq.dq_buf.(dq.dq_head) <- None;
      dq.dq_head <- (dq.dq_head + 1) mod Array.length dq.dq_buf;
      dq.dq_len <- dq.dq_len - 1;
      task
    end
  in
  Mutex.unlock dq.dq_mutex;
  r

(* ---- the pool ---------------------------------------------------------- *)

type t = {
  mutable visible : int;
      (* the size callers asked for — what [size] reports and what the
         sequential-fallback check consults.  [shared] may hand out a
         pool whose spawned domains outnumber the current request. *)
  actual : int; (* spawned parallelism: worker domains + the caller *)
  mutex : Mutex.t; (* guards sleep/wake and every future's state *)
  work_ready : Condition.t;
  deques : deque array; (* one per domain *)
  enqueued : int Atomic.t; (* wake-up predicate *)
  submit_rr : int Atomic.t; (* [submit] placement cursor *)
  mutable stopping : bool;
  mutable workers : unit Domain.t list;
}

let size t = t.visible

(* Take one task as domain [me]: own deque LIFO first, then steal FIFO
   round-robin from the victims.  The [enqueued] decrement happens
   after the take, so the count may transiently exceed the available
   tasks — harmless, the sleep loop re-scans. *)
let try_run_one t me =
  let run task =
    Atomic.decr t.enqueued;
    task ();
    true
  in
  match deque_pop t.deques.(me) with
  | Some task -> run task
  | None ->
    let n = Array.length t.deques in
    let rec scan k =
      if k >= n then false
      else
        match deque_steal t.deques.((me + k) mod n) with
        | Some task -> run task
        | None -> scan (k + 1)
    in
    scan 1

let rec worker_loop t me =
  if try_run_one t me then worker_loop t me
  else begin
    Mutex.lock t.mutex;
    (* Submitters broadcast while holding the mutex after raising
       [enqueued], so re-checking the count here closes the lost
       wake-up window. *)
    if (not t.stopping) && Atomic.get t.enqueued = 0 then
      Condition.wait t.work_ready t.mutex;
    let stop = t.stopping in
    Mutex.unlock t.mutex;
    if not stop then worker_loop t me
  end

(* ---- lifecycle --------------------------------------------------------- *)

let create ~domains () =
  if domains < 1 || domains > 64 then
    invalid_arg
      (Printf.sprintf "Domain_pool.create: domains must be in [1, 64] (got %d)" domains);
  let t =
    { visible = domains; actual = domains; mutex = Mutex.create ();
      work_ready = Condition.create ();
      deques = Array.init domains (fun _ -> deque_create ());
      enqueued = Atomic.make 0; submit_rr = Atomic.make 0; stopping = false;
      workers = [] }
  in
  t.workers <-
    List.init (domains - 1) (fun i -> Domain.spawn (fun () -> worker_loop t (i + 1)));
  t

let shutdown t =
  Mutex.lock t.mutex;
  let ws = t.workers in
  t.workers <- [];
  t.stopping <- true;
  Condition.broadcast t.work_ready;
  Mutex.unlock t.mutex;
  List.iter Domain.join ws

(* ---- futures ----------------------------------------------------------- *)

(* A one-shot result cell.  [fu_st] is guarded by the pool mutex; the
   settling task broadcasts [work_ready] under that mutex, so an
   awaiter that re-checks the state under the lock before sleeping
   cannot miss the settle. *)
type 'a state = Pending | Settled of 'a | Failed of exn

type 'a future = { fu_pool : t; mutable fu_st : 'a state }

let submit t f =
  if t.visible <= 1 || t.stopping then
    (* Sequential fallback: execute on the submitting domain and hand
       back an already-settled future. *)
    { fu_pool = t;
      fu_st = (match f () with v -> Settled v | exception e -> Failed e) }
  else begin
    let fu = { fu_pool = t; fu_st = Pending } in
    let task () =
      let st = match f () with v -> Settled v | exception e -> Failed e in
      Mutex.lock t.mutex;
      fu.fu_st <- st;
      (* Awaiters sleep on the workers' condition: a settle is as much
         a "re-scan now" event as a submission. *)
      Condition.broadcast t.work_ready;
      Mutex.unlock t.mutex
    in
    (* Round-robin placement spreads independent submissions across
       the deques; steals rebalance whatever this gets wrong. *)
    let d = Array.length t.deques in
    let j = Atomic.fetch_and_add t.submit_rr 1 mod d in
    let j = if j < 0 then j + d else j in
    deque_push t.deques.(j) task;
    Atomic.incr t.enqueued;
    Mutex.lock t.mutex;
    Condition.broadcast t.work_ready;
    Mutex.unlock t.mutex;
    fu
  end

let poll fu =
  let t = fu.fu_pool in
  Mutex.lock t.mutex;
  let st = fu.fu_st in
  Mutex.unlock t.mutex;
  match st with
  | Pending -> None
  | Settled v -> Some (Ok v)
  | Failed e -> Some (Error e)

let await fu =
  let t = fu.fu_pool in
  let rec loop () =
    Mutex.lock t.mutex;
    match fu.fu_st with
    | Settled v ->
      Mutex.unlock t.mutex;
      v
    | Failed e ->
      Mutex.unlock t.mutex;
      raise e
    | Pending ->
      Mutex.unlock t.mutex;
      (* Help: take one task destined for anyone, scanning every deque
         from slot 0. *)
      if try_run_one t 0 then loop ()
      else begin
        (* Nothing takeable: the future's task (or work it spawned) is
           in flight on another domain.  Every settle and every
           submission broadcasts under [t.mutex], so re-checking state
           and queues under the lock closes the lost wake-up window. *)
        Mutex.lock t.mutex;
        (match fu.fu_st with
        | Pending when Atomic.get t.enqueued = 0 && not t.stopping ->
          Condition.wait t.work_ready t.mutex
        | _ -> ());
        Mutex.unlock t.mutex;
        loop ()
      end
  in
  loop ()

(* ---- process-wide shared pool ----------------------------------------- *)

let shared_mutex = Mutex.create ()
let shared_pool : t option ref = ref None

let shared ?kind:(_ = Work_stealing) ~domains () =
  let domains = max 1 domains in
  Mutex.lock shared_mutex;
  let p =
    match !shared_pool with
    | Some p when p.actual >= domains && not p.stopping ->
      (* Reuse the spawned domains, but report the parallelism this
         caller asked for — a smaller request must not silently
         inherit the larger pool's size. *)
      p.visible <- domains;
      p
    | prev ->
      Option.iter shutdown prev;
      let p = create ~domains () in
      shared_pool := Some p;
      p
  in
  Mutex.unlock shared_mutex;
  p
