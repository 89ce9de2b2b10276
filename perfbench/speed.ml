(* Machine-speed probe.

   On a shared host the same code can run up to twice as slowly from
   one minute to the next, and every host time moves with it.  Before
   a job (or a server pass) the benchmark times this fixed loop, which
   allocates and hashes the way the interpreter does, and scales the
   job's host times by [reference_ns / probe], with the probe time
   interpolated between the probes before and after long work: what
   they would have been at the probe speed of the host the benchmark
   was defined on
   (2 cores, Xeon at 2.1 GHz).  The loop is benchmark code, the same on
   both sides of a comparison, so a change to the program moves the
   scaled times and not the probe.  Raw times stay in the context
   line. *)

module Clock = Privateer_support.Clock

(* The probe's time on the reference host. *)
let reference_ns = 20e6

let loop () =
  let t0 = Clock.now_ns () in
  let h = Hashtbl.create 1024 in
  let acc = ref 0 in
  for i = 0 to 69_999 do
    let k = "v" ^ string_of_int (i land 4095) in
    let v = Option.value ~default:0 (Hashtbl.find_opt h k) in
    Hashtbl.replace h k (v + i);
    acc := !acc + (v land 7)
  done;
  ignore (Sys.opaque_identity !acc);
  Clock.now_ns () -. t0

(* The median of three runs of the loop, so one hiccup does not set the
   scale of a whole job. *)
let probe () =
  match List.sort compare [ loop (); loop (); loop () ] with
  | [ _; m; _ ] -> m
  | _ -> assert false

type t = {
  mutable last_ns : float;  (** the latest probe *)
  mutable last_at : float;  (** when it was taken *)
  mutable probes : float list;
}

let create () = { last_ns = reference_ns; last_at = Float.neg_infinity; probes = [] }

(* Probe now; returns the probe's time. *)
let sample t =
  let ns = probe () in
  t.last_ns <- ns;
  t.last_at <- Clock.now_ns ();
  t.probes <- ns :: t.probes;
  ns

(* For short work: the latest probe, taken again when it is older
   than half a second. *)
let current t =
  if Clock.now_ns () -. t.last_at > 5e8 then ignore (sample t);
  t.last_ns
