(* Pointer-to-object profiler: for every load/store site, the set of
   object name ids the site was observed to touch, plus the names
   minted by each allocation site.  It is the only consumer of the
   object name that {!Profiler} resolves on every access.

   Site-indexed flat arrays with a last-id filter: the common case —
   a site touching the same object as on its previous access — is one
   array load and a compare. *)

module Iset = Set.Make (Int)

type t = {
  mutable last : int array; (* site -> name id last added, min_int = none *)
  mutable sets : Iset.t array; (* site -> accessed name ids *)
  alloc_names : (int, Iset.t ref) Hashtbl.t; (* alloc site -> minted ids *)
}

let create () =
  { last = Array.make 256 min_int; sets = Array.make 256 Iset.empty;
    alloc_names = Hashtbl.create 16 }

let ensure p site =
  let n = Array.length p.last in
  if site >= n then begin
    let n' = max (2 * n) (site + 1) in
    let last = Array.make n' min_int in
    Array.blit p.last 0 last 0 n;
    let sets = Array.make n' Iset.empty in
    Array.blit p.sets 0 sets 0 n;
    p.last <- last;
    p.sets <- sets
  end

let access p site id =
  ensure p site;
  if p.last.(site) <> id then begin
    p.last.(site) <- id;
    p.sets.(site) <- Iset.add id p.sets.(site)
  end

let on_alloc p site id =
  match Hashtbl.find_opt p.alloc_names site with
  | Some cell -> cell := Iset.add id !cell
  | None -> Hashtbl.replace p.alloc_names site (ref (Iset.singleton id))

let objects_at_site p site =
  if site >= 0 && site < Array.length p.sets then Iset.elements p.sets.(site)
  else []

let alloc_names p site =
  match Hashtbl.find_opt p.alloc_names site with
  | Some cell -> Iset.elements !cell
  | None -> []
