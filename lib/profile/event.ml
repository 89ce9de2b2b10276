(* Event kinds: the vocabulary between the shared profiling frontend
   and the per-profiler consumers.  Operand layout per kind, as passed
   to the consumers' handlers:

     Load    site  addr   size   object name id   value read
     Store   site  addr   size   object name id
     Alloc   site  addr   size   object name id
     Free    addr  size   removed name id (-1 if unknown)
     Enter   loop  cycles at entry
     Iter    loop  iteration counter
     Exit    loop  trips  cycles at exit
     Branch  branch id    1 if taken else 0

   Name ids intern [Objname.t] in the frontend; id 0 is always
   [Objname.Unknown]. *)

let load = '\000'
let store = '\001'
let alloc = '\002'
let free = '\003'
let enter = '\004'
let iter = '\005'
let exit' = '\006'
let branch = '\007'

(* Kind masks: each consumer declares the kinds it consumes, and the
   frontend only dispatches kinds some enabled consumer wants. *)
let bit k = 1 lsl Char.code k
let mask_of ks = List.fold_left (fun m k -> m lor bit k) 0 ks
