(* Logical heaps and their address-tag encoding.

   Privateer partitions a loop's memory footprint into five logical
   heaps with restricted semantics (paper section 4.2), plus the
   shadow heap holding privacy metadata (section 5.1).  Every heap
   occupies a fixed virtual address range identified by a 3-bit tag in
   address bits 44..46, so a separation check is bit arithmetic on the
   pointer, and the shadow address of a private byte is one OR away. *)

type kind =
  | Default (* ordinary program memory: untransformed globals & mallocs *)
  | Read_only
  | Redux
  | Short_lived
  | Private
  | Shadow (* metadata for the private heap; never visible to programs *)
  | Unrestricted
  | Stack (* simulated stack slots; a distinct range so frees are checked *)

let equal_kind (a : kind) b = a = b

let all = [ Default; Read_only; Redux; Short_lived; Private; Shadow; Unrestricted; Stack ]

(* Paper section 5.1: bits 44-46 hold the tag; Private and Shadow were
   chosen to differ in exactly one bit so that
   [shadow_addr = private_addr lor private_shadow_bit]. *)
let tag = function
  | Default -> 0
  | Read_only -> 1
  | Redux -> 2
  | Short_lived -> 3
  | Private -> 4 (* 100b *)
  | Shadow -> 5 (* 101b *)
  | Unrestricted -> 6
  | Stack -> 7

let tag_shift = 44
let tag_bits = 3
let tag_mask = ((1 lsl tag_bits) - 1) lsl tag_shift

(* The single bit distinguishing the private heap from its shadow. *)
let private_shadow_bit = 1 lsl tag_shift

let of_tag = function
  | 0 -> Default
  | 1 -> Read_only
  | 2 -> Redux
  | 3 -> Short_lived
  | 4 -> Private
  | 5 -> Shadow
  | 6 -> Unrestricted
  | 7 -> Stack
  | n -> invalid_arg (Printf.sprintf "Heap.of_tag: %d" n)

let base kind = tag kind lsl tag_shift

(* 16 TB of allocation within any heap, as in the paper. *)
let capacity = 1 lsl tag_shift

let heap_of_addr addr = of_tag ((addr land tag_mask) lsr tag_shift)

let shadow_of_private addr = addr lor private_shadow_bit
let private_of_shadow addr = addr lxor private_shadow_bit

let name = function
  | Default -> "default"
  | Read_only -> "read-only"
  | Redux -> "redux"
  | Short_lived -> "short-lived"
  | Private -> "private"
  | Shadow -> "shadow"
  | Unrestricted -> "unrestricted"
  | Stack -> "stack"
