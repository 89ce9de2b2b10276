(** Logical heaps and their address-tag encoding (paper sections 3.2
    and 5.1).

    Each heap occupies a fixed virtual address range identified by a
    3-bit tag in address bits 44–46, so a separation check is bit
    arithmetic on the pointer, and the shadow address of a private
    byte is one OR away ([Private] and [Shadow] differ in one bit). *)

type kind =
  | Default  (** ordinary program memory (untransformed) *)
  | Read_only
  | Redux  (** reduction accumulators *)
  | Short_lived  (** objects confined to one iteration *)
  | Private
  | Shadow  (** privacy metadata; never program-visible *)
  | Unrestricted
  | Stack  (** simulated stack slots *)

val equal_kind : kind -> kind -> bool

val all : kind list

(** The 3-bit tag (0–7); [Private] = 4 = [0b100], [Shadow] = 5. *)
val tag : kind -> int

val tag_shift : int
val tag_bits : int
val tag_mask : int

(** The single bit distinguishing private from shadow addresses. *)
val private_shadow_bit : int

(** @raise Invalid_argument outside 0–7. *)
val of_tag : int -> kind

(** Lowest address of the heap's range. *)
val base : kind -> int

(** 16 TB per heap, as in the paper. *)
val capacity : int

val heap_of_addr : int -> kind

(** The separation check: does [addr] carry [kind]'s tag?  A few
    instructions at runtime. *)
val check : int -> kind -> bool

val shadow_of_private : int -> int
val private_of_shadow : int -> int

(** Human-readable name ("short-lived", "read-only", ...). *)
val name : kind -> string
