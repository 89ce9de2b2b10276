(** The retained per-byte reference implementation of the shadow-heap
    metadata operations — the pre-page-index code, kept as an oracle.

    It satisfies the same {!Shadow_sig.module-type-S} signature as the
    optimized [Privateer_runtime.Shadow], so property tests functorize
    over the two and compare their observable effects byte for byte.

    It resolves a page per byte through the generic [Memory] accessors
    and does {b not} maintain the exact per-page timestamp counts or
    the memory's live-in flag, so a machine driven through this module
    must not be handed to the count-driven fast paths
    ([Shadow.reset_interval], checkpoint extraction).  Its
    [reset_interval] rewrites every shadow byte in place. *)

include Shadow_sig.S
