(** IOMMU model backing shared virtual addressing (SVA).

    Guest buffers are mapped into a device IOVA window once (per-page
    pin cost); remoted calls then carry fixed-size [(iova, size)]
    references instead of payload bytes.  The first device access to a
    mapping pays an IO page fault; invalidation pays an IOTLB
    shootdown — zero-copy is cheaper than copying, not free.  Costs are
    charged with [Engine.delay], so [map]/[translate]/[quiesce] must
    run inside a simulation process. *)

val iova_base : int64
val iova_limit : int64
(** Valid IOVA window [\[iova_base, iova_limit)].  References outside it
    are rejected at wire-decode time and by {!translate}. *)

type t

val create : ?timing:Timing.iommu -> unit -> t
val timing : t -> Timing.iommu

val map : t -> bytes -> int64
(** Pin the buffer's pages and install a translation; returns the IOVA.
    @raise Failure if the IOVA window is exhausted. *)

val translate : t -> iova:int64 -> size:int -> (bytes, string) result
(** Resolve a device access: exact-base, in-bounds references return the
    pinned backing bytes (first touch pays the fault cost); anything
    else is an [Error] the server maps to a bad-arguments status. *)

val quiesce : t -> unit
(** One batched shootdown over the whole address space; every mapping
    refaults on next access.  Used when a VM migrates devices. *)

val release_all : t -> unit
(** Tear down every mapping: one batched shootdown, then unpin all
    pages ({!mappings} drops to 0).  Used when a VM
    retires; idempotent, and free on an empty address space.  Must run
    inside a simulation process. *)

(** {1 Counters} *)

val maps : t -> int
val mappings : t -> int
