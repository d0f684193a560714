(** Log-bucketed histograms.

    Fixed geometric buckets (base [2^(1/4)], ~19% wide), so recording
    is an O(1) array increment, merging two histograms is a bucket-wise
    add — associative and commutative, which is what lets per-domain
    histograms be combined in any order — and quantiles read back
    within ~9% relative error. Quantiles delegate to
    {!Prelude.Stats.quantile_weighted} over (bucket representative,
    bucket count) pairs: the one percentile implementation in the
    repository. Observing on {!null} is a no-op costing one branch. *)

type t

val null : t
(** The dead histogram: [observe] on it does nothing. Shared. *)

val make : string -> t
(** A fresh live histogram. Normally obtained via {!Sink.histogram}. *)

val name : t -> string
val live : t -> bool

val observe : t -> float -> unit
(** Record one value. Non-positive values are kept in a dedicated zero
    bucket (they still count towards [count]/[sum]/[min_value]). *)

val count : t -> int
val sum : t -> float
val mean : t -> float
val min_value : t -> float
(** Exact minimum observed (0 when empty). *)

val max_value : t -> float
(** Exact maximum observed (0 when empty). *)

val quantile : t -> float -> float
(** [quantile t q] — linearly interpolated quantile over the bucketed
    distribution, clamped to [[min_value t, max_value t]]; within the
    bucket resolution of the exact sample quantile. 0 when empty. *)

val merge : t -> t -> unit
(** [merge dst src] adds [src]'s distribution into [dst]. Bucket-wise,
    so merging any number of histograms is associative and
    order-independent (tested). No-op when either side is dead. *)
