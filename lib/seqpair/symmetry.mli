(** Symmetric-feasible sequence-pairs (survey §II, refs [13], [2], [3]).

    A sequence-pair [(alpha, beta)] is {e symmetric-feasible} (S-F) for
    a symmetry group when for any two distinct group cells [x], [y]:

    {v alpha^-1(x) < alpha^-1(y)  <=>  beta^-1(sym y) < beta^-1(sym x) v}

    (property (1) of the survey) — equivalently, the group members
    appear in [beta] exactly in the reverse [alpha]-order of their
    symmetric counterparts. S-F codes admit packings in which every
    group is exactly mirror-symmetric about a common vertical axis. *)

type group = Constraints.Symmetry_group.t

val is_feasible : Sp.t -> group -> bool
(** Property (1) for one group. *)

val is_feasible_all : Sp.t -> group list -> bool

val count_upper_bound : n:int -> group list -> int
(** The survey's Lemma: [(n!)^2 / prod (2 p_k + s_k)!]. Raises
    [Invalid_argument] whenever an intermediate factorial or the bound
    itself overflows 63-bit integers: without groups this happens for
    [n > 12], and with group cardinalities up to 15 every [n > 17]
    overflows while [n = 17] with a cardinality-15 group still fits
    (the boundary the tests pin). *)

val count_exhaustive : n:int -> group list -> int
(** Exact count of S-F sequence-pairs by enumerating all [(n!)^2]
    codes. Feasible up to n = 7 (a few seconds); intended for
    validating the Lemma. *)

val make_feasible : Sp.t -> group list -> Sp.t
(** Minimal repair: reorder each group's members within [beta] to the
    order property (1) dictates. [alpha] and the [beta]-positions used
    by each group are preserved. *)

val random_feasible : Prelude.Rng.t -> n:int -> group list -> Sp.t
(** A uniformly random [alpha] and [beta] repaired by
    {!make_feasible}. *)

type scratch
(** Reusable workspace of the symmetric packer (Fenwick tree, group
    tables, island and reduced-code buffers), valid for any
    sequence-pair of size at most its capacity. *)

val scratch : int -> scratch
(** [scratch n] — workspace for circuits of up to [n] cells. *)

val pack_symmetric :
  Sp.t ->
  Pack.dims ->
  group list ->
  (Geometry.Transform.placed list, string) result
(** Build a packing that satisfies every symmetry group {e exactly}:
    symmetric pairs mirror about their group's common vertical axis at
    equal [y]; self-symmetric cells are centered on it. Groups must be
    disjoint (as {!Analysis.Lint} requires; see
    {!Constraints.Symmetry_group.shared_cell}).

    The packer first runs a coupled constraint-graph fixpoint:
    longest-path lower bounds alternate with per-group axis lifting
    until stable. Each pass is a Fenwick prefix-max sweep, O(n log n).
    The y part runs first, at most P + 2 changing passes for P pairs:
    its difference constraints reach their least solution within
    P + 1, so a pass P + 2 that still changes proves divergence. The x
    part runs at most [10 (n + groups) + 21] changing passes, and a run
    whose axis passes [max_int / 8] is declared diverged at once. When
    either part diverges, the packer falls back to segregation: every
    group is packed as a symmetry island from its own
    sub-sequence-pair (or, should that diverge too, as stacked rows),
    and the islands are packed as super-cells with the free cells. The
    fallback is common, not rare: over 2000 random symmetric-feasible
    codes (rng seed 7) it is taken by 15% on Miller V2, 14% on the
    folded cascode, 50% on Buffer, 81% on biasynth and 91% on
    lnamixbias.

    Self-symmetric cells whose width parity disagrees with the group
    axis are padded by one grid unit so the axis falls on the integer
    half-grid (documented substitution; pads are visible in the
    returned widths). The right-hand cell of each pair is placed with
    orientation [MY].

    Errors if the code is not symmetric-feasible, a pair's cells differ
    in size or are vertically related, or a cell is in two groups. *)

val pack_symmetric_into :
  ?scratch:scratch ->
  ?fallbacks:Telemetry.Counter.t ->
  x:int array ->
  y:int array ->
  w:int array ->
  h:int array ->
  Sp.t ->
  Pack.dims ->
  group list ->
  (unit, string) result
(** Buffer variant of {!pack_symmetric}, the annealing arena's hot
    path: fills [w]/[h] from [dims] (self-symmetric widths may come
    back padded, as documented above) and writes the packed
    coordinates into [x]/[y], all indexed by cell. {!pack_symmetric}
    is a wrapper over it. With [scratch] nothing cell-sized is
    allocated per pack; without, a fresh one is made. [fallbacks]
    (default {!Telemetry.Counter.null}) is bumped once per segregated
    fallback — {!Placer.Eval} passes its [symmetry.fallback] counter. *)

val axis2_of : Geometry.Transform.placed list -> group -> int option
(** The doubled axis the group actually sits on, if it is symmetric. *)
