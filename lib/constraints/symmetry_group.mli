(** Symmetry groups (survey §II).

    A symmetry group collects cells that must be placed mirror-
    symmetrically about a common vertical axis: [pairs] of distinct
    cells that mirror each other, and [selfs] — self-symmetric cells
    centered on the axis. *)

type t = { name : string; pairs : (int * int) list; selfs : int list }

val make : ?name:string -> pairs:(int * int) list -> selfs:int list -> unit -> t
(** Validates that no cell occurs twice (across pairs and selfs) and
    that pairs relate distinct cells. *)

val members : t -> int list
(** All cells of the group. *)

val cardinal : t -> int
(** [2*p + s]: the count entering the search-space lemma. *)

val shared_cell : t list -> int option
(** The first cell, in list order, that belongs to two of the groups;
    [None] when the groups are disjoint, as every symmetric placer
    requires. *)

val mem : t -> int -> bool

val sym : t -> int -> int option
(** [sym g c] is the symmetric counterpart of [c]: its partner for a
    paired cell, [c] itself for a self-symmetric cell, [None] if [c] is
    not in the group. *)

val signature : t -> string
(** Canonical rendering for cache fingerprints: pairs normalized
    smaller-index-first and sorted, selfs sorted, the group name
    excluded. Two groups imposing the same mirror obligations render
    identically however their pairs are listed; any membership change
    renders differently (the QCheck fingerprint-stability property
    pins both directions down). *)

val of_hierarchy : Netlist.Hierarchy.t -> t list
(** Extract flat symmetry groups from the [Symmetry] nodes of a
    hierarchy. Within a symmetry node, direct leaf children pair up
    consecutively with a trailing odd leaf self-symmetric; two-leaf
    child symmetry nodes contribute their leaves as a pair; any other
    child node is ignored here (it forms a self-symmetric island handled
    by the hierarchical placers). Nested symmetry nodes yield their own
    groups as well. On a hierarchy where every leaf occurs once
    ({!Netlist.Hierarchy.validate}) the groups are disjoint: a leaf
    joins only the group of its symmetry parent, or of its symmetry
    grandparent through a two-leaf child, whose own group is then
    dropped as covered. *)

val pp : Format.formatter -> t -> unit
