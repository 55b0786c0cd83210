(** Hash index over counted tuples, keyed by a projected position list.

    The probe side of a hash join, group-by partitioning, and view-store
    membership checks all need "every (tuple, count) whose key columns equal
    [k]" in O(1) expected time. An index is built once per operator
    invocation from the build side's counted tuples; keys are positional
    projections ({!Tuple.project_pos}), so no attribute-name resolution
    happens per tuple. Counts pass through untouched and may be negative
    (signed deltas index fine). *)

type t

val of_counted : key_pos:int array -> (Tuple.t * int) list -> t
(** Zero-count entries are dropped. *)

val of_bag : key_pos:int array -> Bag.t -> t

val find : t -> Tuple.t -> (Tuple.t * int) list
(** [find t key] is every indexed entry whose projected key equals [key]
    (which must have arity [Array.length key_pos]); [[]] when none. *)

val fold_ids : t -> int array -> (Tuple.t -> int -> 'a -> 'a) -> 'a -> 'a
(** [fold_ids t ids f acc] folds [f] over every live entry whose key
    columns intern to exactly [ids] — the allocation-free probe the
    compiled delta rules use: the key never exists as a boxed tuple. *)

val find_matching : t -> Tuple.t -> (Tuple.t * int) list
(** [find_matching t tup] projects [tup] through the index's own [key_pos]
    and looks the result up — for probes whose tuples share the build side's
    schema. When the probe side has a different schema, project its key with
    that side's positions and use {!find}. *)

val groups : t -> (Tuple.t * (Tuple.t * int) list) list
(** All (key, entries) groups, unordered. *)

val n_keys : t -> int

val apply_signed : t -> Signed_bag.t -> unit
(** [apply_signed t delta] edits the index in place so it indexes
    [Signed_bag.apply delta b] whenever it previously indexed [b] (the
    delta must apply exactly — counts that sum to zero are dropped, and
    net-negative counts would be recorded as-is). Lets a long-lived index
    over a maintained intermediate ride through updates instead of being
    rebuilt per batch. Bucket order is not preserved; consumers must not
    depend on entry order (join results are canonicalized into bags).
    An empty delta returns immediately without allocating.

    Counts that reach exactly zero become tombstones, and a tombstone
    revives when its tuple is re-inserted; once tombstones
    are at least half of the stored rows (and the index is non-trivial)
    the index compacts in place — live entries and probe results are
    unchanged, but row and slot storage stays proportional to the live
    population under churn instead of growing forever. *)

val equal : t -> t -> bool
(** Same key positions and the same live (tuple, count) entries —
    regardless of row order, tombstones or slot-table size. An index
    advanced by {!apply_signed} equals one built fresh from the bag it
    now indexes. *)

type occupancy = {
  rows : int;  (** Stored rows, tombstones included. *)
  live : int;
  tombstones : int;
  slots : int;  (** Physical slot-table size (power of two). *)
}

val occupancy : t -> occupancy
(** Storage accounting, for the churn tests pinning bounded growth. *)
