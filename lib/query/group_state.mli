(** Per-group aggregate state: the maintenance algorithm for [Group_by].

    The paper (Section 1.2) singles out aggregate views as needing their
    own maintenance algorithm: the counting rules that maintain SPJ views
    do not apply, because one changed input row changes a whole group's
    output row. Recomputing the touched groups from the view's pre-state
    input costs O(|input|) per transaction whatever the delta's size. A
    {!t} instead keeps, per group key, just enough state that the output
    rows of the touched groups follow from the input delta alone:

    - the group's row count (what [Count] reports);
    - for [Sum]/[Avg] over an [Int] attribute, an exact integer
      accumulator and the count of non-[Null] values;
    - for [Min]/[Max], a value → multiplicity map of the non-[Null]
      values, so deleting the current extreme needs no rescan;
    - for [Sum]/[Avg] over any other attribute type (Float), the group's
      member multiset, refolded in {!Bag} order on output — float
      addition is not associative, and the output must stay bit-identical
      to a recompute.

    A group's output row is always bit-identical to {!refold} over its
    members (see the module implementation for the argument). [Avg] over
    [Int] is the one refinement: its float total equals the integer
    accumulator only while partial sums stay below 2{^53}, so a group
    holding a value of magnitude above 2{^26} (or 2{^27} non-[Null]
    values) is {e wide} and refolds its members too, fetching them once
    from the pre-state input when it first needs them.

    The table is mutable and owned by exactly one caller at a time — a
    view manager, beside the replica it advances in order. Deltas must be
    exact: every deleted input row is present (the invariant the rest of
    incremental maintenance relies on too). *)

open Relational

type agg =
  | Count
  | Sum of int  (** Input position. *)
  | Avg of int
  | Min of int
  | Max of int

type spec
(** A compiled aggregation: group-key positions in the input, the
    aggregates, and how each is maintained. *)

val spec : key_pos:int array -> aggs:(agg * Value.ty) array -> spec
(** [aggs] pairs each aggregate with its input attribute's type ([Count]
    ignores it); the type decides between an integer accumulator and a
    refold. *)

val refold : agg -> Bag.t -> Value.t
(** The aggregate recomputed over a whole group's contents
    (multiplicities respected, in {!Bag} order): [Null]s are skipped by
    Sum/Avg/Min/Max and counted by Count, and an all-[Null] group yields
    [Null]. The reference that every maintained output equals.
    @raise Relation.Type_error for Sum/Avg over a non-numeric value. *)

type t

val of_bag : spec -> Bag.t -> t
(** Every group of the given input contents. *)

val seed : spec -> affected:Signed_bag.t -> Bag.t -> t
(** A transient state holding only the groups whose key occurs in
    [affected], from one scan of the input contents — what a caller
    without a maintained state runs {!step} on. *)

val step : ?pre_input:(unit -> Bag.t) -> t -> Signed_bag.t -> Signed_bag.t
(** [step t d_in] advances [t] by the input delta [d_in] and returns the
    output delta: for every touched group, its old output row retracted
    and its new one inserted (the two cancel when equal). The single
    routine that emits group retract/insert rows. [pre_input] supplies
    the pre-state input contents, scanned at most once and only when a
    wide [Avg] group must refold members it does not hold.
    @raise Invalid_argument when such a group exists and [pre_input] is
    absent. *)

val rows : t -> Bag.t
(** The output relation: one row per group. *)

val group_count : t -> int

val equal : t -> t -> bool
(** Same groups with the same counts and accumulators (and, for refolded
    aggregates, the same members). *)
