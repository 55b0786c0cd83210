(** Compiled query plans: the positional, hash-based evaluation kernel.

    An {!Algebra.t} names attributes by string; evaluating it directly pays
    a schema name search per attribute {e per tuple}. Compilation resolves
    every name to an integer position once — select predicates become
    position comparisons, projections become position arrays, joins carry
    precomputed key/extra-column positions — and evaluation then runs
    positionally, with joins executed as build-on-smaller hash joins
    ({!Relational.Bag_index}). [Rename] nodes compile away entirely.

    {!Eval} and {!Delta} use this layer by default; their [~naive:true]
    paths keep the original interpreted kernels as the reference
    implementation for equivalence tests and the micro-bench ablation. *)

open Relational

type t
(** A compiled plan; carries its output schema at every node. *)

val compile : lookup:(string -> Schema.t) -> Algebra.t -> t
(** Resolve every attribute of the expression against the base-relation
    schemas supplied by [lookup]. Raises the same exceptions as
    {!Algebra.schema_of} on ill-typed expressions (unknown attributes,
    incompatible unions, conflicting join types). *)

val compile_memo : lookup:(string -> Schema.t) -> Algebra.t -> t
(** Like {!compile} but memoized on the physical identity of the
    expression, so a view manager evaluating the same definition per
    transaction compiles it once. Hits are revalidated against the current
    base-relation schemas and recompiled on mismatch. The memo is sharded
    by structural hash with one lock per shard, so concurrent domains
    compiling different expressions rarely serialize; {!Canon.intern}ed
    expressions share one physical key and therefore one plan. *)

val memo_contention : unit -> int
(** Process-wide count of contended memo-shard lock acquisitions (a
    [try_lock] that failed before blocking). {!Whips.Metrics} snapshots
    it around a run. *)

val kernel_rows : unit -> int
(** Process-wide count of rows scanned by the hash-join kernel: build +
    probe side of every full join, probe side only for the prebuilt-index
    delta paths. The shared-plan bench diffs it around a run as its
    delta-evaluation work metric. *)

val schema : t -> Schema.t

val eval : ?exec:Parallel.Exec.t -> Database.t -> t -> Relation.t

val eval_bag : ?exec:Parallel.Exec.t -> Database.t -> t -> Bag.t
(** @raise Database.Unknown_relation if a base relation is missing.
    With a pooled [exec], large joins run sharded (see
    {!join_counted_pos}); results are identical. *)

type state
(** The maintained state of a plan: one {!Group_state.t} per [Group_by]
    node, and per [Join] node one {!Bag_index.t} over each side's output,
    keyed on that side's join-key positions. Mutable, owned by one caller
    at a time — a view manager keeps it beside the replica it advances
    in order. *)

val state : ?exec:Parallel.Exec.t -> Database.t -> t -> state
(** Seed the state of every [Group_by] and [Join] node from a database
    state, in one pass over the plan (each node's inputs evaluated once).
    Empty for a plan with neither. *)

val no_state : state
(** The state of a plan kept stateless. *)

val state_equal : state -> state -> bool
(** Same nodes, each with {!Group_state.equal} aggregate state and
    {!Bag_index.equal} side indexes. *)

val delta :
  ?exec:Parallel.Exec.t ->
  ?state:state ->
  ?pre_index:(string -> key_pos:int array -> Bag_index.t option) ->
  ?pre_relation:(string -> Relation.t option) ->
  changes:(string -> Signed_bag.t) ->
  eval_pre:(t -> Bag.t) ->
  t ->
  Signed_bag.t
(** Signed delta of a compiled plan: [changes] supplies the per-base signed
    deltas and [eval_pre] evaluates sub-plans over the pre-state (the
    caller decides how — {!Delta} passes [eval_bag pre]). Join rules run as
    hash joins on the plan's precomputed key positions, and a rule's
    pre-state side is only evaluated when the matching delta side is
    non-empty.

    [state], when it was seeded for this plan and advanced through
    exactly the deltas up to the pre-state [eval_pre] reads, makes the
    call O(|delta|) in the pre-state size at every node it covers, and
    advances the state to the post-state:
    - each [Join] rule's [dA |><| B_pre] and [A_pre |><| dB] become pure
      probes of the node's side indexes, which then advance in place
      ({!Bag_index.apply_signed}) by the side deltas the rule computed;
    - each [Group_by] rule costs O(|input delta| + touched groups):
      {!Group_state.step} reads and updates only the touched groups.
    Without it, each [Group_by] rule seeds a transient state for just the
    touched groups from one scan of its pre-state input and runs the
    same step, and each [Join] rule falls back to the options below.

    The remaining parameters are the stateless callers' path ({!Delta.eval},
    the shared-plan engine, result-cache refresh) and are ignored at a
    [Join] node the state covers.

    [pre_index name ~key_pos], when it returns a hash index over [name]'s
    pre-state keyed at [key_pos], turns the join rules whose pre-state
    side is that base relation into pure probes of the existing index —
    O(|delta|) instead of evaluating and indexing the pre-state. The
    index must be consistent with what [eval_pre] would return for
    [Base name]. The shared-plan engine supplies it for materialized
    intermediates; by default no index is offered.

    [pre_relation name], when it returns [name]'s pre-state relation,
    lets the join rules fall back to the relation's own memoized
    int-keyed index ({!Relation.index}) for sides that are base
    relations — or selections pushed down onto base relations, whose
    predicate is then applied as a filter on the probe matches. The
    index is cached on the relation record, which every update replaces,
    so this costs one index build per version. Only consulted when
    columnar kernels are enabled ({!Columnar.enabled}). *)

val join_counted_pos :
  ?exec:Parallel.Exec.t ->
  key_left:int array ->
  key_right:int array ->
  right_extra:int array ->
  (Tuple.t * int) list ->
  (Tuple.t * int) list ->
  (Tuple.t * int) list
(** Hash join of counted tuple collections on precomputed positions: a hash
    index is built on the smaller side and probed with the larger, so cost
    is O(|smaller| + |larger| + |output|) with no per-pair name resolution.
    Multiplicities multiply and may be negative (signed-delta joins).
    Output tuples are the left tuple followed by the right side's
    [right_extra] columns.

    With a pooled [exec] and at least {!Parallel.shard_threshold} total
    input rows, both sides are hash-partitioned by join key into the
    policy's shard count and the per-shard joins run across domains;
    per-shard results are concatenated in shard order. Since equal keys
    land in the same shard, the output is the same {e bag} of counted
    tuples as the sequential join (list order differs; all callers
    normalize through [Bag]/[Signed_bag]). *)

(** {2 Aggregate reference} *)

val aggregate_group :
  input_schema:Schema.t ->
  group:Algebra.group_by ->
  key:Tuple.t ->
  Bag.t ->
  Tuple.t
(** [aggregate_group ~input_schema ~group ~key contents] computes the
    output row of one group: the key values followed by each aggregate
    refolded over [contents] ({!Group_state.refold}). The interpreted
    reference paths ({!Eval}'s and {!Delta}'s [~naive:true]) use it. *)
