(** Incremental view maintenance: exact signed-bag delta rules.

    Given the database state *before* a batch of base-data changes and the
    signed delta of each changed base relation, [eval] computes the signed
    delta of an algebra expression, satisfying

    {[ apply (delta pre changes e) (eval_bag pre e) = eval_bag post e ]}

    where [post] is [pre] with the changes applied. This is the standard
    counting algorithm for bag SPJ-U views (Griffin-Libkin style, reference
    [3] of the paper); view managers use it for their delta computation. *)

open Relational

type changes
(** Signed deltas per base relation. *)

val no_changes : changes

val changes_of_list : (string * Signed_bag.t) list -> changes
(** Later entries for the same relation are summed. *)

val of_update : Update.t -> changes

val of_transaction : Update.Transaction.t -> changes

val of_transactions : Update.Transaction.t list -> changes
(** Combined delta of a batch of transactions applied in order. The batch
    delta is the sum of per-transaction deltas, which is exact for
    signed bags. *)

val change_for : changes -> string -> Signed_bag.t

val changed_relations : changes -> string list

val eval :
  ?naive:bool ->
  ?exec:Parallel.Exec.t ->
  pre:Database.t ->
  changes ->
  Algebra.t ->
  Signed_bag.t
(** The signed delta of the expression. By default the expression is
    compiled (memoized) and the join delta-rules run as hash joins on
    precomputed key positions; [~naive:true] selects the interpreted
    reference rules with nested-loop joins. A pooled [exec] shards large
    joins across domains; the result is identical.
    @raise Database.Unknown_relation if the expression mentions a base
    relation absent from [pre]. *)

val eval_plan :
  ?exec:Parallel.Exec.t ->
  ?state:Compiled.state ->
  ?pre_index:(string -> key_pos:int array -> Bag_index.t option) ->
  pre:Database.t ->
  changes ->
  Compiled.t ->
  Signed_bag.t
(** Delta of an already-compiled plan — what view managers use, compiling
    their definition once at creation instead of per transaction.
    [state] is the manager's maintained plan state for [plan] —
    aggregate groups and join-side indexes, seeded by {!Compiled.state}
    from its initial replica; the call advances it from [pre] to the
    post-state. [pre_index] is forwarded
    to {!Compiled.delta}: a returned index over a base relation's
    pre-state turns that relation's join rules into pure probes. *)

val relevant : changes -> Algebra.t -> bool
(** True when some changed relation appears in the expression. A cheap
    syntactic test; see {!Irrelevance} for the semantic refinement. *)
