(** A self-maintenance plan: the auxiliary relations of one view plus
    the compiled machinery to probe and advance them.

    The plan is immutable; the auxiliary {e state} is a plain
    {!Database.t} threaded by the caller (the view manager, or the
    crash-recovery replay), so snapshots for in-flight delta futures
    and WAL checkpoints are pointer copies. *)

open Relational

type t

val create : initial:Database.t -> Query.View.t -> t
(** Derive the auxiliaries ({!Derive.analyze}) from the view definition
    against [initial]'s full base schemas, build the projected initial
    replicas, and compile the definition against the projected
    schemas. *)

val view : t -> Query.View.t

val auxes : t -> Derive.aux list

val initial_cache : t -> Database.t
(** The auxiliary state at source state [ss_0]: one relation per base
    relation of the view, full replicas shared by pointer with
    [initial], keyed projections materialized. *)

val project : t -> Query.Delta.changes -> Query.Delta.changes
(** Restrict a transaction's base-data changes to the view's base
    relations and project each one onto its live attributes — the only
    transformation between the update stream and the local probe. *)

val state : ?exec:Parallel.Exec.t -> t -> Database.t -> Query.Compiled.state
(** Seed the view's maintained plan state (aggregate groups and join-side
    indexes) from an auxiliary state (see {!Query.Compiled.state}). *)

val delta :
  ?exec:Parallel.Exec.t ->
  ?state:Query.Compiled.state ->
  t ->
  pre:Database.t ->
  Query.Delta.changes ->
  Signed_bag.t
(** The view's maintenance delta, computed entirely from the auxiliary
    pre-state and the (already {!project}ed) changes — no source
    access. Equals {!Query.Delta} over the full base data (see
    {!Derive}). [state], seeded by {!state} and advanced through every
    earlier delta, is advanced to the post-state. *)

val advance : t -> Database.t -> Query.Delta.changes -> Database.t
(** Apply (already {!project}ed) changes to the auxiliary state. *)

type storage = {
  aux_rows : int;  (** rows across all auxiliary relations at [ss_0] *)
  aux_cells : int;  (** rows x live arity: what self-maintenance stores *)
  replica_rows : int;  (** rows a full-replica cache would hold *)
  replica_cells : int;  (** cells a full-replica cache would hold *)
}

val storage : t -> storage
(** Storage cost of the auxiliaries vs. the full-replica alternative
    ({!Viewmgr.Complete_vm}'s cache), measured at the initial state. *)

val pp : Format.formatter -> t -> unit
