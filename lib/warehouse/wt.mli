(** Warehouse view-maintenance transactions.

    A [WT_i] bundles the action lists of one VUT row (or, for the Painting
    Algorithm, of a set of mutually dependent rows) so the warehouse applies
    them as one atomic unit. [VS(WT)] — the set of views a transaction
    updates — drives the dependency relation of Section 4.3: [WT_j] depends
    on [WT_i] when [j > i] and their view sets intersect, and dependent
    transactions must commit in submission order. A batched warehouse
    transaction ([BWT]) concatenates several WTs, trading completeness for
    throughput (batching yields only strong consistency, Section 4.3). *)

open Query

type t = {
  rows : int list;
      (** Source transaction ids covered, ascending. A plain SPA
          transaction covers one row; a PA transaction may cover several
          (its [ApplyRows]); a BWT covers the union of its parts. *)
  actions : Action_list.t list;  (** In application order. *)
}

val make : rows:int list -> Action_list.t list -> t

val views : t -> string list
(** [VS(WT)]: distinct views written, in first-occurrence order. *)

val last_row : t -> int
(** Highest covered source transaction id; 0 for an empty transaction. *)

val depends_on : t -> t -> bool
(** [depends_on later earlier] per Section 4.3: view sets intersect. The
    caller supplies submission order; this only tests the intersection. *)

val batch : t list -> t
(** Concatenate into a BWT, preserving order. *)

val action_count : t -> int

val view_delta :
  t -> view:string -> before:Relational.Bag.t -> after:Relational.Bag.t ->
  Relational.Signed_bag.t
(** The exact change a committed transaction made to [view], given the
    view's contents [before] and [after] the commit: the after - before
    counts of just the tuples its delta action lists on [view] touch.
    Only a touched tuple can change count, so this stays exact even
    where applying a delta clamped at zero. A view written by a refresh
    action list may have changed anywhere and is diffed whole. *)

val pp : Format.formatter -> t -> unit
