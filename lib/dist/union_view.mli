(** Cross-shard union views.

    Each leg is an ordinary materialized view living on some shard. The
    union's contents are {e maintained}: seeded once by {!stitch} over
    the shards' initial states, then advanced by every shard commit that
    writes a leg ({!commit}), so a read at the latest version vector
    (see {!Global_cut}) serves them in O(1) instead of re-stitching the
    legs. {!stitch} stays as the oracle that recomputes the contents at
    any cut. Legs must be union-compatible (identical schemas) — the
    multi-tenant workload guarantees this by giving same-kind
    per-tenant views the same attribute names. *)

type t = {
  name : string;
  legs : (int * string) list;
      (** (shard id, leg view name), ascending by shard then input
          order. *)
}

val make : name:string -> assignment:(string -> int) -> string list -> t
(** [make ~name ~assignment legs] places each leg view on its assigned
    shard. @raise Invalid_argument on an empty leg list. *)

val shards : t -> int list
(** Distinct shards holding at least one leg, ascending. *)

val stitch : t -> state_of:(int -> Relational.Database.t) -> Relational.Bag.t
(** Bag-union of every leg's contents, reading each leg from
    [state_of shard] — the warehouse state vector the cut pinned for
    that shard. *)

type maintained
(** A union's contents kept current across shard commits. *)

val maintain : t -> state_of:(int -> Relational.Database.t) -> maintained
(** Seed the contents by {!stitch} over the shards' current states. *)

val union : maintained -> t

val contents : maintained -> Relational.Bag.t
(** The contents as of every commit applied so far: equal to {!stitch}
    over the states those commits produced. O(1). *)

val commit :
  maintained ->
  shard:int ->
  pre:Relational.Database.t ->
  post:Relational.Database.t ->
  Warehouse.Wt.t ->
  unit
(** Advance the contents by one commit of [shard] that took its state
    from [pre] to [post]: for every leg on [shard] the transaction
    writes, add that leg's {!Warehouse.Wt.view_delta} (once per
    occurrence among the legs). O(|delta| log n). *)
