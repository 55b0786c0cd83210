open Relational

(* Compiled query plans: every attribute name in an algebra expression is
   resolved to an integer position exactly once, at compile time. Evaluation
   and delta computation then run purely positionally — array indexing, hash
   probes — instead of searching schema name lists per tuple. Joins carry
   precomputed key positions for both sides plus the positions of the right
   side's non-shared columns, so a joined output tuple is one [Array.append]
   and key extraction is one [Tuple.project_pos]. *)

type operand = O_pos of int | O_const of Value.t

type pred =
  | P_true
  | P_false
  | P_cmp of Pred.cmp * operand * operand
  | P_and of pred * pred
  | P_or of pred * pred
  | P_not of pred

type t = { node : node; schema : Schema.t }

and node =
  | Base of string
  | Select of pred * t
  | Project of int array * t
  | Join of join
  | Union of t * t
  | Group_by of group

and join = {
  left : t;
  right : t;
  key_left : int array;  (* shared-attribute positions in the left schema *)
  key_right : int array; (* same attributes, positions in the right schema *)
  right_extra : int array; (* right-side positions of non-shared columns *)
}

and group = { input : t; spec : Group_state.spec }

let schema t = t.schema

(* Predicate compilation: attribute operands become positions. *)

let compile_operand schema = function
  | Pred.Attr name -> O_pos (Schema.index_of schema name)
  | Pred.Const v -> O_const v

let rec compile_pred schema (p : Pred.t) =
  match p with
  | Pred.True -> P_true
  | Pred.False -> P_false
  | Pred.Cmp (cmp, x, y) ->
    P_cmp (cmp, compile_operand schema x, compile_operand schema y)
  | Pred.And (a, b) -> P_and (compile_pred schema a, compile_pred schema b)
  | Pred.Or (a, b) -> P_or (compile_pred schema a, compile_pred schema b)
  | Pred.Not a -> P_not (compile_pred schema a)

let operand_value tup = function O_pos i -> Tuple.get tup i | O_const v -> v

let rec eval_pred p tup =
  match p with
  | P_true -> true
  | P_false -> false
  | P_cmp (cmp, x, y) ->
    Pred.cmp_holds cmp (operand_value tup x) (operand_value tup y)
  | P_and (a, b) -> eval_pred a tup && eval_pred b tup
  | P_or (a, b) -> eval_pred a tup || eval_pred b tup
  | P_not a -> not (eval_pred a tup)

(* Plan compilation. [Rename] changes only the schema, never the tuples, so
   it compiles away entirely: the renamed schema propagates upward and the
   child plan is used directly. *)

let rec compile ~lookup (expr : Algebra.t) =
  match expr with
  | Algebra.Base name -> { node = Base name; schema = lookup name }
  | Algebra.Select (pred, e) ->
    let child = compile ~lookup e in
    (* Resolve every predicate attribute now: ill-typed view definitions
       fail at compile time, matching Algebra.schema_of. *)
    { node = Select (compile_pred child.schema pred, child);
      schema = child.schema }
  | Algebra.Project (names, e) ->
    let child = compile ~lookup e in
    { node = Project (Schema.positions child.schema names, child);
      schema = Schema.project child.schema names }
  | Algebra.Join (a, b) ->
    let left = compile ~lookup a and right = compile ~lookup b in
    let shared = Schema.common left.schema right.schema in
    let schema = Schema.join left.schema right.schema in
    let right_extra =
      Schema.positions right.schema
        (List.filter
           (fun n -> not (Schema.mem left.schema n))
           (Schema.names right.schema))
    in
    { node =
        Join
          { left; right;
            key_left = Schema.positions left.schema shared;
            key_right = Schema.positions right.schema shared;
            right_extra };
      schema }
  | Algebra.Union (a, b) ->
    let left = compile ~lookup a and right = compile ~lookup b in
    if not (Schema.equal left.schema right.schema) then
      invalid_arg "Algebra.schema_of: union of incompatible schemas";
    { node = Union (left, right); schema = left.schema }
  | Algebra.Rename (mapping, e) ->
    let child = compile ~lookup e in
    { child with schema = Schema.rename child.schema mapping }
  | Algebra.Group_by { keys; aggregates; input } ->
    let child = compile ~lookup input in
    let key_attrs =
      List.map (fun k -> (k, Schema.type_of child.schema k)) keys
    in
    let agg_attr (name, agg) =
      let ty =
        match (agg : Algebra.aggregate) with
        | Algebra.Count -> Value.Int_ty
        | Algebra.Sum a | Algebra.Min a | Algebra.Max a ->
          Schema.type_of child.schema a
        | Algebra.Avg _ -> Value.Float_ty
      in
      (name, ty)
    in
    let out_schema = Schema.make (key_attrs @ List.map agg_attr aggregates) in
    let agg_of (_, a) =
      let typed n = Schema.type_of child.schema n in
      let pos n = Schema.index_of child.schema n in
      match (a : Algebra.aggregate) with
      | Algebra.Count -> (Group_state.Count, Value.Int_ty)
      | Algebra.Sum n -> (Group_state.Sum (pos n), typed n)
      | Algebra.Avg n -> (Group_state.Avg (pos n), typed n)
      | Algebra.Min n -> (Group_state.Min (pos n), typed n)
      | Algebra.Max n -> (Group_state.Max (pos n), typed n)
    in
    { node =
        Group_by
          { input = child;
            spec =
              Group_state.spec
                ~key_pos:(Schema.positions child.schema keys)
                ~aggs:(Array.of_list (List.map agg_of aggregates)) };
      schema = out_schema }

(* ------------------------------------------------------------------ *)
(* Aggregate reference (the interpreted path's group kernel).         *)

let aggregate_group ~input_schema ~group ~key contents =
  let pos = Schema.index_of input_schema in
  let agg_of = function
    | Algebra.Count -> Group_state.Count
    | Algebra.Sum a -> Group_state.Sum (pos a)
    | Algebra.Avg a -> Group_state.Avg (pos a)
    | Algebra.Min a -> Group_state.Min (pos a)
    | Algebra.Max a -> Group_state.Max (pos a)
  in
  Tuple.concat key
    (Tuple.of_list
       (List.map
          (fun (_, agg) -> Group_state.refold (agg_of agg) contents)
          group.Algebra.aggregates))

(* ------------------------------------------------------------------ *)
(* Hash join on counted tuple lists.                                  *)

(* Rows scanned by the join kernel, process-wide: build + probe side of
   every full hash join, probe side only when a prebuilt index is used.
   The shared-plan bench diffs this around a run as its work metric. *)
let rows_counter = Atomic.make 0

let kernel_rows () = Atomic.get rows_counter

let count_rows n = ignore (Atomic.fetch_and_add rows_counter n)

(* Join two counted collections on precomputed key positions: build a hash
   index on the smaller side, probe with the larger. Output tuples are
   always [left ++ right_extra] regardless of build direction, and
   multiplicities multiply (either may be negative — signed deltas).
   Zero-count entries are dropped from both sides up front: the index
   treats count-zero rows as dead, so keeping them on the probe side
   only would make the output depend on the build-side choice (which
   differs per shard). *)
let join_counted_seq ~key_left ~key_right ~right_extra left right =
  let live = List.filter (fun ((_ : Tuple.t), n) -> n <> 0) in
  let left = live left and right = live right in
  let nl = List.length left and nr = List.length right in
  if nl = 0 || nr = 0 then []
  else begin
    count_rows (nl + nr);
    let combine acc (ltup, ln) (rtup, rn) =
      (Tuple.concat ltup (Tuple.project_pos right_extra rtup), ln * rn) :: acc
    in
    if nr <= nl then begin
      let index = Bag_index.of_counted ~key_pos:key_right right in
      List.fold_left
        (fun acc (ltup, ln) ->
          List.fold_left
            (fun acc entry -> combine acc (ltup, ln) entry)
            acc
            (Bag_index.find index (Tuple.project_pos key_left ltup)))
        [] left
    end
    else begin
      let index = Bag_index.of_counted ~key_pos:key_left left in
      List.fold_left
        (fun acc (rtup, rn) ->
          List.fold_left
            (fun acc (ltup, ln) -> combine acc (ltup, ln) (rtup, rn))
            acc
            (Bag_index.find index (Tuple.project_pos key_right rtup)))
        [] right
    end
  end

(* Sharded variant: both sides are partitioned by the hash of their join
   key, so matching tuples always land in the same shard and the shards
   join independently (each building its own [Bag_index], on its own
   domain). Per-shard results are concatenated in shard order — the
   output is the same *bag* as the sequential kernel's (callers normalize
   through [Bag]/[Signed_bag], so list order is immaterial), and it is
   deterministic for a fixed shard count. *)
let shard_of ~shards key = Tuple.hash key land max_int mod shards

let partition_by ~shards ~key_pos entries =
  let parts = Array.make shards [] in
  List.iter
    (fun ((tup, _) as entry) ->
      let s = shard_of ~shards (Tuple.project_pos key_pos tup) in
      parts.(s) <- entry :: parts.(s))
    entries;
  parts

let join_counted_pos ?(exec = Parallel.Exec.sequential) ~key_left ~key_right
    ~right_extra left right =
  let shards = Parallel.Exec.shards exec in
  if
    shards <= 1
    || List.compare_lengths left [] = 0
    || List.compare_lengths right [] = 0
    || List.length left + List.length right < Parallel.shard_threshold
  then join_counted_seq ~key_left ~key_right ~right_extra left right
  else begin
    let lparts = partition_by ~shards ~key_pos:key_left left in
    let rparts = partition_by ~shards ~key_pos:key_right right in
    let pairs = List.init shards (fun s -> (lparts.(s), rparts.(s))) in
    List.concat
      (Parallel.Exec.map exec
         (fun (l, r) -> join_counted_seq ~key_left ~key_right ~right_extra l r)
         pairs)
  end

(* ------------------------------------------------------------------ *)
(* Columnar kernels: predicate compilation over value ids and the     *)
(* sharded columnar hash join.                                        *)

(* A compiled predicate specialized to a chunk: a closure from row
   index to bool, reading value ids straight out of the column arrays.
   Equality tests are id comparisons (interning is injective); ordered
   comparisons compare int-tagged ids directly and decode otherwise.
   Null keeps the {!Pred.cmp_holds} semantics: false on either side,
   except [Ne]. *)
let col_operand chunk = function
  | O_pos p -> fun row -> Columnar.get chunk p row
  | O_const v ->
    let id = Value.intern v in
    fun _ -> id

let rec col_pred chunk p : int -> bool =
  match p with
  | P_true -> fun _ -> true
  | P_false -> fun _ -> false
  | P_cmp (cmp, x, y) ->
    let fx = col_operand chunk x and fy = col_operand chunk y in
    let null = Value.null_id in
    (match cmp with
    | Pred.Eq ->
      fun row ->
        let a = fx row and b = fy row in
        a <> null && b <> null && a = b
    | Pred.Ne ->
      fun row ->
        let a = fx row and b = fy row in
        a = null || b = null || a <> b
    | Pred.Lt | Pred.Le | Pred.Gt | Pred.Ge ->
      let holds =
        match cmp with
        | Pred.Lt -> fun c -> c < 0
        | Pred.Le -> fun c -> c <= 0
        | Pred.Gt -> fun c -> c > 0
        | _ -> fun c -> c >= 0
      in
      fun row ->
        let a = fx row and b = fy row in
        a <> null && b <> null && holds (Value.compare_ids a b))
  | P_and (a, b) ->
    let fa = col_pred chunk a and fb = col_pred chunk b in
    fun row -> fa row && fb row
  | P_or (a, b) ->
    let fa = col_pred chunk a and fb = col_pred chunk b in
    fun row -> fa row || fb row
  | P_not a ->
    let fa = col_pred chunk a in
    fun row -> not (fa row)

(* Columnar join with the same sharding policy (and row accounting) as
   the boxed kernel: above the threshold, both sides partition by
   join-key hash and the shards join independently on the pool. *)
let join_col ~exec ~key_left ~key_right ~right_extra l r =
  let nl = Columnar.length l and nr = Columnar.length r in
  let out_arity = Columnar.arity l + Array.length right_extra in
  if nl = 0 || nr = 0 then Columnar.empty ~arity:out_arity
  else begin
    count_rows (nl + nr);
    let shards = Parallel.Exec.shards exec in
    if shards <= 1 || nl + nr < Parallel.shard_threshold then
      Columnar.join ~key_left ~key_right ~right_extra l r
    else begin
      let lparts = Columnar.hash_partition ~shards ~key_pos:key_left l in
      let rparts = Columnar.hash_partition ~shards ~key_pos:key_right r in
      let pairs = List.init shards (fun s -> (lparts.(s), rparts.(s))) in
      List.fold_left Columnar.append
        (Columnar.empty ~arity:out_arity)
        (Parallel.Exec.map exec
           (fun (a, b) -> Columnar.join ~key_left ~key_right ~right_extra a b)
           pairs)
    end
  end

(* ------------------------------------------------------------------ *)
(* Full evaluation.                                                   *)

(* Join-bearing plans route through the columnar kernels (conversion
   overhead amortizes over the join work); join-free plans stay on the
   boxed bags, whose Base case is a free pointer read. *)
let rec plan_joins t =
  match t.node with
  | Base _ -> false
  | Select (_, e) | Project (_, e) -> plan_joins e
  | Join _ -> true
  | Union (a, b) -> plan_joins a || plan_joins b
  | Group_by g -> plan_joins g.input

let rec eval_bag ?(exec = Parallel.Exec.sequential) db t =
  match t.node with
  | (Select _ | Project _ | Join _ | Union _)
    when !Columnar.enabled && plan_joins t ->
    Columnar.to_bag (eval_col ~exec db t)
  | Base name -> Relation.contents (Database.find db name)
  | Select (pred, e) -> Bag.filter (eval_pred pred) (eval_bag ~exec db e)
  | Project (positions, e) ->
    Bag.map (Tuple.project_pos positions) (eval_bag ~exec db e)
  | Join { left; right; key_left; key_right; right_extra } ->
    Bag.of_counted_list
      (join_counted_pos ~exec ~key_left ~key_right ~right_extra
         (Bag.to_counted_list (eval_bag ~exec db left))
         (Bag.to_counted_list (eval_bag ~exec db right)))
  | Union (a, b) -> Bag.union (eval_bag ~exec db a) (eval_bag ~exec db b)
  | Group_by { input; spec } ->
    Group_state.rows (Group_state.of_bag spec (eval_bag ~exec db input))

(* Columnar evaluation: selection/projection as int-array scans, joins
   through the columnar hash kernel. Base relations hand out their
   memoized chunk; grouping (a boxed-bag algorithm) converts at the
   boundary. *)
and eval_col ~exec db t =
  match t.node with
  | Base name -> Relation.columnar (Database.find db name)
  | Select (pred, e) ->
    let chunk = eval_col ~exec db e in
    Columnar.filter ~keep:(col_pred chunk pred) chunk
  | Project (positions, e) ->
    Columnar.project positions (eval_col ~exec db e)
  | Join { left; right; key_left; key_right; right_extra } ->
    join_col ~exec ~key_left ~key_right ~right_extra
      (eval_col ~exec db left) (eval_col ~exec db right)
  | Union (a, b) -> Columnar.append (eval_col ~exec db a) (eval_col ~exec db b)
  | Group_by _ ->
    Columnar.of_bag ~arity:(Schema.arity t.schema) (eval_bag ~exec db t)

let eval ?exec db t =
  Relation.with_contents (Relation.create t.schema) (eval_bag ?exec db t)

(* ------------------------------------------------------------------ *)
(* Maintained plan state.                                             *)

(* One Group_state per Group_by node and one pair of side indexes per
   Join node, each found by the node's physical identity: a manager
   compiles its own plan, so the plan's nodes name exactly its own
   state. A join's indexes cover each side's output over the pre-state,
   keyed on that side's join-key positions. *)
type sides = { left_index : Bag_index.t; right_index : Bag_index.t }

type state = {
  groups : (group * Group_state.t) list;
  joins : (join * sides) list;
}

let state ?exec db t =
  let rec collect acc t =
    match t.node with
    | Base _ -> acc
    | Select (_, e) | Project (_, e) -> collect acc e
    | Join ({ left; right; key_left; key_right; _ } as j) ->
      let side e key_pos = Bag_index.of_bag ~key_pos (eval_bag ?exec db e) in
      let sides =
        { left_index = side left key_left; right_index = side right key_right }
      in
      collect (collect { acc with joins = (j, sides) :: acc.joins } left) right
    | Union (a, b) -> collect (collect acc a) b
    | Group_by ({ input; spec } as g) ->
      let groups =
        (g, Group_state.of_bag spec (eval_bag ?exec db input)) :: acc.groups
      in
      collect { acc with groups } input
  in
  let st = collect { groups = []; joins = [] } t in
  { groups = List.rev st.groups; joins = List.rev st.joins }

let no_state = { groups = []; joins = [] }

let state_equal a b =
  let same eq x y =
    List.length x = List.length y
    && List.for_all2 (fun (n, s) (m, u) -> n == m && eq s u) x y
  in
  same Group_state.equal a.groups b.groups
  && same
       (fun s u ->
         Bag_index.equal s.left_index u.left_index
         && Bag_index.equal s.right_index u.right_index)
       a.joins b.joins

(* ------------------------------------------------------------------ *)
(* Incremental delta rules over compiled plans.                       *)

(* [delta ~changes ~eval_pre t] is the signed delta of plan [t] given the
   per-base-relation signed deltas [changes]; [eval_pre] evaluates a
   sub-plan over the pre-state (supplied by Delta to keep the dependency
   direction Compiled <- Delta). Join deltas are hash joins on the plan's
   precomputed key positions; the pre-state side of a rule is only
   evaluated when the matching delta side is non-empty.

   A Join node with maintained [state] never evaluates a pre-state side:
   dA |><| B_pre and A_pre |><| dB are pure probes of its side indexes,
   which then advance by the side deltas the rule already computed, so
   the cost is O(|delta|). Without state, [pre_index], when it returns an
   index for a [Base] join operand (keyed on that operand's join-key
   positions over its pre-state), short-circuits the same rules; the
   shared-plan engine supplies it for materialized intermediates. *)
let no_pre_index : string -> key_pos:int array -> Bag_index.t option =
 fun _ ~key_pos:_ -> None

let no_pre_relation : string -> Relation.t option = fun _ -> None

(* The key of [tup] at [key_pos] as interned ids — the probe currency of
   the int-keyed index; the boxed key tuple is never materialized. *)
let probe_ids key_pos tup =
  Array.map (fun p -> Value.intern (Tuple.get tup p)) key_pos

(* Probe a prebuilt index over B_pre (keyed at B's join key) with the
   left-side delta: output rows are left ++ right_extra, counts
   multiply. [filter], when present, restricts matches to pre-state
   rows satisfying a selection that sits between the join and the base
   relation. Only the probe side is charged to the kernel counter. *)
let probe_right_index ?filter ~index ~key_left ~right_extra da_l =
  count_rows (List.length da_l);
  let keep = match filter with None -> fun _ -> true | Some p -> eval_pred p in
  List.fold_left
    (fun acc (ltup, ln) ->
      Bag_index.fold_ids index (probe_ids key_left ltup)
        (fun rtup rn acc ->
          if keep rtup then
            (Tuple.concat ltup (Tuple.project_pos right_extra rtup), ln * rn)
            :: acc
          else acc)
        acc)
    [] da_l

(* Symmetric: probe an index over A_pre with the right-side delta. *)
let probe_left_index ?filter ~index ~key_right ~right_extra db_l =
  count_rows (List.length db_l);
  let keep = match filter with None -> fun _ -> true | Some p -> eval_pred p in
  List.fold_left
    (fun acc (rtup, rn) ->
      let extra = Tuple.project_pos right_extra rtup in
      Bag_index.fold_ids index (probe_ids key_right rtup)
        (fun ltup ln acc ->
          if keep ltup then (Tuple.concat ltup extra, ln * rn) :: acc else acc)
        acc)
    [] db_l

let rec delta ?(exec = Parallel.Exec.sequential) ?(state = no_state)
    ?(pre_index = no_pre_index) ?(pre_relation = no_pre_relation) ~changes
    ~eval_pre t =
  match t.node with
  | Base name -> changes name
  | Select (pred, e) ->
    Signed_bag.filter (eval_pred pred)
      (delta ~exec ~state ~pre_index ~pre_relation ~changes ~eval_pre e)
  | Project (positions, e) ->
    Signed_bag.map (Tuple.project_pos positions)
      (delta ~exec ~state ~pre_index ~pre_relation ~changes ~eval_pre e)
  | Join ({ left; right; key_left; key_right; right_extra } as j) ->
    let sub = delta ~exec ~state ~pre_index ~pre_relation ~changes ~eval_pre in
    let da = sub left and db_ = sub right in
    if Signed_bag.is_zero da && Signed_bag.is_zero db_ then Signed_bag.zero
    else begin
      let join = join_counted_pos ~exec ~key_left ~key_right ~right_extra in
      let da_l = Signed_bag.to_list da and db_l = Signed_bag.to_list db_ in
      let maintained = List.assq_opt j state.joins in
      (* An index over a pre-state side, avoiding its evaluation: the
         node's maintained side index, else the caller-supplied
         [pre_index] (materialized intermediates), else the relation's
         own memoized int-keyed index when the side is a base relation —
         possibly under a pushed-down selection, which becomes a filter
         on the probe matches. *)
      let indexed side key pick =
        match (maintained, side.node) with
        | Some sides, _ -> Some (pick sides, None)
        | None, Base name -> (
          match pre_index name ~key_pos:key with
          | Some index -> Some (index, None)
          | None ->
            if !Columnar.enabled then
              Option.map
                (fun rel -> (Relation.index rel ~key_pos:key, None))
                (pre_relation name)
            else None)
        | None, Select (p, { node = Base name; _ }) when !Columnar.enabled ->
          Option.map
            (fun rel -> (Relation.index rel ~key_pos:key, Some p))
            (pre_relation name)
        | None, _ -> None
      in
      (* d(A |><| B) = dA |><| B_pre + A_pre |><| dB + dA |><| dB *)
      let part1 =
        if da_l = [] then []
        else
          match indexed right key_right (fun s -> s.right_index) with
          | Some (index, filter) ->
            probe_right_index ?filter ~index ~key_left ~right_extra da_l
          | None -> join da_l (Bag.to_counted_list (eval_pre right))
      in
      let part2 =
        if db_l = [] then []
        else
          match indexed left key_left (fun s -> s.left_index) with
          | Some (index, filter) ->
            probe_left_index ?filter ~index ~key_right ~right_extra db_l
          | None -> join (Bag.to_counted_list (eval_pre left)) db_l
      in
      let part3 = if da_l = [] || db_l = [] then [] else join da_l db_l in
      (* Both probes have read the pre-state; advance the indexes to the
         post-state by the exact side deltas. *)
      Option.iter
        (fun s ->
          Bag_index.apply_signed s.left_index da;
          Bag_index.apply_signed s.right_index db_)
        maintained;
      Signed_bag.of_list (List.concat [ part1; part2; part3 ])
    end
  | Union (a, b) ->
    Signed_bag.sum
      (delta ~exec ~state ~pre_index ~pre_relation ~changes ~eval_pre a)
      (delta ~exec ~state ~pre_index ~pre_relation ~changes ~eval_pre b)
  | Group_by ({ input; spec } as g) ->
    let d_in =
      delta ~exec ~state ~pre_index ~pre_relation ~changes ~eval_pre input
    in
    if Signed_bag.is_zero d_in then Signed_bag.zero
    else begin
      (* The maintained state when the caller owns one for this node;
         otherwise a transient one holding just the touched groups, from
         one scan of the pre-state input. Either way the same step emits
         the rows. *)
      let groups =
        match List.assq_opt g state.groups with
        | Some groups -> groups
        | None -> Group_state.seed spec ~affected:d_in (eval_pre input)
      in
      Group_state.step ~pre_input:(fun () -> eval_pre input) groups d_in
    end

(* ------------------------------------------------------------------ *)
(* Compile-once memoization.                                          *)

(* View managers hold one Algebra.t per view and compute a delta per
   transaction; the memo makes every call after the first reuse the plan.
   Keys compare physically (the same AST value), so structurally equal but
   distinct expressions each get their own entry — correct, just not shared.
   A hit is revalidated against the current base-relation schemas (compiling
   is per-name-resolution, so a same-named relation with a different schema
   must recompile). *)

module Expr_tbl = Hashtbl.Make (struct
  type t = Algebra.t

  let equal = ( == )

  let hash = Hashtbl.hash
end)

type memo_entry = { plan : t; bases : (string * Schema.t) list }

(* The memo is process-global and reachable from pool domains (a view
   manager's delta future compiles through it). A single table behind a
   single mutex serialized every compilation across domains; the table
   is sharded by the expression's structural hash instead — physical
   equality implies structural equality, so an expression always lands
   in the same shard — with one lock per shard. Contended acquisitions
   (try_lock failing before the blocking lock) are counted so the
   runtime can report residual serialization. *)
let memo_shards = 8

let memos : memo_entry Expr_tbl.t array =
  Array.init memo_shards (fun _ -> Expr_tbl.create 64)

let memo_locks = Array.init memo_shards (fun _ -> Mutex.create ())

let memo_shard_limit = 128

let contention_counter = Atomic.make 0

let memo_contention () = Atomic.get contention_counter

let memo_shard expr = Hashtbl.hash expr land max_int mod memo_shards

let compile_memo ~lookup expr =
  let shard = memo_shard expr in
  let lock = memo_locks.(shard) in
  if not (Mutex.try_lock lock) then begin
    ignore (Atomic.fetch_and_add contention_counter 1);
    Mutex.lock lock
  end;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock lock)
    (fun () ->
      let memo = memos.(shard) in
      let validate entry =
        List.for_all
          (fun (name, schema) ->
            match lookup name with
            | s -> Schema.equal s schema
            | exception _ -> false)
          entry.bases
      in
      match Expr_tbl.find_opt memo expr with
      | Some entry when validate entry -> entry.plan
      | _ ->
        let plan = compile ~lookup expr in
        let bases =
          List.map
            (fun name -> (name, lookup name))
            (Algebra.base_relations expr)
        in
        if Expr_tbl.length memo >= memo_shard_limit then Expr_tbl.reset memo;
        Expr_tbl.replace memo expr { plan; bases };
        plan)
