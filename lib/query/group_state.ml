open Relational

(* Per-group aggregate state for one Group_by node.

   Exactness: a group's output row must equal [refold] over its members,
   which folds in Bag (tuple) order.
   - Count is the group's row count, kept exactly.
   - Sum over Int: the fold adds [n * v] in Int arithmetic, which wraps
     modulo 2^63 — associative and commutative, so an accumulator that
     adds and subtracts [n * v] in any order holds the same value. A
     group whose non-Null count is zero reports Null, as the fold does.
   - Avg over Int: the fold accumulates [float n *. float v] in float.
     While every value has magnitude at most 2^26 and there are fewer
     than 2^27 non-Null values, every term and partial sum is an integer
     below 2^53, so each float addition is exact and the total equals
     [float_of_int] of the integer accumulator. A group outside that
     bound is wide: it keeps its members and refolds them.
   - Min/Max: the fold keeps the least (greatest) value under
     [Value.compare]; the multiplicity map's min (max) binding is that
     value, and dropping a binding whose multiplicity reaches zero keeps
     the map equal to the members' non-Null values.
   - Sum/Avg over any other type refold the group's members, so float
     rounding happens in exactly the recompute's order. *)

type agg = Count | Sum of int | Avg of int | Min of int | Max of int

module Value_map = Map.Make (Value)

module Tuple_tbl = Hashtbl.Make (struct
  type t = Tuple.t

  let equal = Tuple.equal

  let hash = Tuple.hash
end)

(* How one aggregate is maintained. *)
type kind =
  | K_count
  | K_int of { pos : int; avg : bool }  (* exact integer accumulator *)
  | K_extreme of { pos : int; max : bool }  (* value -> multiplicity *)
  | K_refold of agg  (* refold the members *)

type spec = {
  key_pos : int array;
  kinds : kind array;
  refolds : bool; (* some aggregate refolds: every group keeps members *)
}

let spec ~key_pos ~aggs =
  let kind (agg, ty) =
    match (agg, (ty : Value.ty)) with
    | Count, _ -> K_count
    | Sum pos, Int_ty -> K_int { pos; avg = false }
    | Avg pos, Int_ty -> K_int { pos; avg = true }
    | Min pos, _ -> K_extreme { pos; max = false }
    | Max pos, _ -> K_extreme { pos; max = true }
    | (Sum _ | Avg _), _ -> K_refold agg
  in
  let kinds = Array.map kind aggs in
  { key_pos;
    kinds;
    refolds =
      Array.exists (function K_refold _ -> true | _ -> false) kinds }

let key_of spec tup = Tuple.project_pos spec.key_pos tup

(* ------------------------------------------------------------------ *)
(* The reference fold.                                                *)

let add_values a b =
  match (a, b) with
  | Value.Null, v | v, Value.Null -> v
  | Value.Int x, Value.Int y -> Value.Int (x + y)
  | Value.Float x, Value.Float y -> Value.Float (x +. y)
  | Value.Int x, Value.Float y | Value.Float y, Value.Int x ->
    Value.Float (float_of_int x +. y)
  | (Value.Bool _ | Value.String _), _ | _, (Value.Bool _ | Value.String _) ->
    raise (Relation.Type_error "sum over non-numeric attribute")

let scale_value n = function
  | Value.Null -> Value.Null
  | Value.Int x -> Value.Int (n * x)
  | Value.Float x -> Value.Float (float_of_int n *. x)
  | Value.Bool _ | Value.String _ ->
    raise (Relation.Type_error "sum over non-numeric attribute")

let to_float = function
  | Value.Int x -> float_of_int x
  | Value.Float x -> x
  | Value.Null | Value.Bool _ | Value.String _ ->
    raise (Relation.Type_error "avg over non-numeric attribute")

let refold agg contents =
  let non_null pos f init =
    Bag.fold
      (fun tup n acc ->
        match Tuple.get tup pos with Value.Null -> acc | v -> f v n acc)
      contents init
  in
  match agg with
  | Count -> Value.Int (Bag.cardinal contents)
  | Sum pos ->
    non_null pos (fun v n acc -> add_values acc (scale_value n v)) Value.Null
  | Avg pos ->
    let total, count =
      non_null pos
        (fun v n (total, count) ->
          (total +. (float_of_int n *. to_float v), count + n))
        (0.0, 0)
    in
    if count = 0 then Value.Null else Value.Float (total /. float_of_int count)
  | Min pos ->
    non_null pos
      (fun v _ acc ->
        match acc with
        | Value.Null -> v
        | best -> if Value.compare v best < 0 then v else best)
      Value.Null
  | Max pos ->
    non_null pos
      (fun v _ acc ->
        match acc with
        | Value.Null -> v
        | best -> if Value.compare v best > 0 then v else best)
      Value.Null

(* ------------------------------------------------------------------ *)
(* Groups.                                                            *)

(* Per-aggregate slots are indexed like [spec.kinds]; a slot unused by
   its kind stays at its initial value. *)
type group = {
  mutable rows : int;
  sums : int array;
  non_null : int array;
  big : int array; (* non-Null values of magnitude above [big_value] *)
  values : int Value_map.t array;
  mutable members : Bag.t option;
      (* Kept when the spec refolds, or once an Avg over Int went wide. *)
}

type t = { spec : spec; groups : group Tuple_tbl.t }

let big_value = 1 lsl 26

let max_exact_count = 1 lsl 27

let empty_group spec =
  let n = Array.length spec.kinds in
  { rows = 0;
    sums = Array.make n 0;
    non_null = Array.make n 0;
    big = Array.make n 0;
    values = Array.make n Value_map.empty;
    members = (if spec.refolds then Some Bag.empty else None) }

let copy g =
  { g with
    sums = Array.copy g.sums;
    non_null = Array.copy g.non_null;
    big = Array.copy g.big;
    values = Array.copy g.values }

(* Fold [n] copies (negative: removals) of an input row into [g]. *)
let add_row spec g tup n =
  g.rows <- g.rows + n;
  Array.iteri
    (fun i kind ->
      match kind with
      | K_count | K_refold _ -> ()
      | K_int { pos; avg } -> (
        match Tuple.get tup pos with
        | Value.Null -> ()
        | Value.Int v ->
          g.sums.(i) <- g.sums.(i) + (n * v);
          g.non_null.(i) <- g.non_null.(i) + n;
          if avg && (v > big_value || v < -big_value) then
            g.big.(i) <- g.big.(i) + n
        | _ -> raise (Relation.Type_error "sum over non-numeric attribute"))
      | K_extreme { pos; _ } -> (
        match Tuple.get tup pos with
        | Value.Null -> ()
        | v ->
          g.values.(i) <-
            Value_map.update v
              (fun c ->
                let c = Option.value c ~default:0 + n in
                if c > 0 then Some c else None)
              g.values.(i)))
    spec.kinds;
  match g.members with
  | None -> ()
  | Some m ->
    g.members <-
      Some
        (if n > 0 then Bag.add ~count:n tup m
         else if n < 0 then Bag.remove ~count:(-n) tup m
         else m)

(* An Avg over Int whose float total may differ from the integer
   accumulator: it must refold its members. *)
let wide spec g =
  let rec go i =
    i < Array.length spec.kinds
    && ((match spec.kinds.(i) with
        | K_int { avg = true; _ } ->
          g.big.(i) > 0 || g.non_null.(i) >= max_exact_count
        | _ -> false)
       || go (i + 1))
  in
  go 0

let lacks_members spec g = Option.is_none g.members && wide spec g

let members g =
  match g.members with
  | Some m -> m
  | None -> invalid_arg "Group_state: a wide group lost its members"

let output spec key g =
  let value i kind =
    match kind with
    | K_count -> Value.Int g.rows
    | K_int { pos; avg } ->
      if g.non_null.(i) = 0 then Value.Null
      else if not avg then Value.Int g.sums.(i)
      else if wide spec g then refold (Avg pos) (members g)
      else
        Value.Float (float_of_int g.sums.(i) /. float_of_int g.non_null.(i))
    | K_extreme { max; _ } -> (
      let binding =
        if max then Value_map.max_binding_opt g.values.(i)
        else Value_map.min_binding_opt g.values.(i)
      in
      match binding with Some (v, _) -> v | None -> Value.Null)
    | K_refold agg -> refold agg (members g)
  in
  Tuple.concat key (Tuple.of_array (Array.mapi value spec.kinds))

(* Give each listed group the members it has in [input], from one
   scan. *)
let fill_members spec input wanted =
  let found = Tuple_tbl.create 8 in
  List.iter (fun (key, _) -> Tuple_tbl.replace found key Bag.empty) wanted;
  Bag.iter
    (fun tup n ->
      let key = key_of spec tup in
      match Tuple_tbl.find_opt found key with
      | Some b -> Tuple_tbl.replace found key (Bag.add ~count:n tup b)
      | None -> ())
    input;
  List.iter
    (fun (key, g) -> g.members <- Some (Tuple_tbl.find found key))
    wanted

(* Build the groups of [input] whose key passes [keep]. *)
let build spec ~keep input =
  let t = { spec; groups = Tuple_tbl.create 16 } in
  Bag.iter
    (fun tup n ->
      let key = key_of spec tup in
      if keep key then begin
        let g =
          match Tuple_tbl.find_opt t.groups key with
          | Some g -> g
          | None ->
            let g = empty_group spec in
            Tuple_tbl.replace t.groups key g;
            g
        in
        add_row spec g tup n
      end)
    input;
  let lacking =
    Tuple_tbl.fold
      (fun key g acc -> if lacks_members spec g then (key, g) :: acc else acc)
      t.groups []
  in
  if lacking <> [] then fill_members spec input lacking;
  t

let of_bag spec input = build spec ~keep:(fun _ -> true) input

let seed spec ~affected input =
  let keys = Tuple_tbl.create 16 in
  Signed_bag.fold
    (fun tup _ () -> Tuple_tbl.replace keys (key_of spec tup) ())
    affected ();
  build spec ~keep:(Tuple_tbl.mem keys) input

let step ?pre_input t d_in =
  let spec = t.spec in
  let touched = Tuple_tbl.create 16 in
  Signed_bag.fold
    (fun tup n () ->
      let key = key_of spec tup in
      let rows =
        match Tuple_tbl.find_opt touched key with Some l -> l | None -> []
      in
      Tuple_tbl.replace touched key ((tup, n) :: rows))
    d_in ();
  (* The new group is built on a copy, so the table changes only in the
     final commit. A group born in this step starts from no members. *)
  let advance key rows =
    let old = Tuple_tbl.find_opt t.groups key in
    let g = match old with Some g -> copy g | None -> empty_group spec in
    List.iter (fun (tup, n) -> add_row spec g tup n) rows;
    if Option.is_none old && lacks_members spec g then
      g.members <-
        Some
          (List.fold_left
             (fun b (tup, n) -> if n > 0 then Bag.add ~count:n tup b else b)
             Bag.empty rows);
    (key, old, g)
  in
  let updates =
    Tuple_tbl.fold (fun key rows acc -> advance key rows :: acc) touched []
  in
  (* An existing group that goes wide in this step needs the members it
     held before it; they come from one scan of the pre-state input. *)
  let lacking =
    List.filter_map
      (fun (key, old, g) ->
        match old with
        | Some o when lacks_members spec g -> Some (key, o)
        | _ -> None)
      updates
  in
  let updates =
    if lacking = [] then updates
    else begin
      let input =
        match pre_input with
        | Some f -> f ()
        | None -> invalid_arg "Group_state.step: a wide group needs ~pre_input"
      in
      fill_members spec input lacking;
      List.map
        (fun (key, _, _) -> advance key (Tuple_tbl.find touched key))
        updates
    end
  in
  let out =
    List.fold_left
      (fun acc (key, old, g) ->
        let acc =
          match old with
          | Some o -> Signed_bag.add (output spec key o) (-1) acc
          | None -> acc
        in
        if g.rows > 0 then Signed_bag.add (output spec key g) 1 acc else acc)
      Signed_bag.zero updates
  in
  List.iter
    (fun (key, _, g) ->
      if g.rows > 0 then Tuple_tbl.replace t.groups key g
      else Tuple_tbl.remove t.groups key)
    updates;
  out

let rows t =
  Tuple_tbl.fold (fun key g acc -> Bag.add (output t.spec key g) acc) t.groups
    Bag.empty

let group_count t = Tuple_tbl.length t.groups

let equal a b =
  Tuple_tbl.length a.groups = Tuple_tbl.length b.groups
  && Tuple_tbl.fold
       (fun key g ok ->
         ok
         &&
         match Tuple_tbl.find_opt b.groups key with
         | None -> false
         | Some h ->
           g.rows = h.rows && g.sums = h.sums && g.non_null = h.non_null
           && g.big = h.big
           && Array.for_all2 (Value_map.equal Int.equal) g.values h.values
           && ((not a.spec.refolds)
              || Option.equal Bag.equal g.members h.members))
       a.groups true
