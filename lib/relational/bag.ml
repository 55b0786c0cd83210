module Tuple_map = Map.Make (Tuple)

(* Invariant: every stored multiplicity is > 0 and [card] is the sum of all
   stored multiplicities. Caching the total makes [cardinal] O(1) — it sits
   on the Count-aggregate and metrics hot paths, which previously folded the
   whole map per call. *)
type t = { map : int Tuple_map.t; card : int }

let empty = { map = Tuple_map.empty; card = 0 }

let is_empty t = Tuple_map.is_empty t.map

let cardinal t = t.card

let size = cardinal

let distinct t = Tuple_map.cardinal t.map

let count t tup =
  match Tuple_map.find_opt tup t.map with Some n -> n | None -> 0

let mem t tup = Tuple_map.mem tup t.map

let check_count count =
  if count <= 0 then invalid_arg "Bag: count must be positive"

let add ?(count = 1) tup t =
  check_count count;
  { map =
      Tuple_map.update tup
        (function None -> Some count | Some n -> Some (n + count))
        t.map;
    card = t.card + count }

let remove ?(count = 1) tup t =
  check_count count;
  let removed = ref 0 in
  let map =
    Tuple_map.update tup
      (function
        | None -> None
        | Some n when n <= count ->
          removed := n;
          None
        | Some n ->
          removed := count;
          Some (n - count))
      t.map
  in
  { map; card = t.card - !removed }

let of_list tuples = List.fold_left (fun acc tup -> add tup acc) empty tuples

let of_counted_list entries =
  List.fold_left (fun acc (tup, n) -> add ~count:n tup acc) empty entries

let to_counted_list t = Tuple_map.bindings t.map

let to_list t =
  List.concat_map
    (fun (tup, n) -> List.init n (fun _ -> tup))
    (to_counted_list t)

let fold f t init = Tuple_map.fold f t.map init

let iter f t = Tuple_map.iter f t.map

(* One structural merge of the two trees instead of an insert per tuple;
   both maps hold only positive counts, so every sum stays positive. *)
let union a b =
  { map = Tuple_map.union (fun _ m n -> Some (m + n)) a.map b.map;
    card = a.card + b.card }

let diff a b =
  Tuple_map.fold (fun tup n acc -> remove ~count:n tup acc) b.map a

let map f t =
  Tuple_map.fold (fun tup n acc -> add ~count:n (f tup) acc) t.map empty

let filter p t =
  Tuple_map.fold
    (fun tup n acc -> if p tup then add ~count:n tup acc else acc)
    t.map empty

let equal a b = Tuple_map.equal Int.equal a.map b.map

let compare a b = Tuple_map.compare Int.compare a.map b.map

let pp ppf t =
  let pp_entry ppf (tup, n) =
    if n = 1 then Tuple.pp ppf tup else Fmt.pf ppf "%a*%d" Tuple.pp tup n
  in
  Fmt.pf ppf "{%a}" (Fmt.list ~sep:(Fmt.any ", ") pp_entry) (to_counted_list t)

let to_string t = Fmt.str "%a" pp t
