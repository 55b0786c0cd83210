open Relational

type t = { name : string; legs : (int * string) list }

let make ~name ~assignment leg_names =
  if leg_names = [] then invalid_arg "Union_view.make: no legs";
  let legs = List.map (fun v -> (assignment v, v)) leg_names in
  (* Stable: legs on the same shard keep their input order. *)
  { name;
    legs = List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) legs }

let shards t = List.sort_uniq Int.compare (List.map fst t.legs)

let stitch t ~state_of =
  List.fold_left
    (fun acc (s, leg) ->
      Bag.union acc (Relation.contents (Database.find (state_of s) leg)))
    Bag.empty t.legs

type maintained = { union : t; mutable contents : Bag.t }

let maintain t ~state_of = { union = t; contents = stitch t ~state_of }

let union m = m.union

let contents m = m.contents

(* The contents are the sum of the legs, so removing a leg's deletions
   never clamps: [Signed_bag.apply] is exact here. *)
let commit m ~shard ~pre ~post wt =
  List.iter
    (fun view ->
      let copies =
        List.length (List.filter (( = ) (shard, view)) m.union.legs)
      in
      if copies > 0 then begin
        let leg db = Relation.contents (Database.find db view) in
        let d =
          Warehouse.Wt.view_delta wt ~view ~before:(leg pre) ~after:(leg post)
        in
        for _ = 1 to copies do
          m.contents <- Signed_bag.apply d m.contents
        done
      end)
    (Warehouse.Wt.views wt)
