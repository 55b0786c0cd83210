open Relational
open Query

type t = { rows : int list; actions : Action_list.t list }

let make ~rows actions = { rows = List.sort_uniq Int.compare rows; actions }

let views t =
  let add seen v = if List.mem v seen then seen else seen @ [ v ] in
  List.fold_left (fun seen (al : Action_list.t) -> add seen al.view) [] t.actions

let last_row t = List.fold_left Int.max 0 t.rows

let depends_on later earlier =
  let earlier_views = views earlier in
  List.exists (fun v -> List.mem v earlier_views) (views later)

let batch wts =
  { rows = List.sort_uniq Int.compare (List.concat_map (fun w -> w.rows) wts);
    actions = List.concat_map (fun w -> w.actions) wts }

let action_count t =
  List.fold_left (fun acc al -> acc + Action_list.action_count al) 0 t.actions

module Tuple_set = Set.Make (Tuple)

(* Only a tuple some delta list touched can change count, so the after -
   before counts of the touched tuples are the whole delta; [touched] is
   [None] once a refresh list may have changed any tuple. *)
let view_delta t ~view ~before ~after =
  let touched =
    List.fold_left
      (fun acc (al : Action_list.t) ->
        match (acc, al.payload) with
        | None, _ -> None
        | Some _, _ when al.view <> view -> acc
        | Some _, Action_list.Refresh _ -> None
        | Some set, Action_list.Delta d ->
          Some (Signed_bag.fold (fun tup _ set -> Tuple_set.add tup set) d set))
      (Some Tuple_set.empty) t.actions
  in
  match touched with
  | Some tuples ->
    Tuple_set.fold
      (fun tup d ->
        Signed_bag.add tup (Bag.count after tup - Bag.count before tup) d)
      tuples Signed_bag.zero
  | None -> Signed_bag.diff_of_bags ~before ~after

let pp ppf t =
  Fmt.pf ppf "WT{rows=[%a]; %a}"
    (Fmt.list ~sep:Fmt.comma Fmt.int)
    t.rows
    (Fmt.list ~sep:(Fmt.any "; ") Action_list.pp)
    t.actions
