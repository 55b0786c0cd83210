open Relational

type storage = {
  aux_rows : int;
  aux_cells : int;
  replica_rows : int;
  replica_cells : int;
}

type t = {
  view : Query.View.t;
  auxes : Derive.aux list;
  (* Per-relation tuple projector for the non-full auxiliaries, resolved
     once against the full base schema (incoming deltas carry full-width
     tuples). *)
  projectors : (string * (Signed_bag.t -> Signed_bag.t)) list;
  compiled : Query.Compiled.t;
  initial : Database.t;
  storage : storage;
}

let create ~initial view =
  let base = Database.restrict initial (Query.View.base_relations view) in
  let auxes =
    Derive.analyze ~schemas:(Database.schema base) view.Query.View.def
  in
  let cache =
    List.fold_left
      (fun db (a : Derive.aux) ->
        if a.full then db
        else
          Database.add a.relation
            (Query.Eval.eval base
               (Query.Algebra.Project (a.live, Query.Algebra.Base a.relation)))
            db)
      base auxes
  in
  let projectors =
    List.filter_map
      (fun (a : Derive.aux) ->
        if a.full then None
        else
          let pos = Schema.positions (Database.schema base a.relation) a.live in
          Some (a.relation, Signed_bag.map (Tuple.project_pos pos)))
      auxes
  in
  let compiled =
    Query.Compiled.compile ~lookup:(Database.schema cache) view.Query.View.def
  in
  let storage =
    List.fold_left
      (fun acc (a : Derive.aux) ->
        let full = Database.find base a.relation in
        let aux = Database.find cache a.relation in
        { aux_rows = acc.aux_rows + Relation.cardinal aux;
          aux_cells =
            acc.aux_cells + (Relation.cardinal aux * List.length a.live);
          replica_rows = acc.replica_rows + Relation.cardinal full;
          replica_cells =
            acc.replica_cells
            + Relation.cardinal full * Schema.arity (Relation.schema full) })
      { aux_rows = 0; aux_cells = 0; replica_rows = 0; replica_cells = 0 }
      auxes
  in
  { view; auxes; projectors; compiled; initial = cache; storage }

let view t = t.view

let auxes t = t.auxes

let initial_cache t = t.initial

let storage t = t.storage

let project t changes =
  Query.Delta.changes_of_list
    (List.filter_map
       (fun (a : Derive.aux) ->
         let raw = Query.Delta.change_for changes a.relation in
         if Signed_bag.is_zero raw then None
         else
           match List.assoc_opt a.relation t.projectors with
           | Some f -> Some (a.relation, f raw)
           | None -> Some (a.relation, raw))
       t.auxes)

let state ?exec t cache = Query.Compiled.state ?exec cache t.compiled

let delta ?exec ?state t ~pre changes =
  Query.Delta.eval_plan ?exec ?state ~pre changes t.compiled

let advance _t cache changes =
  List.fold_left
    (fun db r ->
      match Database.find_opt db r with
      | None -> db
      | Some rel ->
        Database.add r
          (Relation.apply_delta (Query.Delta.change_for changes r) rel)
          db)
    cache
    (Query.Delta.changed_relations changes)

let pp ppf t =
  Fmt.pf ppf "@[<v>selfmaint %s:@ %a@ aux %d rows / %d cells (replica %d/%d)@]"
    (Query.View.name t.view)
    (Fmt.list ~sep:Fmt.sp Derive.pp_aux)
    t.auxes t.storage.aux_rows t.storage.aux_cells t.storage.replica_rows
    t.storage.replica_cells
