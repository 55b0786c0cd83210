open Relational
open Query

let case = Helpers.case

let ints = Helpers.ints

let sales = Helpers.int_schema [ "sku"; "store"; "qty" ]

let db rows = Database.of_list [ ("sales", Helpers.rel sales rows) ]

let base_rows = [ [ 1; 1; 5 ]; [ 1; 2; 3 ]; [ 2; 1; 7 ]; [ 2; 1; 7 ] ]

let by_store aggregates =
  Algebra.group_by ~keys:[ "store" ] ~aggregates (Algebra.base "sales")

let eval rows e = Relation.contents (Eval.eval (db rows) e)

(* ---- Maintained per-group state vs the interpreted oracle ---- *)

(* F(k, i, x): a group key, an Int and a Float measure, both nullable.
   D(k, c) maps keys to a second grouping column for the join view. *)
let fact =
  Schema.make [ ("k", Value.Int_ty); ("i", Value.Int_ty); ("x", Value.Float_ty) ]

let dim = Helpers.int_schema [ "k"; "c" ]

let all_aggregates =
  [ ("n", Algebra.Count); ("si", Algebra.Sum "i"); ("ai", Algebra.Avg "i");
    ("mi", Algebra.Min "i"); ("xi", Algebra.Max "i"); ("sx", Algebra.Sum "x");
    ("ax", Algebra.Avg "x"); ("mx", Algebra.Min "x"); ("xx", Algebra.Max "x") ]

let maintained_views =
  [ ("over a base", Algebra.group_by ~keys:[ "k" ] ~aggregates:all_aggregates
                      (Algebra.base "F"));
    ( "over a select",
      Algebra.group_by ~keys:[ "k" ] ~aggregates:all_aggregates
        (Algebra.select (Pred.ge "i" (Value.Int (-1))) (Algebra.base "F")) );
    ( "over a join",
      Algebra.group_by ~keys:[ "c" ] ~aggregates:all_aggregates
        Algebra.(join (base "F") (base "D")) ) ]

(* Small value pools: few keys, so groups empty out and reappear and the
   current extreme is often deleted; floats whose sums depend on the
   addition order; and an Int past 2^53 whose float sum with 1 rounds
   differently from the exact integer sum, which an Avg group only gets
   right by going wide. *)
let random_fact rng =
  let pick a = a.(Random.State.int rng (Array.length a)) in
  Tuple.of_list
    [ Value.Int (Random.State.int rng 3);
      pick
        [| Value.Null; Value.Int (-3); Value.Int 0; Value.Int 1; Value.Int 5;
           Value.Int 7; Value.Int ((1 lsl 53) + 1) |];
      pick
        [| Value.Null; Value.Float 0.1; Value.Float 0.2; Value.Float 0.3;
           Value.Float 1e16; Value.Float (-1e16); Value.Float 2.5 |] ]

(* One transaction against [db]: inserts, and deletes or modifies of
   live rows only, so every delta is exact. *)
let random_txn rng ~id db =
  let rec go db n acc =
    if n = 0 then (List.rev acc, db)
    else
      let live = Bag.to_list (Relation.contents (Database.find db "F")) in
      let u =
        match (Random.State.int rng 3, live) with
        | 0, _ | _, [] ->
          if Random.State.int rng 5 = 0 then
            Update.insert "D"
              (Tuple.ints [ Random.State.int rng 3; Random.State.int rng 2 ])
          else Update.insert "F" (random_fact rng)
        | 1, _ ->
          Update.delete "F"
            (List.nth live (Random.State.int rng (List.length live)))
        | _, _ ->
          Update.modify "F"
            ~before:(List.nth live (Random.State.int rng (List.length live)))
            ~after:(random_fact rng)
      in
      go (Database.apply_update db u) (n - 1) (u :: acc)
  in
  let updates, db = go db (1 + Random.State.int rng 3) [] in
  (Update.Transaction.make ~id ~source:"s" updates, db)

let initial_db rng =
  Database.of_list
    [ ( "F",
        Relation.of_tuples fact
          (List.init (Random.State.int rng 8) (fun _ -> random_fact rng)) );
      ("D", Helpers.rel dim [ [ 0; 0 ]; [ 1; 1 ]; [ 2; 0 ] ]) ]

(* Run a random sequence of batches (1 to 3 transactions each, applied
   as one combined delta like Batching_vm) through a maintained state:
   every delta must equal the oracle's and the stateless rule's, and
   after every step the state must equal one built fresh from the
   post-state. *)
let maintained_matches_oracle seed =
  let rng = Random.State.make [| seed |] in
  let db0 = initial_db rng in
  let _, expr = List.nth maintained_views (seed mod 3) in
  let plan = Compiled.compile ~lookup:(Database.schema db0) expr in
  let state = Compiled.state db0 plan in
  let rec loop db step =
    step > 8
    ||
    let rec batch db k acc =
      if k = 0 then (List.rev acc, db)
      else
        let txn, db = random_txn rng ~id:((step * 10) + k) db in
        batch db (k - 1) (txn :: acc)
    in
    let txns, post = batch db (1 + Random.State.int rng 3) [] in
    let changes = Delta.of_transactions txns in
    let oracle = Delta.eval ~naive:true ~pre:db changes expr in
    let stateless = Delta.eval_plan ~pre:db changes plan in
    let maintained = Delta.eval_plan ~state ~pre:db changes plan in
    Signed_bag.equal maintained oracle
    && Signed_bag.equal stateless oracle
    && Compiled.state_equal state (Compiled.state post plan)
    && loop post (step + 1)
  in
  loop db0 1

let group_state_of rows =
  let spec =
    Group_state.spec ~key_pos:[| 0 |]
      ~aggs:
        [| (Group_state.Min 1, Value.Int_ty); (Group_state.Max 1, Value.Int_ty) |]
  in
  (spec, Group_state.of_bag spec (Helpers.bag_of rows))

let tests =
  [ case "schema of group_by" (fun () ->
        let e =
          by_store [ ("total", Algebra.Sum "qty"); ("n", Algebra.Count) ]
        in
        let schema =
          Algebra.schema_of (fun _ -> sales) e
        in
        Alcotest.(check (list string)) "attrs" [ "store"; "total"; "n" ]
          (Schema.names schema);
        Alcotest.(check bool) "count is int" true
          (Schema.type_of schema "n" = Value.Int_ty));
    case "schema of avg is float" (fun () ->
        let e = by_store [ ("a", Algebra.Avg "qty") ] in
        Alcotest.(check bool) "float" true
          (Schema.type_of (Algebra.schema_of (fun _ -> sales) e) "a"
          = Value.Float_ty));
    case "count respects multiplicity" (fun () ->
        let out = eval base_rows (by_store [ ("n", Algebra.Count) ]) in
        Alcotest.(check int) "store 1 count 3" 1
          (Bag.count out (Helpers.ints [ 1; 3 ]));
        Alcotest.(check int) "store 2 count 1" 1
          (Bag.count out (Helpers.ints [ 2; 1 ])));
    case "sum / min / max" (fun () ->
        let out =
          eval base_rows
            (by_store
               [ ("s", Algebra.Sum "qty"); ("lo", Algebra.Min "qty");
                 ("hi", Algebra.Max "qty") ])
        in
        Alcotest.(check int) "store 1: sum=19 min=5 max=7" 1
          (Bag.count out (Helpers.ints [ 1; 19; 5; 7 ]));
        Alcotest.(check int) "store 2: sum=3" 1
          (Bag.count out (Helpers.ints [ 2; 3; 3; 3 ])));
    case "avg" (fun () ->
        let out = eval base_rows (by_store [ ("a", Algebra.Avg "qty") ]) in
        let expected =
          Tuple.of_list [ Value.Int 1; Value.Float (19.0 /. 3.0) ]
        in
        Alcotest.(check int) "store 1 avg" 1 (Bag.count out expected));
    case "empty input yields no groups" (fun () ->
        Alcotest.check Helpers.bag "empty" Bag.empty
          (eval [] (by_store [ ("n", Algebra.Count) ])));
    case "nulls: skipped by sum, counted by count" (fun () ->
        let rows =
          Bag.of_list
            [ Tuple.of_list [ Value.Int 1; Value.Int 1; Value.Null ];
              Tuple.of_list [ Value.Int 2; Value.Int 1; Value.Int 4 ] ]
        in
        let db =
          Database.of_list
            [ ("sales", Relation.with_contents (Relation.create sales) rows) ]
        in
        let out =
          Relation.contents
            (Eval.eval db
               (by_store [ ("s", Algebra.Sum "qty"); ("n", Algebra.Count) ]))
        in
        Alcotest.(check int) "sum skips null" 1
          (Bag.count out (Helpers.ints [ 1; 4; 2 ])));
    case "delta: insert into existing group" (fun () ->
        let e = by_store [ ("s", Algebra.Sum "qty") ] in
        let pre = db base_rows in
        let changes =
          Delta.of_update (Update.insert "sales" (Helpers.ints [ 9; 1; 1 ]))
        in
        let d = Delta.eval ~pre changes e in
        Alcotest.(check int) "old row retracted" (-1)
          (Signed_bag.count d (Helpers.ints [ 1; 19 ]));
        Alcotest.(check int) "new row inserted" 1
          (Signed_bag.count d (Helpers.ints [ 1; 20 ]));
        Alcotest.(check int) "only two entries" 2
          (List.length (Signed_bag.to_list d)));
    case "delta: delete emptying a group retracts it" (fun () ->
        let e = by_store [ ("n", Algebra.Count) ] in
        let pre = db base_rows in
        let changes =
          Delta.of_update (Update.delete "sales" (Helpers.ints [ 1; 2; 3 ]))
        in
        let d = Delta.eval ~pre changes e in
        Alcotest.(check int) "group 2 gone" (-1)
          (Signed_bag.count d (Helpers.ints [ 2; 1 ]));
        Alcotest.(check int) "no replacement" 0
          (Signed_bag.count d (Helpers.ints [ 2; 0 ])));
    case "delta: min under deletion recomputes the group" (fun () ->
        let e = by_store [ ("lo", Algebra.Min "qty") ] in
        let pre = db base_rows in
        (* Deleting the minimum of store 1 (qty 5) must surface 7. *)
        let changes =
          Delta.of_update (Update.delete "sales" (Helpers.ints [ 1; 1; 5 ]))
        in
        let d = Delta.eval ~pre changes e in
        Alcotest.(check int) "-[1;5]" (-1)
          (Signed_bag.count d (Helpers.ints [ 1; 5 ]));
        Alcotest.(check int) "+[1;7]" 1 (Signed_bag.count d (Helpers.ints [ 1; 7 ])));
    case "delta: update not changing the aggregate is empty" (fun () ->
        let e = by_store [ ("n", Algebra.Count) ] in
        let pre = db base_rows in
        let changes =
          Delta.of_update
            (Update.modify "sales" ~before:(Helpers.ints [ 1; 1; 5 ])
               ~after:(Helpers.ints [ 3; 1; 8 ]))
        in
        Alcotest.(check bool) "zero" true
          (Signed_bag.is_zero (Delta.eval ~pre changes e)));
    case "irrelevance: key selection pushes through group_by" (fun () ->
        let e =
          Algebra.select
            (Pred.eq "store" (Value.Int 5))
            (by_store [ ("n", Algebra.Count) ])
        in
        let schemas = function
          | "sales" -> sales
          | other -> raise (Database.Unknown_relation other)
        in
        let changes =
          Delta.of_update (Update.insert "sales" (Helpers.ints [ 1; 1; 1 ]))
        in
        Alcotest.(check bool) "store 1 ruled out for store=5 view" true
          (Irrelevance.provably_irrelevant ~schemas ~changes e);
        let changes5 =
          Delta.of_update (Update.insert "sales" (Helpers.ints [ 1; 5; 1 ]))
        in
        Alcotest.(check bool) "store 5 kept" false
          (Irrelevance.provably_irrelevant ~schemas ~changes:changes5 e));
    case "group_by over join" (fun () ->
        let product = Helpers.int_schema [ "sku"; "cat" ] in
        let db =
          Database.of_list
            [ ("sales", Helpers.rel sales base_rows);
              ("product", Helpers.rel product [ [ 1; 10 ]; [ 2; 20 ] ]) ]
        in
        let e =
          Algebra.group_by ~keys:[ "cat" ]
            ~aggregates:[ ("s", Algebra.Sum "qty") ]
            Algebra.(join (base "sales") (base "product"))
        in
        let out = Relation.contents (Eval.eval db e) in
        Alcotest.(check int) "cat 10: 5+3" 1
          (Bag.count out (Helpers.ints [ 10; 8 ]));
        Alcotest.(check int) "cat 20: 7+7" 1
          (Bag.count out (Helpers.ints [ 20; 14 ])));
    Helpers.qcheck ~count:200 "group_by delta == recompute"
      QCheck2.Gen.(
        Helpers.Delta_domain.db_gen >>= fun db ->
        Helpers.Delta_domain.changes_gen db >>= fun updates ->
        oneofl
          [ Algebra.group_by ~keys:[ "a1" ]
              ~aggregates:
                [ ("s", Algebra.Sum "a2"); ("n", Algebra.Count) ]
              (Algebra.base "R1");
            Algebra.group_by ~keys:[ "a0" ]
              ~aggregates:[ ("m", Algebra.Min "a1") ]
              (Algebra.base "R0");
            Algebra.group_by ~keys:[ "a1" ]
              ~aggregates:
                [ ("mx", Algebra.Max "a2"); ("av", Algebra.Avg "a2") ]
              Algebra.(join (base "R0") (base "R1")) ]
        >>= fun expr -> return (db, updates, expr))
      (fun (pre, updates, expr) ->
        let txn = Update.Transaction.make ~id:1 ~source:"s" updates in
        let changes = Delta.of_transaction txn in
        let post = Database.apply_transaction pre txn in
        let delta = Delta.eval ~pre changes expr in
        let before = Eval.eval_bag pre expr in
        let after = Eval.eval_bag post expr in
        Bag.equal (Signed_bag.apply delta before) after
        && Signed_bag.applies_exactly delta before);
    case "sales-rollup scenario is complete end to end" (fun () ->
        let scen = Workload.Scenarios.sales_rollup in
        let result =
          Whips.System.run
            { (Whips.System.default scen) with
              arrival = Whips.System.Poisson 50.0;
              seed = 3 }
        in
        let v = Whips.System.verdict result in
        Alcotest.(check bool) "complete" true v.complete;
        (* Spot-check a rollup value at the end. *)
        let expected =
          Relation.contents
            (Query.View.materialize
               (Source.Sources.current result.sources)
               (List.hd scen.views))
        in
        Alcotest.check Helpers.bag "qty_by_store" expected
          (Whips.System.view_contents result "qty_by_store"));
    case "aggregate views with batching managers stay strong" (fun () ->
        let scen = Workload.Scenarios.sales_rollup in
        let result =
          Whips.System.run
            { (Whips.System.default scen) with
              vm_kind = Whips.System.Batching_vm;
              arrival = Whips.System.Poisson 150.0;
              seed = 9 }
        in
        let v = Whips.System.verdict result in
        Alcotest.(check bool) "strong" true v.strongly_consistent);
    Helpers.qcheck ~count:300
      "maintained group state == oracle over random txn sequences"
      QCheck2.Gen.(int_bound 1_000_000)
      maintained_matches_oracle;
    case "group state: deleting the current max surfaces the next" (fun () ->
        let _, st = group_state_of [ [ 1; 4 ]; [ 1; 9 ]; [ 1; 9 ]; [ 1; 2 ] ] in
        let d1 =
          Group_state.step st (Signed_bag.singleton (ints [ 1; 9 ]) (-1))
        in
        Alcotest.check Helpers.signed_bag "one copy of 9 left: unchanged"
          Signed_bag.zero d1;
        let d2 =
          Group_state.step st (Signed_bag.singleton (ints [ 1; 9 ]) (-1))
        in
        Alcotest.check Helpers.signed_bag "max falls to 4"
          (Signed_bag.of_list
             [ (Helpers.ints [ 1; 2; 9 ], -1); (Helpers.ints [ 1; 2; 4 ], 1) ])
          d2);
    case "group state: a group empties out and reappears" (fun () ->
        let spec, st = group_state_of [ [ 1; 4 ]; [ 2; 6 ] ] in
        let d1 =
          Group_state.step st (Signed_bag.singleton (ints [ 1; 4 ]) (-1))
        in
        Alcotest.check Helpers.signed_bag "retracted"
          (Signed_bag.singleton (Helpers.ints [ 1; 4; 4 ]) (-1)) d1;
        Alcotest.(check int) "one group left" 1 (Group_state.group_count st);
        let d2 =
          Group_state.step st (Signed_bag.singleton (Helpers.ints [ 1; 8 ]) 1)
        in
        Alcotest.check Helpers.signed_bag "reinserted"
          (Signed_bag.singleton (Helpers.ints [ 1; 8; 8 ]) 1) d2;
        Alcotest.(check bool) "equals a fresh state" true
          (Group_state.equal st
             (Group_state.of_bag spec (Helpers.bag_of [ [ 1; 8 ]; [ 2; 6 ] ]))));
    case "group state: a wide Avg fetches members from the pre-state once"
      (fun () ->
        let avg = Group_state.Avg 1 in
        let spec =
          Group_state.spec ~key_pos:[| 0 |] ~aggs:[| (avg, Value.Int_ty) |]
        in
        let row members =
          Tuple.of_list [ Value.Int 1; Group_state.refold avg members ]
        in
        let pre = Helpers.bag_of [ [ 1; 1 ]; [ 1; 5 ] ] in
        let st = Group_state.of_bag spec pre in
        (* float (2^53 + 1) rounds to 2^53, so the fold's total is
           2^53 + 6, while the exact sum 2^53 + 7 rounds to 2^53 + 8. *)
        let big = Helpers.ints [ 1; (1 lsl 53) + 1 ] in
        let post = Bag.add big pre in
        let scans = ref 0 in
        let scan bag () = incr scans; bag in
        let d =
          Group_state.step ~pre_input:(scan pre) st (Signed_bag.singleton big 1)
        in
        Alcotest.(check int) "one scan" 1 !scans;
        Alcotest.check Helpers.signed_bag "refolded like a recompute"
          (Signed_bag.of_list [ (row pre, -1); (row post, 1) ])
          d;
        ignore
          (Group_state.step ~pre_input:(scan post) st
             (Signed_bag.singleton (Helpers.ints [ 1; 5 ]) (-1)));
        Alcotest.(check int) "members kept: no second scan" 1 !scans) ]
