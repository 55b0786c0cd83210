(* Maintained join state vs the interpreted oracle.

   A manager's plan state keeps, per Join node, one index over each
   side's pre-state output; the join rule probes them instead of
   evaluating the pre-state and advances them by the side deltas. These
   tests drive random batched insert/delete/modify sequences through a
   maintained state and check, after every step, that the maintained
   delta equals the stateless rule's and the interpreted oracle's, and
   that the state equals one seeded fresh from the post-state. *)

open Relational
open Query

let case = Helpers.case

(* R(a, b), S(b, c), T(c, d): a chain, joinable on b and on c. *)
let schema_of = function
  | "R" -> Helpers.int_schema [ "a"; "b" ]
  | "S" -> Helpers.int_schema [ "b"; "c" ]
  | _ -> Helpers.int_schema [ "c"; "d" ]

let relations = [| "R"; "S"; "T" |]

let views =
  Algebra.
    [ ("2-way", join (base "R") (base "S"));
      ("left-deep 3-way", join_all [ base "R"; base "S"; base "T" ]);
      ( "right-deep 3-way under a project",
        project [ "a"; "d" ] (join (base "R") (join (base "S") (base "T"))) );
      ( "self-join through a rename",
        join (base "R") (rename [ ("a", "a2") ] (base "R")) );
      ( "select-over-base sides",
        join
          (select (Pred.ge "a" (Value.Int 1)) (base "R"))
          (select (Pred.le "c" (Value.Int 1)) (base "S")) );
      ( "under a group_by",
        group_by ~keys:[ "c" ]
          ~aggregates:[ ("n", Count); ("s", Sum "a"); ("m", Max "d") ]
          (join_all [ base "R"; base "S"; base "T" ]) );
      ( "under a union",
        union
          (join (base "R") (base "S"))
          (join (select (Pred.eq "a" (Value.Int 0)) (base "R")) (base "S")) ) ]

(* Few keys, Null among them: join keys collide, empty out and
   reappear, and Null keys join with Null keys (Value.equal). *)
let random_tuple rng =
  let key () =
    match Random.State.int rng 4 with 0 -> Value.Null | k -> Value.Int (k - 1)
  in
  let plain () = Value.Int (Random.State.int rng 3) in
  function
  | "R" -> Tuple.of_list [ plain (); key () ]
  | "S" -> Tuple.of_list [ key (); key () ]
  | _ -> Tuple.of_list [ key (); plain () ]

(* One transaction: inserts, and deletes or modifies of live rows only,
   so every delta applies exactly. *)
let random_txn rng ~id db =
  let rec go db n acc =
    if n = 0 then (List.rev acc, db)
    else
      let name = relations.(Random.State.int rng 3) in
      let live = Bag.to_list (Relation.contents (Database.find db name)) in
      let pick () = List.nth live (Random.State.int rng (List.length live)) in
      let u =
        match (Random.State.int rng 3, live) with
        | 0, _ | _, [] -> Update.insert name (random_tuple rng name)
        | 1, _ -> Update.delete name (pick ())
        | _, _ ->
          Update.modify name ~before:(pick ()) ~after:(random_tuple rng name)
      in
      go (Database.apply_update db u) (n - 1) (u :: acc)
  in
  let updates, db = go db (1 + Random.State.int rng 3) [] in
  (Update.Transaction.make ~id ~source:"s" updates, db)

let initial_db rng =
  Database.of_list
    (Array.to_list
       (Array.map
          (fun name ->
            ( name,
              Relation.of_tuples (schema_of name)
                (List.init (Random.State.int rng 7) (fun _ ->
                     random_tuple rng name)) ))
          relations))

(* A random sequence of batches (1 to 3 transactions each, applied as
   one combined delta like Batching_vm) through a maintained state. *)
let maintained_matches_oracle seed =
  let rng = Random.State.make [| seed |] in
  let db0 = initial_db rng in
  let _, expr = List.nth views (seed mod List.length views) in
  let plan = Compiled.compile ~lookup:(Database.schema db0) expr in
  let state = Compiled.state db0 plan in
  let rec loop db step =
    step > 10
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

let db_of rows =
  Database.of_list
    (List.map (fun (name, ts) -> (name, Helpers.rel (schema_of name) ts)) rows)

let tests =
  [ Helpers.qcheck ~count:400
      "maintained join state == stateless == oracle over random batches"
      QCheck2.Gen.(int_bound 1_000_000)
      maintained_matches_oracle;
    case "a join key that empties out and reappears" (fun () ->
        let expr = Algebra.(join (base "R") (base "S")) in
        let db0 = db_of [ ("R", [ [ 1; 5 ] ]); ("S", [ [ 5; 9 ] ]) ] in
        let plan = Compiled.compile ~lookup:(Database.schema db0) expr in
        let state = Compiled.state db0 plan in
        let step db u =
          let changes = Delta.of_update u in
          let d = Delta.eval_plan ~state ~pre:db changes plan in
          Alcotest.check Helpers.signed_bag "maintained == oracle"
            (Delta.eval ~naive:true ~pre:db changes expr)
            d;
          let post = Database.apply_update db u in
          Alcotest.(check bool) "state == fresh" true
            (Compiled.state_equal state (Compiled.state post plan));
          (d, post)
        in
        let d, db = step db0 (Update.delete "S" (Helpers.ints [ 5; 9 ])) in
        Alcotest.check Helpers.signed_bag "retracted"
          (Signed_bag.singleton (Helpers.ints [ 1; 5; 9 ]) (-1)) d;
        let d, _ = step db (Update.insert "S" (Helpers.ints [ 5; 7 ])) in
        Alcotest.check Helpers.signed_bag "rejoined"
          (Signed_bag.singleton (Helpers.ints [ 1; 5; 7 ]) 1) d);
    case "state_equal sees join state" (fun () ->
        let expr = Algebra.(join (base "R") (base "S")) in
        let db = db_of [ ("R", [ [ 1; 5 ] ]); ("S", [ [ 5; 9 ] ]) ] in
        let other = db_of [ ("R", [ [ 2; 5 ] ]); ("S", [ [ 5; 9 ] ]) ] in
        let plan = Compiled.compile ~lookup:(Database.schema db) expr in
        Alcotest.(check bool) "same contents" true
          (Compiled.state_equal (Compiled.state db plan)
             (Compiled.state db plan));
        Alcotest.(check bool) "different left side" false
          (Compiled.state_equal (Compiled.state db plan)
             (Compiled.state other plan)));
    case "Bag_index.equal compares live entries only" (fun () ->
        let rows = [ (Helpers.ints [ 1; 2 ], 1); (Helpers.ints [ 3; 2 ], 2) ] in
        let a = Bag_index.of_counted ~key_pos:[| 1 |] rows in
        let b = Bag_index.of_counted ~key_pos:[| 1 |] (List.rev rows) in
        Alcotest.(check bool) "order-free" true (Bag_index.equal a b);
        let extra n = Signed_bag.singleton (Helpers.ints [ 4; 4 ]) n in
        Bag_index.apply_signed b (extra 1);
        Alcotest.(check bool) "extra entry" false (Bag_index.equal a b);
        Bag_index.apply_signed b (extra (-1));
        Alcotest.(check bool) "tombstone ignored" true (Bag_index.equal a b);
        Alcotest.(check bool) "key positions differ" false
          (Bag_index.equal a (Bag_index.of_counted ~key_pos:[| 0 |] rows))) ]
