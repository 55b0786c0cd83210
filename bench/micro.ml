(* Bechamel micro-benchmarks: one [Test.make] per kernel underlying the
   experiment tables (VUT bookkeeping, painting-algorithm event handling,
   incremental delta computation, bag operations, the consistency oracle).
   Estimated via OLS on monotonic-clock samples. *)

open Bechamel
open Relational

(* Set by `bench/main.exe -quick`: shrink the measurement quota so the
   @bench-smoke alias exercises every kernel in a few seconds. *)
let quick = ref false

let int_schema names = Schema.make (List.map (fun n -> (n, Value.Int_ty)) names)

let random_bag seed n =
  let rng = Sim.Rng.create seed in
  let rec loop i acc =
    if i = 0 then acc
    else
      loop (i - 1)
        (Bag.add (Tuple.ints [ Sim.Rng.int rng 50; Sim.Rng.int rng 50 ]) acc)
  in
  loop n Bag.empty

(* Like [random_bag] but with values drawn from [0, range): at range ~ 2n
   tuples are mostly distinct, so an n-row relation really holds n rows
   rather than 2500 heavy-multiplicity ones. *)
let random_bag_wide seed n ~range =
  let rng = Sim.Rng.create seed in
  let rec loop i acc =
    if i = 0 then acc
    else
      loop (i - 1)
        (Bag.add (Tuple.ints [ Sim.Rng.int rng range; Sim.Rng.int rng range ]) acc)
  in
  loop n Bag.empty

let join_db n =
  let rs = int_schema [ "A"; "B" ] and ss = int_schema [ "B"; "C" ] in
  Database.of_list
    [ ("R", Relation.with_contents (Relation.create rs) (random_bag 1 n));
      ("S", Relation.with_contents (Relation.create ss) (random_bag 2 n)) ]

let join_db_wide n ~range =
  let rs = int_schema [ "A"; "B" ] and ss = int_schema [ "B"; "C" ] in
  Database.of_list
    [ ("R",
       Relation.with_contents (Relation.create rs)
         (random_bag_wide 1 n ~range));
      ("S",
       Relation.with_contents (Relation.create ss)
         (random_bag_wide 2 n ~range)) ]

let test_vut_lifecycle =
  Test.make ~name:"vut: 64-row add/color/purge lifecycle"
    (Staged.stage (fun () ->
         let views = [ "V1"; "V2"; "V3"; "V4" ] in
         let vut = Mvc.Vut.create ~views in
         for row = 1 to 64 do
           Mvc.Vut.add_row vut ~row ~rel:views
         done;
         for row = 1 to 64 do
           List.iter
             (fun view ->
               Mvc.Vut.set_color vut ~row ~view Mvc.Vut.Gray)
             views;
           Mvc.Vut.purge_row vut row
         done))

let test_vut_next_red =
  Test.make ~name:"vut: next_red scan over 256 live rows"
    (Staged.stage
       (let vut = Mvc.Vut.create ~views:[ "V" ] in
        for row = 1 to 256 do
          Mvc.Vut.add_row vut ~row ~rel:[ "V" ]
        done;
        Mvc.Vut.set_color vut ~row:256 ~view:"V" Mvc.Vut.Red;
        fun () -> ignore (Mvc.Vut.next_red vut ~row:1 ~view:"V")))

let drive_spa n_rows =
  let views = [ "V1"; "V2"; "V3" ] in
  let spa = Mvc.Spa.create ~views ~emit:(fun _ -> ()) () in
  for row = 1 to n_rows do
    Mvc.Spa.receive_rel spa ~row ~rel:views;
    List.iter
      (fun view ->
        Mvc.Spa.receive_action_list spa
          (Query.Action_list.delta ~view ~state:row Signed_bag.zero))
      views
  done

let test_spa =
  Test.make ~name:"spa: 64 updates x 3 views end to end"
    (Staged.stage (fun () -> drive_spa 64))

let drive_pa n_rows =
  let views = [ "V1"; "V2"; "V3" ] in
  let pa = Mvc.Pa.create ~views ~emit:(fun _ -> ()) () in
  for row = 1 to n_rows do
    Mvc.Pa.receive_rel pa ~row ~rel:views
  done;
  (* Each manager sends batched lists covering four rows at a time. *)
  List.iter
    (fun view ->
      let row = ref 4 in
      while !row <= n_rows do
        Mvc.Pa.receive_action_list pa
          (Query.Action_list.delta ~view ~state:!row Signed_bag.zero);
        row := !row + 4
      done)
    views

let test_pa =
  Test.make ~name:"pa: 64 updates x 3 views, batches of 4"
    (Staged.stage (fun () -> drive_pa 64))

let test_delta_join =
  Test.make ~name:"delta: single insert into 512-tuple join"
    (Staged.stage
       (let db = join_db 512 in
        let expr = Query.Algebra.(join (base "R") (base "S")) in
        let changes =
          Query.Delta.of_update (Update.insert "S" (Tuple.ints [ 7; 7 ]))
        in
        fun () -> ignore (Query.Delta.eval ~pre:db changes expr)))

let test_eval_join =
  Test.make ~name:"eval: full 512x512 natural join"
    (Staged.stage
       (let db = join_db 512 in
        let expr = Query.Algebra.(join (base "R") (base "S")) in
        fun () -> ignore (Query.Eval.eval_bag db expr)))

let test_bag_union =
  Test.make ~name:"bag: union of two 1024-tuple bags"
    (Staged.stage
       (let a = random_bag 3 1024 and b = random_bag 4 1024 in
        fun () -> ignore (Bag.union a b)))

let test_oracle =
  Test.make ~name:"oracle: verdict for a 20-txn SPA run"
    (Staged.stage
       (let scen =
          Workload.Generator.generate
            { Workload.Generator.default with seed = 5; n_transactions = 20 }
        in
        let result = Whips.System.run (Whips.System.default scen) in
        fun () -> ignore (Whips.System.verdict result)))

let test_system =
  Test.make ~name:"system: full 20-txn simulated run (SPA)"
    (Staged.stage
       (let scen =
          Workload.Generator.generate
            { Workload.Generator.default with seed = 5; n_transactions = 20 }
        in
        fun () -> ignore (Whips.System.run (Whips.System.default scen))))

let test_delta_pushdown =
  Test.make ~name:"delta: selective view, optimized vs raw definition"
    (Staged.stage
       (let db = join_db 512 in
        let raw =
          Query.Algebra.(
            select
              (Query.Pred.eq "A" (Value.Int 3))
              (join (base "R") (base "S")))
        in
        let optimized =
          Query.Optimize.optimize
            ~schemas:(fun n -> Database.schema db n)
            raw
        in
        let changes =
          Query.Delta.of_update (Update.insert "S" (Tuple.ints [ 3; 3 ]))
        in
        fun () ->
          ignore (Query.Delta.eval ~pre:db changes raw);
          ignore (Query.Delta.eval ~pre:db changes optimized)))

let test_delta_pushdown_only =
  Test.make ~name:"delta: optimized definition alone"
    (Staged.stage
       (let db = join_db 512 in
        let optimized =
          Query.Optimize.optimize
            ~schemas:(fun n -> Database.schema db n)
            Query.Algebra.(
              select
                (Query.Pred.eq "A" (Value.Int 3))
                (join (base "R") (base "S")))
        in
        let changes =
          Query.Delta.of_update (Update.insert "S" (Tuple.ints [ 3; 3 ]))
        in
        fun () -> ignore (Query.Delta.eval ~pre:db changes optimized)))

(* Ablation for the auxiliary-view trade (references [12]/[8]): the delta
   of V = R |><| S |><| T computed directly over base data vs through
   materialized RS and ST. *)
let three_way_db n =
  let rs = int_schema [ "A"; "B" ]
  and ss = int_schema [ "B"; "C" ]
  and ts = int_schema [ "C"; "D" ] in
  Database.of_list
    [ ("R", Relation.with_contents (Relation.create rs) (random_bag 11 n));
      ("S", Relation.with_contents (Relation.create ss) (random_bag 12 n));
      ("T", Relation.with_contents (Relation.create ts) (random_bag 13 n)) ]

let test_delta_direct_3way =
  Test.make ~name:"delta: V=R|><|S|><|T directly over base data (256 tuples)"
    (Staged.stage
       (let db = three_way_db 256 in
        let expr = Query.Algebra.(join_all [ base "R"; base "S"; base "T" ]) in
        let changes =
          Query.Delta.of_update (Update.insert "S" (Tuple.ints [ 7; 7 ]))
        in
        fun () -> ignore (Query.Delta.eval ~pre:db changes expr)))

let test_delta_via_aux =
  Test.make ~name:"delta: same V through materialized RS and ST"
    (Staged.stage
       (let db = three_way_db 256 in
        let rs_def = Query.Algebra.(join (base "R") (base "S")) in
        let st_def = Query.Algebra.(join (base "S") (base "T")) in
        let aux_db =
          Database.of_list
            [ ("RS", Query.Eval.eval db rs_def);
              ("ST", Query.Eval.eval db st_def) ]
        in
        let over_aux = Query.Algebra.(join (base "RS") (base "ST")) in
        let changes =
          Query.Delta.of_update (Update.insert "S" (Tuple.ints [ 7; 7 ]))
        in
        fun () ->
          let aux_changes =
            Query.Delta.changes_of_list
              [ ("RS", Query.Delta.eval ~pre:db changes rs_def);
                ("ST", Query.Delta.eval ~pre:db changes st_def) ]
          in
          ignore (Query.Delta.eval ~pre:aux_db aux_changes over_aux)))

(* Naive-vs-hash kernel ablation (the compiled positional hash kernel
   against the interpreted nested-loop reference). The headline pair is the
   join-delta kernel at 10k-row relations: a 32-update source batch against
   V = R |><| S, i.e. the work a batching view manager does per action
   list. The naive rule joins the 10k-row pre-state against the 32-row
   delta pairwise (320k Tuple.join calls, each re-resolving the shared
   attribute by name); the hash rule builds on the 32-row side and probes
   the 10k side positionally. *)

let delta_kernel_setup n =
  let range = 2 * n in
  let db = join_db_wide n ~range in
  let expr = Query.Algebra.(join (base "R") (base "S")) in
  let rng = Sim.Rng.create 42 in
  let updates =
    List.init 32 (fun _ ->
        Update.insert "S"
          (Tuple.ints [ Sim.Rng.int rng range; Sim.Rng.int rng range ]))
  in
  let changes =
    Query.Delta.changes_of_list
      (List.map (fun (u : Update.t) -> (u.relation, Update.to_delta u)) updates)
  in
  (db, expr, changes)

(* Force the columnar switch around one measured thunk: the historical
   "hash" kernels keep measuring the boxed positional path they were
   named for, with the columnar path measured by its own kernels. *)
let with_columnar flag f =
  let saved = !Columnar.enabled in
  Columnar.enabled := flag;
  Fun.protect ~finally:(fun () -> Columnar.enabled := saved) f

let test_delta_join_10k_hash =
  Test.make ~name:"kernel:delta-join-10k/hash"
    (Staged.stage
       (let db, expr, changes = delta_kernel_setup 10_000 in
        fun () ->
          with_columnar false (fun () ->
              ignore (Query.Delta.eval ~pre:db changes expr))))

let test_delta_join_10k_naive =
  Test.make ~name:"kernel:delta-join-10k/naive"
    (Staged.stage
       (let db, expr, changes = delta_kernel_setup 10_000 in
        fun () -> ignore (Query.Delta.eval ~naive:true ~pre:db changes expr)))

let test_eval_join_1k_hash =
  Test.make ~name:"kernel:eval-join-1k/hash"
    (Staged.stage
       (let db = join_db_wide 1000 ~range:1000 in
        let expr = Query.Algebra.(join (base "R") (base "S")) in
        fun () ->
          with_columnar false (fun () -> ignore (Query.Eval.eval_bag db expr))))

let test_eval_join_1k_naive =
  Test.make ~name:"kernel:eval-join-1k/naive"
    (Staged.stage
       (let db = join_db_wide 1000 ~range:1000 in
        let expr = Query.Algebra.(join (base "R") (base "S")) in
        fun () -> ignore (Query.Eval.eval_bag ~naive:true db expr)))

(* The headline kernel: steady-state incremental maintenance of
   V = R |><| S over 10k-row relations under a 32-update batch, on the
   columnar path. The first evaluation warms the relations' memoized
   chunks and int-keyed indexes (the setup does that eagerly); each
   measured run then probes the cached pre-state index with the 32
   delta rows — O(|delta|) — instead of scanning and re-indexing the
   10k-row side as the boxed kernel does. *)
let test_maintain_10k_columnar =
  Test.make ~name:"kernel:maintain-view-10k/columnar"
    (Staged.stage
       (let db, expr, changes = delta_kernel_setup 10_000 in
        with_columnar true (fun () ->
            ignore (Query.Delta.eval ~pre:db changes expr));
        fun () ->
          with_columnar true (fun () ->
              ignore (Query.Delta.eval ~pre:db changes expr))))

let test_maintain_10k_boxed =
  Test.make ~name:"kernel:maintain-view-10k/boxed"
    (Staged.stage
       (let db, expr, changes = delta_kernel_setup 10_000 in
        fun () ->
          with_columnar false (fun () ->
              ignore (Query.Delta.eval ~pre:db changes expr))))

let test_eval_join_1k_columnar =
  Test.make ~name:"kernel:eval-join-1k/columnar"
    (Staged.stage
       (let db = join_db_wide 1000 ~range:1000 in
        let expr = Query.Algebra.(join (base "R") (base "S")) in
        with_columnar true (fun () -> ignore (Query.Eval.eval_bag db expr));
        fun () ->
          with_columnar true (fun () -> ignore (Query.Eval.eval_bag db expr))))

let test_vut_guards_indexed =
  Test.make ~name:"kernel:vut-next-red-1k/hash"
    (Staged.stage
       (let vut = Mvc.Vut.create ~views:[ "V" ] in
        for row = 1 to 1024 do
          Mvc.Vut.add_row vut ~row ~rel:[ "V" ]
        done;
        Mvc.Vut.set_color vut ~row:1024 ~view:"V" Mvc.Vut.Red;
        fun () -> ignore (Mvc.Vut.next_red vut ~row:1 ~view:"V")))

let test_vut_guards_scan =
  Test.make ~name:"kernel:vut-next-red-1k/naive"
    (Staged.stage
       (let vut = Mvc.Vut.create ~views:[ "V" ] in
        for row = 1 to 1024 do
          Mvc.Vut.add_row vut ~row ~rel:[ "V" ]
        done;
        Mvc.Vut.set_color vut ~row:1024 ~view:"V" Mvc.Vut.Red;
        fun () ->
          (* The pre-index implementation: linear scan for the first red
             row after 1 (earlier_with is the retained scan path). *)
          ignore
            (Mvc.Vut.earlier_with vut ~row:1025 ~view:"V" (fun e ->
                 e.Mvc.Vut.color = Mvc.Vut.Red))))

(* Size independence of aggregate maintenance: one Group_by view shaped
   like the dashboard's (Sum, Max and Count by category over
   sales |><| product) with 1k or 50k sales rows. A run inserts one sale
   and deletes it again — two source updates, leaving the state where it
   started. The maintained rule touches one group per update, so its
   cost must not grow with the sales table; the stateless rule re-scans
   the whole pre-state input of the view per update. *)
let groupby_setup ~rows ~maintained =
  let rng = Sim.Rng.create 7 in
  let skus = 200 in
  let sale () =
    Tuple.ints
      [ Sim.Rng.int rng skus; Sim.Rng.int rng 10; 1 + Sim.Rng.int rng 10 ]
  in
  let db =
    Database.of_list
      [ ( "sales",
          Relation.of_tuples
            (int_schema [ "sku"; "store"; "qty" ])
            (List.init rows (fun _ -> sale ())) );
        ( "product",
          Relation.of_tuples
            (int_schema [ "sku"; "cat" ])
            (List.init skus (fun s -> Tuple.ints [ s; s mod 20 ])) ) ]
  in
  let expr =
    Query.Algebra.(
      group_by ~keys:[ "cat" ]
        ~aggregates:
          [ ("total_qty", Sum "qty"); ("max_qty", Max "qty"); ("n", Count) ]
        (join (base "sales") (base "product")))
  in
  let sale = Tuple.ints [ 7; 3; 10 ] in
  let post = Database.apply_update db (Update.insert "sales" sale) in
  let plan = Query.Compiled.compile ~lookup:(Database.schema db) expr in
  let insert = Query.Delta.of_update (Update.insert "sales" sale)
  and delete = Query.Delta.of_update (Update.delete "sales" sale) in
  (* The maintained state is seeded from the pre-state, as a manager
     seeds it from its initial replica. *)
  let state =
    if maintained then Some (Query.Compiled.state db plan) else None
  in
  fun () ->
    with_columnar true (fun () ->
        ignore (Query.Delta.eval_plan ?state ~pre:db insert plan);
        ignore (Query.Delta.eval_plan ?state ~pre:post delete plan))

let groupby_kernel rows maintained =
  Printf.sprintf "kernel:groupby-delta-%dk/%s" (rows / 1000)
    (if maintained then "maintained" else "stateless")

let test_groupby_delta rows maintained =
  Test.make ~name:(groupby_kernel rows maintained)
    (Staged.stage (groupby_setup ~rows ~maintained))

(* Size independence of join maintenance: the left-deep 3-way chain
   (R1(a,b) |><| R2(b,c)) |><| R3(c,d) with [rows] rows per relation,
   every join key matching exactly four rows on each side. A run inserts
   one row into the middle relation R2 and deletes it again (16 output
   rows each way), leaving the state where it started. Each run sees
   fresh R1 and R3 records, as a manager's replica does once other
   updates in its stream have touched them: the stateless rule then
   re-indexes both pre-state sides it probes (R1 at b, R3 at c), while
   the maintained rule probes its own side indexes, so its cost must
   not grow with the relations. *)
let join3_setup ~rows ~maintained =
  let keys = rows / 4 in
  let rel attrs f =
    Relation.of_tuples (int_schema attrs)
      (List.init rows (fun i -> Tuple.ints (f i)))
  in
  let r1 = rel [ "a"; "b" ] (fun i -> [ i; i mod keys ])
  and r2 = rel [ "b"; "c" ] (fun i -> [ i mod keys; (i * 7) mod keys ])
  and r3 = rel [ "c"; "d" ] (fun i -> [ i mod keys; i ]) in
  let db = Database.of_list [ ("R1", r1); ("R2", r2); ("R3", r3) ] in
  let expr = Query.Algebra.(join_all [ base "R1"; base "R2"; base "R3" ]) in
  let row = Tuple.ints [ 7; 7 ] in
  let post = Database.apply_update db (Update.insert "R2" row) in
  let plan = Query.Compiled.compile ~lookup:(Database.schema db) expr in
  let insert = Query.Delta.of_update (Update.insert "R2" row)
  and delete = Query.Delta.of_update (Update.delete "R2" row) in
  let state =
    if maintained then Some (Query.Compiled.state db plan) else None
  in
  (* Same contents, fresh record: no memoized index survives. *)
  let fresh db name =
    let rel = Database.find db name in
    Database.add name
      (Relation.with_contents
         (Relation.create (Relation.schema rel))
         (Relation.contents rel))
      db
  in
  let refresh db = fresh (fresh db "R1") "R3" in
  fun () ->
    with_columnar true (fun () ->
        ignore (Query.Delta.eval_plan ?state ~pre:(refresh db) insert plan);
        ignore (Query.Delta.eval_plan ?state ~pre:(refresh post) delete plan))

let join3_kernel rows maintained =
  Printf.sprintf "kernel:join3-delta-%dk/%s" (rows / 1000)
    (if maintained then "maintained" else "stateless")

let test_join3_delta rows maintained =
  Test.make ~name:(join3_kernel rows maintained)
    (Staged.stage (join3_setup ~rows ~maintained))

(* Ablation pairs reported in BENCH_kernel.json: (kernel, slow, fast) —
   naive vs hash for the historical pairs, boxed vs columnar for the
   columnar kernels. *)
let ablation_pairs =
  [ ( "maintain-view-10k",
      "kernel:maintain-view-10k/boxed",
      "kernel:maintain-view-10k/columnar" );
    ( "eval-join-1k-columnar",
      "kernel:eval-join-1k/hash",
      "kernel:eval-join-1k/columnar" );
    ("delta-join-10k", "kernel:delta-join-10k/naive", "kernel:delta-join-10k/hash");
    ("eval-join-1k", "kernel:eval-join-1k/naive", "kernel:eval-join-1k/hash");
    ("vut-next-red-1k", "kernel:vut-next-red-1k/naive", "kernel:vut-next-red-1k/hash");
    ("groupby-delta-1k", groupby_kernel 1000 false, groupby_kernel 1000 true);
    ( "groupby-delta-50k",
      groupby_kernel 50_000 false,
      groupby_kernel 50_000 true );
    ("join3-delta-1k", join3_kernel 1000 false, join3_kernel 1000 true);
    ("join3-delta-10k", join3_kernel 10_000 false, join3_kernel 10_000 true) ]

(* [test_maintain_10k_columnar] leads: its estimate is the
   first_kernel_ns_per_run headline that BENCH_summary.json and the
   regression gate track. *)
let tests =
  [ test_maintain_10k_columnar; test_maintain_10k_boxed;
    test_eval_join_1k_columnar; test_vut_lifecycle; test_vut_next_red;
    test_spa; test_pa; test_delta_join;
    test_eval_join; test_bag_union; test_delta_pushdown;
    test_delta_pushdown_only; test_delta_direct_3way; test_delta_via_aux;
    test_delta_join_10k_hash; test_delta_join_10k_naive;
    test_eval_join_1k_hash; test_eval_join_1k_naive; test_vut_guards_indexed;
    test_vut_guards_scan; test_oracle; test_system;
    test_groupby_delta 1000 true; test_groupby_delta 50_000 true;
    test_groupby_delta 1000 false; test_groupby_delta 50_000 false;
    test_join3_delta 1000 true; test_join3_delta 10_000 true;
    test_join3_delta 1000 false; test_join3_delta 10_000 false ]

(* Maintained per-update cost at the large size over the cost at the
   small one: the size-independence figures that [--check-regression]
   gates (Group_by at 50k / 1k sales rows, the 3-way join at 10k / 1k). *)
let size_ratio ~big ~small estimates =
  match (List.assoc_opt big estimates, List.assoc_opt small estimates) with
  | Some big, Some small when small > 0.0 -> Some (big /. small)
  | _ -> None

let groupby_size_ratio =
  size_ratio ~big:(groupby_kernel 50_000 true) ~small:(groupby_kernel 1000 true)

let join_size_ratio =
  size_ratio ~big:(join3_kernel 10_000 true) ~small:(join3_kernel 1000 true)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Machine-readable perf baseline (format documented in EXPERIMENTS.md):
   every kernel's ns/run plus the naive-vs-hash ablation pairs, so future
   PRs can diff the trajectory instead of eyeballing table output. *)
let ratio_field name = function
  | Some r -> Printf.sprintf ",\n  \"%s\": %.3f" name r
  | None -> ""

let write_json ~path estimates =
  let oc = open_out path in
  let kernels =
    List.map
      (fun (name, ns) ->
        Printf.sprintf "    { \"name\": \"%s\", \"ns_per_run\": %.1f }"
          (json_escape name) ns)
      estimates
  in
  let ablations =
    List.filter_map
      (fun (kernel, naive_name, hash_name) ->
        match (List.assoc_opt naive_name estimates,
               List.assoc_opt hash_name estimates)
        with
        | Some naive_ns, Some hash_ns when hash_ns > 0.0 ->
          Some
            (Printf.sprintf
               "    { \"kernel\": \"%s\", \"naive_ns\": %.1f, \"hash_ns\": \
                %.1f, \"speedup\": %.2f }"
               (json_escape kernel) naive_ns hash_ns (naive_ns /. hash_ns))
        | _ -> None)
      ablation_pairs
  in
  let headline =
    match estimates with (name, _) :: _ -> name | [] -> ""
  in
  Printf.fprintf oc
    "{\n\
    \  \"schema_version\": 1,\n\
    \  \"generated_by\": \"bench/main.exe micro\",\n\
    \  \"unit\": \"ns_per_run\",\n\
    \  \"quick\": %b,\n\
    \  \"headline_kernel\": \"%s\",\n\
    \  \"kernels\": [\n%s\n  ],\n\
    \  \"ablations\": [\n%s\n  ]%s%s\n\
     }\n"
    !quick (json_escape headline)
    (String.concat ",\n" kernels)
    (String.concat ",\n" ablations)
    (ratio_field "groupby_size_ratio" (groupby_size_ratio estimates))
    (ratio_field "join_size_ratio" (join_size_ratio estimates));
  close_out oc

let run () =
  Tables.section "micro-benchmarks (Bechamel, ns per run, OLS estimate)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let quota = if !quick then 0.05 else 0.25 in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second quota) ~stabilize:false ()
  in
  let estimates =
    List.concat_map
      (fun test ->
        let results = Benchmark.all cfg [ instance ] test in
        let analyzed = Analyze.all ols instance results in
        Hashtbl.fold
          (fun name ols_result acc ->
            match Analyze.OLS.estimates ols_result with
            | Some [ e ] -> (name, e) :: acc
            | Some _ | None -> acc)
          analyzed [])
      tests
  in
  let rows =
    List.map
      (fun (name, e) -> [ name; Printf.sprintf "%.0f ns" e ])
      estimates
  in
  Tables.print ~title:"kernel costs" ~header:[ "benchmark"; "time/run" ] rows;
  let speedups =
    List.filter_map
      (fun (kernel, naive_name, hash_name) ->
        match (List.assoc_opt naive_name estimates,
               List.assoc_opt hash_name estimates)
        with
        | Some naive_ns, Some hash_ns when hash_ns > 0.0 ->
          Some
            [ kernel; Printf.sprintf "%.0f ns" naive_ns;
              Printf.sprintf "%.0f ns" hash_ns;
              Printf.sprintf "%.1fx" (naive_ns /. hash_ns) ]
        | _ -> None)
      ablation_pairs
  in
  Tables.print ~title:"naive vs hash kernel ablation"
    ~header:[ "kernel"; "naive"; "hash"; "speedup" ]
    speedups;
  Option.iter
    (Printf.printf "groupby-delta per-update cost, 50k / 1k rows: %.2fx\n%!")
    (groupby_size_ratio estimates);
  Option.iter
    (Printf.printf "join3-delta per-update cost, 10k / 1k rows: %.2fx\n%!")
    (join_size_ratio estimates);
  write_json ~path:"BENCH_kernel.json" estimates;
  Printf.printf "wrote BENCH_kernel.json\n%!"
