(* Pinned trace digests for aggregate views.

   Each case runs a workload with Group_by views end to end and digests
   the committed warehouse history: every commit's simulated time (exact
   hex float), its warehouse transaction (rows and action lists with
   their signed deltas) and the full state vector after it. The digests
   were recorded with the original affected-group recomputation rule
   (which re-evaluated the whole pre-state input per transaction), so
   they pin the maintained per-group state to byte-identical traces —
   under complete, batching, self-maintaining, complete-N and
   convergent managers and the sequential strawman, at 1 and 4
   domains.

   A second set pins a chain-join workload (3-way join views, no
   Group_by) under complete, batching, complete-2, convergent, derived
   and self-maintaining managers. Those digests were recorded while every
   join delta still re-evaluated its pre-state sides, so they pin the
   maintained join-side indexes to byte-identical traces.

   A third set pins distributed (tenant-sharded) runs at 1, 2 and 4
   shards, complete and self-maintaining managers, with reliability off
   and with lossy links under the ARQ layer: each shard's committed
   history plus every served union read. *)

open Relational

let digest (r : Whips.System.result) =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  Format.pp_set_margin ppf 10_000;
  List.iter
    (fun (c : Warehouse.Store.commit) ->
      Format.fprintf ppf "%h|%a|" c.time Warehouse.Wt.pp c.transaction;
      List.iter
        (fun name ->
          Format.fprintf ppf "%s=%a;" name Bag.pp
            (Relation.contents (Database.find c.state name)))
        (Database.names c.state);
      Format.fprintf ppf "@\n")
    (Warehouse.Store.commits r.store);
  Format.pp_print_flush ppf ();
  Digest.to_hex (Digest.string (Buffer.contents buf))

let generated =
  Workload.Generator.generate
    { Workload.Generator.default with
      seed = 23;
      n_relations = 4;
      n_views = 5;
      n_transactions = 40;
      initial_tuples = 10;
      multi_update_prob = 0.3;
      aggregate_views = true }

let run ?(vm_overrides = []) ~vm ~domains scen =
  let merge_kind, vm_kind = vm in
  Whips.System.run
    { (Whips.System.default scen) with
      vm_kind;
      vm_overrides;
      merge_kind;
      arrival = Whips.System.Poisson 120.0;
      parallel =
        { Parallel.Config.domains; shards = domains; model_overlap = false };
      seed = 5 }

let vms =
  Whips.System.
    [ ("complete", (Auto, Complete_vm));
      ("batching", (Auto, Batching_vm));
      ("selfmaint", (Auto, Selfmaint_vm));
      ("complete-2", (Auto, Complete_n_vm 2));
      ("convergent", (Auto, Convergent_vm));
      ("sequential", (Sequential, Complete_vm)) ]

(* (scenario, manager, domains) -> digest, recorded before the change. *)
let pinned =
  [ ("sales-rollup", "complete", 1, "9520c67af37129b10bacf889f8fe9375");
    ("sales-rollup", "complete", 4, "9520c67af37129b10bacf889f8fe9375");
    ("sales-rollup", "batching", 1, "d4c25ebc7a4634a3ead44674dba712c6");
    ("sales-rollup", "batching", 4, "d4c25ebc7a4634a3ead44674dba712c6");
    ("sales-rollup", "selfmaint", 1, "9520c67af37129b10bacf889f8fe9375");
    ("sales-rollup", "selfmaint", 4, "9520c67af37129b10bacf889f8fe9375");
    ("random-23", "complete", 1, "689afd7375b934f3c2da098878f0da63");
    ("random-23", "complete", 4, "689afd7375b934f3c2da098878f0da63");
    ("random-23", "batching", 1, "d91e23356b2583193290480baad09db8");
    ("random-23", "batching", 4, "d91e23356b2583193290480baad09db8");
    ("random-23", "selfmaint", 1, "689afd7375b934f3c2da098878f0da63");
    ("random-23", "selfmaint", 4, "689afd7375b934f3c2da098878f0da63");
    ("sales-rollup", "complete-2", 1, "f2ad3df93b3e7932c4139e934cbdbdf4");
    ("sales-rollup", "convergent", 1, "d7ae8acd5b191238d1fae31100e9aa7a");
    ("sales-rollup", "sequential", 1, "3e6c5fd35f7131dc9e4072f900a9f397");
    ("random-23", "complete-2", 1, "7d601474fdb7d42ee32721dba5805952");
    ("random-23", "complete-2", 4, "7d601474fdb7d42ee32721dba5805952");
    ("random-23", "convergent", 1, "eb323dcb49c25b1a04d59fd5328ceb92");
    ("random-23", "sequential", 1, "cafb05d135737000366d49e255f480f8");
    ("random-23", "sequential", 4, "cafb05d135737000366d49e255f480f8") ]

let scenario = function
  | "sales-rollup" -> Workload.Scenarios.sales_rollup
  | _ -> generated

let has_group_by (scen : Workload.Scenarios.t) =
  List.length
    (List.filter
       (fun v ->
         match v.Query.View.def with Query.Algebra.Group_by _ -> true | _ -> false)
       scen.views)

(* ---- chain joins ---- *)

(* The chain-join benchmark's view shapes (generator seed 11 at its
   sizes: two 3-way joins among six views) over a small data set. *)
let chain =
  let gen ~seed ~initial_tuples ~value_range =
    Workload.Generator.generate
      { Workload.Generator.seed; n_sources = 3; n_relations = 6; n_views = 6;
        max_join_width = 3; initial_tuples; n_transactions = 40;
        multi_update_prob = 0.2; value_range; aggregate_views = false }
  in
  { (gen ~seed:31 ~initial_tuples:12 ~value_range:8) with
    Workload.Scenarios.views =
      (gen ~seed:11 ~initial_tuples:100 ~value_range:25).views }

let three_way (scen : Workload.Scenarios.t) =
  List.filter
    (fun v -> List.length (Query.Algebra.base_relations v.Query.View.def) = 3)
    scen.views

(* The derived run maintains the first 3-way view through two auxiliary
   views — its first two relations' join and a copy of the third — so
   the manager keeps join state at both levels. *)
let derived_override (scen : Workload.Scenarios.t) =
  let open Query.Algebra in
  let v = List.hd (three_way scen) in
  let aux = ref [] in
  let rec over = function
    | Join (Join (Base a, Base b), Base c) ->
      aux :=
        [ Query.View.make "aux_ab" (join (base a) (base b));
          Query.View.make "aux_c" (base c) ];
      join (base "aux_ab") (base "aux_c")
    | Select (p, e) -> Select (p, over e)
    | Project (names, e) -> Project (names, over e)
    | e -> e
  in
  let over_aux = over v.Query.View.def in
  [ (Query.View.name v, Whips.System.Derived_vm { aux = !aux; over_aux }) ]

let chain_vms =
  Whips.System.
    [ ("complete", ((Auto, Complete_vm), []));
      ("batching", ((Auto, Batching_vm), []));
      ("complete-2", ((Auto, Complete_n_vm 2), []));
      ("convergent", ((Auto, Convergent_vm), []));
      ("derived", ((Auto, Complete_vm), derived_override chain));
      ("selfmaint", ((Auto, Selfmaint_vm), [])) ]

(* (manager, domains) -> digest of the chain-join run, recorded before
   join state was maintained. *)
let chain_pinned =
  [ ("complete", 1, "52c40c1069ecb9dbde63769760801998");
    ("complete", 4, "52c40c1069ecb9dbde63769760801998");
    ("batching", 1, "d34837bef834e98a014ab3a8522d2c28");
    ("batching", 4, "d34837bef834e98a014ab3a8522d2c28");
    ("complete-2", 1, "4325c831010785e0f3d2b1c47ffe9e8c");
    ("complete-2", 4, "4325c831010785e0f3d2b1c47ffe9e8c");
    ("convergent", 1, "dec3e47fbfb6a82a58edc027de53b362");
    ("convergent", 4, "dec3e47fbfb6a82a58edc027de53b362");
    ("derived", 1, "52c40c1069ecb9dbde63769760801998");
    ("derived", 4, "52c40c1069ecb9dbde63769760801998");
    ("selfmaint", 1, "52c40c1069ecb9dbde63769760801998");
    ("selfmaint", 4, "52c40c1069ecb9dbde63769760801998") ]

let chain_tests =
  Helpers.case "chain workload carries several 3-way join views" (fun () ->
      Alcotest.(check bool) ">= 2 three-way joins" true
        (List.length (three_way chain) >= 2))
  :: List.map
       (fun (vm, domains, expected) ->
         Helpers.case
           (Printf.sprintf "chain-join %s domains %d reproduces its pinned digest"
              vm domains)
           (fun () ->
             let vm, vm_overrides = List.assoc vm chain_vms in
             let r = run ~vm_overrides ~vm ~domains chain in
             Alcotest.(check string) "digest" expected (digest r)))
       chain_pinned

(* ---- distributed warehouse ---- *)

(* A Dist run digests every shard's committed history (commit time,
   warehouse transaction, state vector after it) followed by every
   served union read: its session, legs, cut vector and the bag it
   returned. The digests were recorded while every union read
   re-stitched its legs at the cut, so they pin the maintained unions
   to byte-identical reads. *)
let dist_digest (r : Dist.System.result) =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  Format.pp_set_margin ppf 10_000;
  List.iter
    (fun (sh : Dist.System.shard_result) ->
      Format.fprintf ppf "shard %d@\n" sh.sh_id;
      List.iter
        (fun (c : Warehouse.Store.commit) ->
          Format.fprintf ppf "%h|%a|" c.time Warehouse.Wt.pp c.transaction;
          List.iter
            (fun name ->
              Format.fprintf ppf "%s=%a;" name Bag.pp
                (Relation.contents (Database.find c.state name)))
            (Database.names c.state);
          Format.fprintf ppf "@\n")
        (Warehouse.Store.commits sh.sh_store))
    r.shards;
  List.iter
    (fun (cr : Consistency.Checker.cut_read) ->
      Format.fprintf ppf "read %d|" cr.cr_session;
      List.iter (fun (s, leg) -> Format.fprintf ppf "%d:%s," s leg) cr.cr_legs;
      Format.fprintf ppf "|";
      List.iter (fun (s, v) -> Format.fprintf ppf "%d@%d," s v) cr.cr_vector;
      Format.fprintf ppf "|%a@\n" Bag.pp cr.cr_result)
    r.reads;
  Format.pp_print_flush ppf ();
  Digest.to_hex (Digest.string (Buffer.contents buf))

let tenants =
  Workload.Tenants.generate
    { Workload.Tenants.default with
      tenants = 6; n_transactions = 40; skew = 1.0; seed = 7 }

(* Lossy integ->shard and manager->merge links under the ARQ layer. *)
let dist_faults shards =
  Workload.Fault_plan.union
    (Workload.Fault_plan.random ~drop:0.15 ~duplicate:0.1 "integ->shard*"
    :: List.init shards (fun s ->
           Workload.Fault_plan.random ~drop:0.15
             (Printf.sprintf "*->merge%d" s)))

let dist_run ~shards ~selfmaint ~acked =
  let base = Dist.System.default ~shards tenants in
  let cfg =
    { base with selfmaint; union_reads = 12; read_sessions = 3; seed = 11 }
  in
  Dist.System.run
    (if acked then
       { cfg with
         fault_plan = dist_faults shards;
         reliability = Whips.System.Acked Sim.Reliable.default_params }
     else cfg)

(* (shards, manager, reliability) -> digest, recorded while every union
   read stitched its legs. *)
let dist_pinned =
  [ (1, "complete", "off", "47d15984d9ccfcc25b5c63dfd05f1128");
    (1, "complete", "acked", "d493bffef45ae410308891b063ee91dc");
    (1, "selfmaint", "off", "47d15984d9ccfcc25b5c63dfd05f1128");
    (1, "selfmaint", "acked", "d493bffef45ae410308891b063ee91dc");
    (2, "complete", "off", "2fb957b31648932a70c7631f8a71a882");
    (2, "complete", "acked", "80531eb93ecfd9e6931b79894f09cd06");
    (2, "selfmaint", "off", "2fb957b31648932a70c7631f8a71a882");
    (2, "selfmaint", "acked", "80531eb93ecfd9e6931b79894f09cd06");
    (4, "complete", "off", "f4cc1c49cad9fd44b574d5a9f8999247");
    (4, "complete", "acked", "a167961b000313e3d7de38e571694043");
    (4, "selfmaint", "off", "f4cc1c49cad9fd44b574d5a9f8999247");
    (4, "selfmaint", "acked", "a167961b000313e3d7de38e571694043") ]

let dist_tests =
  List.map
    (fun (shards, vm, rel, expected) ->
      Helpers.case
        (Printf.sprintf "dist %d shards %s %s reproduces its pinned digest"
           shards vm rel)
        (fun () ->
          let r =
            dist_run ~shards ~selfmaint:(vm = "selfmaint") ~acked:(rel = "acked")
          in
          Alcotest.(check bool) "drained" false r.stuck;
          if rel = "acked" then
            Alcotest.(check bool) "faults fired" true
              (Atomic.get r.metrics.Whips.Metrics.msgs_dropped > 0);
          Alcotest.(check string) "digest" expected (dist_digest r)))
    dist_pinned

let tests =
  Helpers.case "generated workload carries several Group_by views" (fun () ->
      Alcotest.(check bool) ">= 2 aggregate views" true
        (has_group_by generated >= 2))
  :: List.map
       (fun (scen, vm, domains, expected) ->
         Helpers.case
           (Printf.sprintf "%s %s domains %d reproduces its pinned digest" scen
              vm domains)
           (fun () ->
             let r = run ~vm:(List.assoc vm vms) ~domains (scenario scen) in
             Alcotest.(check string) "digest" expected (digest r)))
       pinned
  @ chain_tests
  @ dist_tests
