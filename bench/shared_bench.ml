(* S: shared-plan delta engine ablations. Two sweeps land in
   BENCH_shared.json (format documented in EXPERIMENTS.md):

   - overlap: view-overlap degree x update count on a six-view workload.
     Degree d means the six views form 6/d families, each family d
     sigma/pi variants over its own R_f |><| S_f — so d views share one
     join subplan and a transaction fans out to d managers. Each point
     runs sharing off (every view evaluates its own compiled delta
     plan) and sharing on (the Shared.Engine DAG maintains the join
     once and serves the memoized delta to the other d-1 views, probing
     the materialized intermediate's index instead of re-hashing the
     pre-state). Work is measured as kernel rows — tuples the join
     kernel ingested or probed (Query.Compiled.kernel_rows), with the
     identical initialization work subtracted via a zero-transaction
     run — plus wall clock; every point asserts the final warehouse
     states and commit trace are identical to the unshared run.

   - refresh: the PR 3 serve read path (fact |><| dim view, a read mix
     against the versioned result cache) with the cache's
     invalidate-on-commit policy against incremental refresh
     (Serve.Result_cache.commit pushes each commit's narrow per-view
     deltas through the cached query's delta plan, keeping entries
     valid across commits). Hit ratio and mean read latency per mode.

   [sharedsmoke] is the fast deterministic variant wired to the
   `@shared-smoke` dune alias: sharing on must produce byte-identical
   commits, states and verdicts on both runtimes and across domain
   counts, must cut kernel rows by >= 2x at overlap degree 3, and the
   refresh path must actually refresh. On aggregate views, sharing on vs
   off also compares the stateless Group_by rule (which shared plans
   keep) against the managers' maintained per-group state. Exits
   nonzero on any failure. *)

open Relational
open Whips

let quick () = !Micro.quick

(* ---- the overlap workload: six views, degree-d subplan sharing ---- *)

(* Families get disjoint base pairs, so subplans are shared within a
   family and nothing is shared across families. The delta side R_f is
   small and the probed side S_f big: an unshared delta pass re-hashes
   S_f per referring view, the engine probes its materialized index. *)
let overlap_scenario ~degree ~rows ~txns =
  assert (6 mod degree = 0);
  let families = 6 / degree in
  let range = 2 * rows in
  let rs = Parallel_bench.int_schema [ "A"; "B" ]
  and ss = Parallel_bench.int_schema [ "B"; "C" ] in
  let specs =
    List.concat
      (List.init families (fun f ->
           let spec rel sch seed n =
             { Source.Sources.source = Printf.sprintf "src%d" f;
               relation = rel;
               init =
                 Relation.with_contents (Relation.create sch)
                   (Parallel_bench.random_bag_wide seed n ~range) }
           in
           [ spec (Printf.sprintf "R%d" f) rs (10 + f) (max 10 (rows / 10));
             spec (Printf.sprintf "S%d" f) ss (50 + f) rows ]))
  in
  let views =
    List.concat
      (List.init families (fun f ->
           let joined =
             Query.Algebra.(
               join
                 (base (Printf.sprintf "R%d" f))
                 (base (Printf.sprintf "S%d" f)))
           in
           List.init degree (fun j ->
               let def =
                 if j = 0 then joined
                 else
                   Query.Algebra.select
                     (Query.Pred.lt "A" (Value.Int (range * j / degree)))
                     joined
               in
               Query.View.make (Printf.sprintf "V%d" ((f * degree) + j)) def)))
  in
  let rng = Sim.Rng.create 23 in
  let script =
    List.init txns (fun i ->
        let rel = Printf.sprintf "R%d" (i mod families) in
        let tuple () =
          Tuple.ints [ Sim.Rng.int rng range; Sim.Rng.int rng range ]
        in
        [ Update.insert rel (tuple ()); Update.insert rel (tuple ()) ])
  in
  { Workload.Scenarios.name = Printf.sprintf "overlap-d%d" degree;
    specs; views; script }

let run_overlap ~shared ~domains scen =
  System.run
    { (System.default scen) with
      merge_kind = System.Sequential;
      arrival = System.Uniform 0.02;
      parallel =
        { Parallel.Config.domains; shards = domains; model_overlap = false };
      shared_plans = shared;
      seed = 9 }

(* Kernel rows charged to delta maintenance alone: the same scenario
   with an empty script prices initialization (store materialization,
   engine DAG construction) and is subtracted out. *)
let delta_rows ~shared scen =
  let scen0 = { scen with Workload.Scenarios.script = [] } in
  let r0 = Query.Compiled.kernel_rows () in
  ignore (run_overlap ~shared ~domains:1 scen0);
  let init_rows = Query.Compiled.kernel_rows () - r0 in
  let r1 = Query.Compiled.kernel_rows () in
  let t0 = Unix.gettimeofday () in
  let res = run_overlap ~shared ~domains:1 scen in
  let wall = Unix.gettimeofday () -. t0 in
  let rows = Query.Compiled.kernel_rows () - r1 - init_rows in
  (res, rows, wall)

type overlap_point = {
  p_degree : int;
  p_txns : int;
  p_rows_off : int;
  p_rows_on : int;
  p_ratio : float;
  p_wall_off : float;
  p_wall_on : float;
  p_hits : int;
  p_misses : int;
  p_identical : bool;
}

let overlap_point ~degree ~rows ~txns =
  let scen = overlap_scenario ~degree ~rows ~txns in
  let off, p_rows_off, p_wall_off = delta_rows ~shared:false scen in
  let on, p_rows_on, p_wall_on = delta_rows ~shared:true scen in
  let p_identical =
    Parallel_bench.signatures_equal (Parallel_bench.signature off)
      (Parallel_bench.signature on)
  in
  if not p_identical then
    failwith
      (Printf.sprintf "sharing changed the trace at degree %d" degree);
  let m = on.System.metrics in
  { p_degree = degree; p_txns = txns; p_rows_off; p_rows_on;
    p_ratio =
      (if p_rows_on = 0 then Float.infinity
       else float_of_int p_rows_off /. float_of_int p_rows_on);
    p_wall_off; p_wall_on;
    p_hits = Atomic.get m.Metrics.shared_hits;
    p_misses = Atomic.get m.Metrics.shared_misses;
    p_identical }

let overlap_sweep () =
  let rows = if quick () then 1_000 else 5_000 in
  let txn_counts = if quick () then [ 6 ] else [ 12; 36 ] in
  List.concat_map
    (fun txns ->
      List.map
        (fun degree -> overlap_point ~degree ~rows ~txns)
        [ 1; 2; 3; 6 ])
    txn_counts

(* ---- refresh vs invalidate on the serve read path ---- *)

(* One wide fact |><| dim view; every commit touches it with a narrow
   delta, so invalidate-on-commit throws the whole cached result away
   while incremental refresh folds a couple of rows in and keeps the
   entry valid at the new version. *)
let refresh_scenario ~rows ~txns =
  let range = 2 * rows in
  let fs = Parallel_bench.int_schema [ "A"; "B" ]
  and ds = Parallel_bench.int_schema [ "B"; "C" ] in
  let views =
    [ Query.View.make "VJ" Query.Algebra.(join (base "F") (base "D")) ]
  in
  let rng = Sim.Rng.create 29 in
  let script =
    List.init txns (fun _ ->
        [ Update.insert "F"
            (Tuple.ints [ Sim.Rng.int rng range; Sim.Rng.int rng 64 ]) ])
  in
  { Workload.Scenarios.name = "refresh-fact-dim";
    specs =
      [ { Source.Sources.source = "src1";
          relation = "F";
          init =
            Relation.with_contents (Relation.create fs)
              (let rng = Sim.Rng.create 3 in
               let rec loop i acc =
                 if i = 0 then acc
                 else
                   loop (i - 1)
                     (Bag.add
                        (Tuple.ints
                           [ Sim.Rng.int rng range; Sim.Rng.int rng 64 ])
                        acc)
               in
               loop rows Bag.empty) };
        { Source.Sources.source = "src2";
          relation = "D";
          init =
            Relation.with_contents (Relation.create ds)
              (Bag.of_list
                 (List.init 64 (fun i -> Tuple.ints [ i; 1000 + i ]))) } ];
    views;
    script }

type refresh_point = {
  r_refresh : bool;
  r_reads : int;
  r_hit_ratio : float;
  r_latency_ms : float;
  r_refreshed : int;
  r_fallbacks : int;
  r_wall : float;
}

let refresh_point ~refresh ~n_reads scen =
  (* Latest-guarantee sessions only: refresh keeps the one cached
     entry valid at the head, which is where Latest reads land.
     Sessions pinning old versions (bounded staleness, as-of) are
     indifferent — advancing the entry past their version wins and
     loses the same reads — so they would only blur the comparison. *)
  let reads =
    { System.default_reads with
      sessions = [ (Serve.Session.Latest, 6) ];
      n_reads;
      read_arrival = System.Poisson 400.0;
      as_of_fraction = 0.0;
      cache_refresh = refresh;
      queries = [ Query.Algebra.base "VJ" ] }
  in
  let t0 = Unix.gettimeofday () in
  let r =
    System.run
      { (System.default scen) with
        merge_kind = System.Auto;
        arrival = System.Uniform 0.02;
        reads = Some reads;
        seed = 9 }
  in
  let r_wall = Unix.gettimeofday () -. t0 in
  let m = r.System.metrics in
  { r_refresh = refresh;
    r_reads = Atomic.get m.Metrics.reads;
    r_hit_ratio = Metrics.cache_hit_ratio m;
    r_latency_ms = 1000.0 *. Sim.Stats.Summary.mean m.Metrics.read_latency;
    r_refreshed = Atomic.get m.Metrics.cache_refreshes;
    r_fallbacks = Atomic.get m.Metrics.cache_refresh_fallbacks;
    r_wall }

let refresh_sweep () =
  let rows = if quick () then 1_000 else 10_000 in
  let txns = if quick () then 8 else 24 in
  let n_reads = if quick () then 60 else 240 in
  let scen = refresh_scenario ~rows ~txns in
  [ refresh_point ~refresh:false ~n_reads scen;
    refresh_point ~refresh:true ~n_reads scen ]

(* ---- reporting ---- *)

let headline points =
  (* kernel-rows reduction at overlap degree 3, largest update count. *)
  List.fold_left
    (fun acc p -> if p.p_degree = 3 then p.p_ratio else acc)
    1.0 points

let write_json ~path ~overlap ~refresh =
  let oc = open_out path in
  let overlap_json =
    List.map
      (fun p ->
        Printf.sprintf
          "    { \"degree\": %d, \"transactions\": %d, \"kernel_rows_off\": \
           %d, \"kernel_rows_on\": %d, \"rows_reduction\": %.2f, \
           \"wall_off_s\": %.3f, \"wall_on_s\": %.3f, \"shared_hits\": %d, \
           \"shared_misses\": %d, \"identical_trace\": %b }"
          p.p_degree p.p_txns p.p_rows_off p.p_rows_on p.p_ratio p.p_wall_off
          p.p_wall_on p.p_hits p.p_misses p.p_identical)
      overlap
  in
  let refresh_json =
    List.map
      (fun r ->
        Printf.sprintf
          "    { \"refresh\": %b, \"reads\": %d, \"cache_hit_ratio\": %.3f, \
           \"mean_read_latency_ms\": %.3f, \"refreshed\": %d, \
           \"refresh_fallbacks\": %d, \"wall_s\": %.3f }"
          r.r_refresh r.r_reads r.r_hit_ratio r.r_latency_ms r.r_refreshed
          r.r_fallbacks r.r_wall)
      refresh
  in
  Printf.fprintf oc
    "{\n\
    \  \"schema_version\": 1,\n\
    \  \"generated_by\": \"bench/main.exe shared\",\n\
    \  \"quick\": %b,\n\
    \  \"note\": \"kernel_rows counts tuples the join kernel ingested or \
     probed during delta maintenance (initialization subtracted); \
     identical_trace asserts sharing never changed commits, completion \
     instants or view contents. The refresh sweep compares the result \
     cache's invalidate-on-commit policy against incremental refresh on \
     the fact|><|dim read path.\",\n\
    \  \"overlap_sweep\": [\n%s\n  ],\n\
    \  \"rows_reduction_at_degree_3\": %.2f,\n\
    \  \"refresh_sweep\": [\n%s\n  ]\n\
     }\n"
    (quick ())
    (String.concat ",\n" overlap_json)
    (headline overlap)
    (String.concat ",\n" refresh_json);
  close_out oc

let run () =
  Tables.section "S: shared-plan delta engine (overlap x updates, refresh)";
  let overlap = overlap_sweep () in
  Tables.print
    ~title:"subplan sharing: kernel rows per run (six views)"
    ~header:
      [ "degree"; "txns"; "rows off"; "rows on"; "reduction"; "wall off";
        "wall on"; "memo" ]
    (List.map
       (fun p ->
         [ string_of_int p.p_degree; string_of_int p.p_txns;
           string_of_int p.p_rows_off; string_of_int p.p_rows_on;
           Printf.sprintf "%.2fx" p.p_ratio;
           Printf.sprintf "%.2f s" p.p_wall_off;
           Printf.sprintf "%.2f s" p.p_wall_on;
           Printf.sprintf "%d/%d" p.p_hits (p.p_hits + p.p_misses) ])
       overlap);
  let refresh = refresh_sweep () in
  Tables.print
    ~title:"result cache: invalidate-on-commit vs incremental refresh"
    ~header:
      [ "policy"; "reads"; "hit ratio"; "read latency"; "refreshed";
        "fallbacks"; "wall" ]
    (List.map
       (fun r ->
         [ (if r.r_refresh then "refresh" else "invalidate");
           string_of_int r.r_reads;
           Printf.sprintf "%.3f" r.r_hit_ratio;
           Printf.sprintf "%.3f ms" r.r_latency_ms;
           string_of_int r.r_refreshed; string_of_int r.r_fallbacks;
           Printf.sprintf "%.2f s" r.r_wall ])
       refresh);
  write_json ~path:"BENCH_shared.json" ~overlap ~refresh;
  Printf.printf "wrote BENCH_shared.json\n%!"

(* ---- @shared-smoke: semantics, determinism and the 2x floor ---- *)

let sharedsmoke () =
  Tables.section "shared-smoke: sharing is invisible and >= 2x cheaper";
  let failures = ref [] in
  let check name ok =
    Printf.printf "shared-smoke %-34s %s\n%!" name
      (if ok then "ok" else "FAILED");
    if not ok then failures := name :: !failures
  in
  (* Sequential runtime: sharing on/off identical, >= 2x fewer rows. *)
  let scen = overlap_scenario ~degree:3 ~rows:600 ~txns:6 in
  let off, rows_off, _ = delta_rows ~shared:false scen in
  let on, rows_on, _ = delta_rows ~shared:true scen in
  check "sequential: identical trace"
    (Parallel_bench.signatures_equal (Parallel_bench.signature off)
       (Parallel_bench.signature on));
  check
    (Printf.sprintf "kernel rows %d -> %d (>= 2x)" rows_off rows_on)
    (rows_on * 2 <= rows_off);
  (* Sharing on must stay deterministic across domain counts. *)
  let base = Parallel_bench.signature on in
  check "sequential: domains 1/2/4 identical"
    (List.for_all
       (fun d ->
         Parallel_bench.signatures_equal base
           (Parallel_bench.signature (run_overlap ~shared:true ~domains:d scen)))
       [ 2; 4 ]);
  (* Pipelined runtime: complete managers route through the engine. *)
  let run_pipe ~shared ~domains =
    System.run
      { (System.default scen) with
        merge_kind = System.Auto;
        arrival = System.Uniform 0.02;
        parallel =
          { Parallel.Config.domains; shards = domains; model_overlap = false };
        shared_plans = shared;
        seed = 9 }
  in
  let pipe_off = run_pipe ~shared:false ~domains:1 in
  let pipe_on = run_pipe ~shared:true ~domains:1 in
  check "pipelined: identical trace"
    (Parallel_bench.signatures_equal (Parallel_bench.signature pipe_off)
       (Parallel_bench.signature pipe_on));
  check "pipelined: engine was exercised"
    (Atomic.get pipe_on.System.metrics.Metrics.shared_hits > 0);
  check "pipelined: verdict unchanged"
    (System.verdict pipe_off = System.verdict pipe_on);
  check "pipelined: domains 1/2/4 identical"
    (List.for_all
       (fun d ->
         Parallel_bench.signatures_equal
           (Parallel_bench.signature pipe_on)
           (Parallel_bench.signature (run_pipe ~shared:true ~domains:d)))
       [ 2; 4 ]);
  (* Aggregate views: shared plans keep the stateless Group_by rule while
     unshared managers maintain per-group state, so sharing on vs off
     compares the two rules trace for trace. *)
  let aggregate_scens =
    [ Workload.Scenarios.sales_rollup;
      Workload.Generator.generate
        { Workload.Generator.default with
          seed = 23; n_relations = 4; n_views = 5; n_transactions = 40;
          initial_tuples = 10; multi_update_prob = 0.3;
          aggregate_views = true } ]
  in
  List.iter
    (fun (scen : Workload.Scenarios.t) ->
      List.iter
        (fun (runtime, merge) ->
          let run shared =
            System.run
              { (System.default scen) with
                merge_kind = merge;
                arrival = System.Uniform 0.02;
                shared_plans = shared;
                seed = 9 }
          in
          let stateless = run true and maintained = run false in
          check
            (Printf.sprintf "%s %s: maintained == stateless" scen.name runtime)
            (Parallel_bench.signatures_equal
               (Parallel_bench.signature stateless)
               (Parallel_bench.signature maintained)
            && System.verdict stateless = System.verdict maintained))
        [ ("sequential", System.Sequential); ("pipelined", System.Auto) ])
    aggregate_scens;
  (* Refresh path: entries actually advance in place. *)
  let refresh =
    refresh_point ~refresh:true ~n_reads:40 (refresh_scenario ~rows:400 ~txns:6)
  in
  check "cache refresh: entries advanced" (refresh.r_refreshed > 0);
  if !failures = [] then
    Printf.printf "shared-smoke: all checks passed\n%!"
  else begin
    Printf.printf "shared-smoke: FAILED (%s)\n%!"
      (String.concat ", " (List.rev !failures));
    exit 1
  end
