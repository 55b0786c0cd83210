(* Folds every BENCH_*.json artifact in the working directory into one
   BENCH_summary.json: experiment name -> the headline number(s) each
   artifact reports. The artifacts are written by this harness with
   known key names, so extraction is a flat scan for `"key": value`
   pairs — no JSON parser needed (none is vendored), and a missing file
   or key simply drops out of the summary rather than failing. *)

(* Set by `bench/main.exe --check-regression`: after folding, compare
   the kernel headline against the last BENCH_history.jsonl entry for
   the same kernel and fail the run if it regressed. *)
let check_regression = ref false

(* Allowed headline slowdown before the gate trips. *)
let regression_factor = 1.5

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* First occurrence of ["key": <number>] in [content]. *)
let find_number content key =
  let needle = "\"" ^ key ^ "\":" in
  let nlen = String.length needle and clen = String.length content in
  let rec search i =
    if i + nlen > clen then None
    else if String.sub content i nlen = needle then begin
      let j = ref (i + nlen) in
      while
        !j < clen && (content.[!j] = ' ' || content.[!j] = '\n')
      do
        incr j
      done;
      let start = !j in
      while
        !j < clen
        && (match content.[!j] with
           | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
           | _ -> false)
      do
        incr j
      done;
      if !j > start then float_of_string_opt (String.sub content start (!j - start))
      else None
    end
    else search (i + 1)
  in
  search 0

(* First occurrence of ["key": "<string>"] in [content]. *)
let find_string content key =
  let needle = "\"" ^ key ^ "\":" in
  let nlen = String.length needle and clen = String.length content in
  let rec search i =
    if i + nlen > clen then None
    else if String.sub content i nlen = needle then begin
      let j = ref (i + nlen) in
      while !j < clen && (content.[!j] = ' ' || content.[!j] = '\n') do
        incr j
      done;
      if !j < clen && content.[!j] = '"' then begin
        let start = !j + 1 in
        let k = ref start in
        while !k < clen && content.[!k] <> '"' do
          incr k
        done;
        if !k < clen then Some (String.sub content start (!k - start)) else None
      end
      else None
    end
    else search (i + 1)
  in
  search 0

(* First occurrence of ["key": true/false] in [content]. *)
let find_bool content key =
  let needle = "\"" ^ key ^ "\":" in
  let nlen = String.length needle and clen = String.length content in
  let rec search i =
    if i + nlen > clen then None
    else if String.sub content i nlen = needle then begin
      let j = ref (i + nlen) in
      while !j < clen && (content.[!j] = ' ' || content.[!j] = '\n') do
        incr j
      done;
      let starts_with word =
        !j + String.length word <= clen
        && String.sub content !j (String.length word) = word
      in
      if starts_with "true" then Some true
      else if starts_with "false" then Some false
      else None
    end
    else search (i + 1)
  in
  search 0

(* The commit the run measured, read straight from .git (no subprocess):
   HEAD either holds the hash or names a ref whose file holds it. Any
   surprise degrades to "unknown" rather than failing the bench run. *)
let git_rev () =
  let read path =
    try Some (String.trim (read_file path)) with Sys_error _ -> None
  in
  match read ".git/HEAD" with
  | None -> "unknown"
  | Some head ->
    if String.length head >= 5 && String.sub head 0 5 = "ref: " then begin
      let ref_name = String.sub head 5 (String.length head - 5) in
      match read (Filename.concat ".git" ref_name) with
      | Some rev when rev <> "" -> rev
      | Some _ | None -> "unknown"
    end
    else if head <> "" then head
    else "unknown"

(* Per artifact: the headline metrics worth surfacing, as
   (json key in the artifact, summary label). *)
let catalogue =
  [ ( "BENCH_kernel.json",
      "micro",
      [ ("ns_per_run", "first_kernel_ns_per_run");
        ("groupby_size_ratio", "groupby_size_ratio");
        ("join_size_ratio", "join_size_ratio") ] );
    ( "BENCH_parallel.json",
      "parallel",
      [ ( "speedup_vs_sequential_at_4_domains",
          "modeled_speedup_at_4_domains" ) ] );
    ( "BENCH_resilience.json",
      "resilience",
      [ ("loss_rate", "first_loss_rate"); ("recoveries", "crash_recoveries");
        ("recovery_headline_s", "recovery_headline_s");
        ("wal_overhead_pct", "wal_overhead_pct") ] );
    ( "BENCH_serve.json",
      "serve",
      [ ("speedup_compiled", "read_path_speedup_compiled");
        ("speedup_cached", "read_path_speedup_cached") ] );
    ( "BENCH_shared.json",
      "shared",
      [ ("rows_reduction_at_degree_3", "rows_reduction_at_degree_3");
        ("mean_read_latency_ms", "invalidate_read_latency_ms") ] );
    ( "BENCH_dist.json",
      "dist",
      [ ("dist_merge_events_per_update", "dist_merge_events_per_update");
        ("tenant_scaling_ratio", "tenant_scaling_ratio") ] );
    ( "BENCH_selfmaint.json",
      "selfmaint",
      [ ("freshness_speedup_at_top_rate", "selfmaint_freshness_speedup");
        ("roundtrips_per_update", "selfmaint_roundtrips_per_update");
        ("aux_saved_cells_pct", "selfmaint_aux_saved_cells_pct") ] );
    ( "BENCH_merge.json",
      "merge",
      [ ("merge_saturation_speedup", "merge_saturation_speedup");
        ("saturation_rate_fused", "merge_saturation_rate_fused");
        ("coalesce_cancel_ratio", "merge_coalesce_cancel_ratio") ] ) ]

let history_path = "BENCH_history.jsonl"

let run () =
  Tables.section "summary: folding BENCH_*.json headline numbers";
  let entries =
    List.filter_map
      (fun (path, name, keys) ->
        if Sys.file_exists path then begin
          let content = read_file path in
          let found =
            List.filter_map
              (fun (key, label) ->
                Option.map (fun v -> (label, v)) (find_number content key))
              keys
          in
          Some (path, name, found)
        end
        else None)
      catalogue
  in
  let oc = open_out "BENCH_summary.json" in
  let entry_json (path, name, found) =
    let metrics =
      List.map
        (fun (label, v) -> Printf.sprintf "      \"%s\": %g" label v)
        found
    in
    Printf.sprintf
      "    { \"experiment\": \"%s\", \"artifact\": \"%s\",\n\
       \      \"headline\": {\n%s\n      } }"
      name path
      (String.concat ",\n" (List.map (fun m -> "  " ^ m) metrics))
  in
  Printf.fprintf oc
    "{\n\
    \  \"schema_version\": 1,\n\
    \  \"generated_by\": \"bench/main.exe summary\",\n\
    \  \"experiments\": [\n%s\n  ]\n\
     }\n"
    (String.concat ",\n" (List.map entry_json entries));
  close_out oc;
  List.iter
    (fun (path, name, found) ->
      Printf.printf "  %-12s %-24s %s\n" name path
        (String.concat ", "
           (List.map (fun (l, v) -> Printf.sprintf "%s=%g" l v) found)))
    entries;
  Printf.printf "wrote BENCH_summary.json (%d artifacts)\n%!"
    (List.length entries);
  (* The kernel headline this run measured (name, ns, quick). *)
  let headline =
    if Sys.file_exists "BENCH_kernel.json" then begin
      let content = read_file "BENCH_kernel.json" in
      match
        ( find_string content "headline_kernel",
          find_number content "ns_per_run",
          find_bool content "quick" )
      with
      | Some name, Some ns, quick ->
        Some (name, ns, Option.value ~default:false quick)
      | _ -> None
    end
    else None
  in
  (* The last recorded run of the same headline kernel at the same
     measurement quota — what the regression gate compares against.
     Read before this run is appended. *)
  let previous =
    match headline with
    | None -> None
    | Some (name, _, quick) ->
      if not (Sys.file_exists history_path) then None
      else
        List.fold_left
          (fun acc line ->
            match
              ( find_string line "headline_kernel",
                find_number line "headline_ns",
                find_bool line "quick" )
            with
            | Some n, Some ns, Some q when n = name && q = quick ->
              Some (ns, Option.value ~default:"unknown" (find_string line "git_rev"))
            | _ -> acc)
          None
          (String.split_on_char '\n' (read_file history_path))
  in
  (* Last recorded resilience recovery headline, read before this run is
     appended (same discipline as the kernel gate above). *)
  let previous_recovery =
    if not (Sys.file_exists history_path) then None
    else
      List.fold_left
        (fun acc line ->
          match find_number line "recovery_headline_s" with
          | Some v when v > 0.0 ->
            Some (v, Option.value ~default:"unknown" (find_string line "git_rev"))
          | _ -> acc)
        None
        (String.split_on_char '\n' (read_file history_path))
  in
  (* Last recorded selfmaint freshness speedup (same discipline). This
     one is bigger-is-better, so the gate below inverts the
     comparison. *)
  let previous_selfmaint =
    if not (Sys.file_exists history_path) then None
    else
      List.fold_left
        (fun acc line ->
          match find_number line "selfmaint_freshness_speedup" with
          | Some v when v > 0.0 ->
            Some (v, Option.value ~default:"unknown" (find_string line "git_rev"))
          | _ -> acc)
        None
        (String.split_on_char '\n' (read_file history_path))
  in
  (* Last recorded distributed tenant-scaling ratio (same discipline). *)
  let previous_dist =
    if not (Sys.file_exists history_path) then None
    else
      List.fold_left
        (fun acc line ->
          match find_number line "tenant_scaling_ratio" with
          | Some v when v > 0.0 ->
            Some (v, Option.value ~default:"unknown" (find_string line "git_rev"))
          | _ -> acc)
        None
        (String.split_on_char '\n' (read_file history_path))
  in
  (* Last recorded merge fast-path saturation speedup (same discipline;
     bigger-is-better like the selfmaint gate). *)
  let previous_merge =
    if not (Sys.file_exists history_path) then None
    else
      List.fold_left
        (fun acc line ->
          match find_number line "merge_saturation_speedup" with
          | Some v when v > 0.0 ->
            Some (v, Option.value ~default:"unknown" (find_string line "git_rev"))
          | _ -> acc)
        None
        (String.split_on_char '\n' (read_file history_path))
  in
  (* Append this run's headlines — one JSON line per run, so the perf
     trajectory accumulates across commits instead of being overwritten
     like BENCH_summary.json. *)
  let all_metrics =
    List.concat_map (fun (_, _, found) -> found) entries
  in
  (* A rerun at the same commit and quota adds nothing to the trajectory:
     skip the row when the last one has the same git_rev and quick flag
     (earlier rows are left as they are). *)
  let rev = git_rev ()
  and quick = match headline with Some (_, _, q) -> q | None -> false in
  let last_row =
    if not (Sys.file_exists history_path) then None
    else
      List.fold_left
        (fun acc line -> if String.trim line = "" then acc else Some line)
        None
        (String.split_on_char '\n' (read_file history_path))
  in
  let duplicate =
    match last_row with
    | Some line ->
      find_string line "git_rev" = Some rev
      && find_bool line "quick" = Some quick
    | None -> false
  in
  if duplicate then
    Printf.printf "%s already ends with %s (quick %b): not appended\n%!"
      history_path rev quick
  else begin
    let oc = open_out_gen [ Open_append; Open_creat ] 0o644 history_path in
    Printf.fprintf oc
      "{ \"git_rev\": \"%s\", \"quick\": %b%s, \"metrics\": { %s } }\n"
      rev quick
      (match headline with
      | Some (name, ns, _) ->
        Printf.sprintf ", \"headline_kernel\": \"%s\", \"headline_ns\": %.1f"
          name ns
      | None -> "")
      (String.concat ", "
         (List.map
            (fun (label, v) -> Printf.sprintf "\"%s\": %g" label v)
            all_metrics));
    close_out oc;
    Printf.printf "appended %s\n%!" history_path
  end;
  if !check_regression then begin
    match (headline, previous) with
    | Some (name, ns, _), Some (prev_ns, prev_rev) ->
      if prev_ns > 0.0 && ns > regression_factor *. prev_ns then begin
        Printf.printf
          "REGRESSION: %s at %.1f ns/run, %.2fx the %.1f ns/run recorded at \
           %s (gate: %.1fx)\n\
           %!"
          name ns (ns /. prev_ns) prev_ns prev_rev regression_factor;
        exit 1
      end
      else
        Printf.printf "regression gate: %s at %.1f ns/run vs %.1f (ok)\n%!"
          name ns prev_ns
    | Some (name, ns, _), None ->
      Printf.printf
        "regression gate: no prior history for %s (recorded %.1f ns/run)\n%!"
        name ns
    | None, _ ->
      Printf.printf "regression gate: no kernel headline to check\n%!"
  end;
  (* Maintenance must not grow with the base tables: the maintained
     Group_by delta at 50k rows, and the maintained 3-way join delta at
     10k rows, may each cost at most the factor times its cost at 1k
     rows. Absolute gates (no history needed). *)
  if !check_regression then
    List.iter
      (fun (metric, what, big) ->
        match List.assoc_opt metric all_metrics with
        | Some r when r > regression_factor ->
          Printf.printf
            "REGRESSION: %s delta at %s rows costs %.2fx its cost at 1k rows \
             (gate: %.1fx)\n\
             %!"
            what big r regression_factor;
          exit 1
        | Some r ->
          Printf.printf "regression gate: %s size ratio %.2fx (ok)\n%!" what r
        | None ->
          Printf.printf "regression gate: no %s size ratio to check\n%!" what)
      [ ("groupby_size_ratio", "groupby", "50k");
        ("join_size_ratio", "join3", "10k") ];
  (* Resilience headline: warehouse-crash recovery time at the default
     checkpoint cadence. Simulated seconds — fully deterministic — so
     any growth beyond the factor is a real protocol regression, not
     measurement noise. *)
  if !check_regression then begin
    let current = List.assoc_opt "recovery_headline_s" all_metrics in
    match (current, previous_recovery) with
    | Some cur, Some (prev_s, prev_rev) ->
      if prev_s > 0.0 && cur > regression_factor *. prev_s then begin
        Printf.printf
          "REGRESSION: warehouse-crash recovery at %.4f s, %.2fx the %.4f s \
           recorded at %s (gate: %.1fx)\n\
           %!"
          cur (cur /. prev_s) prev_s prev_rev regression_factor;
        exit 1
      end
      else
        Printf.printf
          "regression gate: recovery headline %.4f s vs %.4f (ok)\n%!" cur
          prev_s
    | Some cur, None ->
      Printf.printf
        "regression gate: no prior recovery headline (recorded %.4f s)\n%!"
        cur
    | None, _ ->
      Printf.printf "regression gate: no recovery headline to check\n%!"
  end;
  (* Distributed headline: per-shard merge load growth when the tenant
     population quadruples at a fixed shard count. Sharding by tenant
     should keep this ~1.0; a jump past the factor means routing or the
     per-shard merge started doing per-tenant work again. *)
  if !check_regression then begin
    let current = List.assoc_opt "tenant_scaling_ratio" all_metrics in
    match (current, previous_dist) with
    | Some cur, Some (prev_r, prev_rev) ->
      if prev_r > 0.0 && cur > regression_factor *. prev_r then begin
        Printf.printf
          "REGRESSION: dist tenant-scaling ratio at %.4f, %.2fx the %.4f \
           recorded at %s (gate: %.1fx)\n\
           %!"
          cur (cur /. prev_r) prev_r prev_rev regression_factor;
        exit 1
      end
      else
        Printf.printf
          "regression gate: dist scaling ratio %.4f vs %.4f (ok)\n%!" cur
          prev_r
    | Some cur, None ->
      Printf.printf
        "regression gate: no prior dist scaling ratio (recorded %.4f)\n%!" cur
    | None, _ ->
      Printf.printf "regression gate: no dist scaling ratio to check\n%!"
  end;
  (* Self-maintenance headline: freshness speedup over Strobe at the top
     benched rate. Bigger is better, so the gate trips when the speedup
     FALLS below 1/factor of the last recorded run — the selfmaint path
     started paying round trips (the roundtrips gate below catches the
     literal case) or lost its latency edge. Simulated time, so any
     move past the factor is structural, not noise. *)
  if !check_regression then begin
    let current = List.assoc_opt "selfmaint_freshness_speedup" all_metrics in
    (match (current, previous_selfmaint) with
    | Some cur, Some (prev_s, prev_rev) ->
      if prev_s > 0.0 && cur < prev_s /. regression_factor then begin
        Printf.printf
          "REGRESSION: selfmaint freshness speedup at %.2fx, down from \
           %.2fx recorded at %s (gate: %.1fx)\n\
           %!"
          cur prev_s prev_rev regression_factor;
        exit 1
      end
      else
        Printf.printf
          "regression gate: selfmaint speedup %.2fx vs %.2fx (ok)\n%!" cur
          prev_s
    | Some cur, None ->
      Printf.printf
        "regression gate: no prior selfmaint speedup (recorded %.2fx)\n%!"
        cur
    | None, _ ->
      Printf.printf "regression gate: no selfmaint speedup to check\n%!");
    (* Round trips per update must stay pinned at zero — that is the
       whole point of the subsystem. *)
    match List.assoc_opt "selfmaint_roundtrips_per_update" all_metrics with
    | Some rtpu when rtpu > 0.0 ->
      Printf.printf
        "REGRESSION: selfmaint issued %.3f source round trips per update \
         (must be 0)\n\
         %!"
        rtpu;
      exit 1
    | Some _ ->
      Printf.printf "regression gate: selfmaint round trips/update = 0 (ok)\n%!"
    | None ->
      Printf.printf "regression gate: no selfmaint round-trip count to check\n%!"
  end;
  (* Merge fast-path headline: how much further the fused path pushes
     the merge's saturation point past per-message merging. Bigger is
     better — the gate trips when the speedup falls below 1/factor of
     the last recorded run (the fast path stopped amortizing service
     events, or per-message merging mysteriously sped up). Simulated
     time, so any move past the factor is structural. *)
  if !check_regression then begin
    let current = List.assoc_opt "merge_saturation_speedup" all_metrics in
    match (current, previous_merge) with
    | Some cur, Some (prev_s, prev_rev) ->
      if prev_s > 0.0 && cur < prev_s /. regression_factor then begin
        Printf.printf
          "REGRESSION: merge saturation speedup at %.2fx, down from %.2fx \
           recorded at %s (gate: %.1fx)\n\
           %!"
          cur prev_s prev_rev regression_factor;
        exit 1
      end
      else
        Printf.printf
          "regression gate: merge saturation speedup %.2fx vs %.2fx (ok)\n%!"
          cur prev_s
    | Some cur, None ->
      Printf.printf
        "regression gate: no prior merge saturation speedup (recorded \
         %.2fx)\n\
         %!"
        cur
    | None, _ ->
      Printf.printf "regression gate: no merge saturation speedup to check\n%!"
  end
