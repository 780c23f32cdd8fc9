(* The repo benchmark.

     main.exe --workload serve_hot|serve_churn|paper_batch --seed N
              --seconds S --trace 0|1

   With --trace 0 it measures the end-to-end metrics with no tracing;
   with --trace 1 it runs the separate traced run and reports the
   per-layer metrics.  Lines before the last are a host/config stamp and
   a readable table; the last line is the result JSON. *)

(* name, unit; every workload reports every one of these *)
let end_to_end =
  [ ("setup_s", "s"); ("read_p50_ms", "ms"); ("read_p75_ms", "ms");
    ("saturated_qps", "1/s"); ("cert_per_s", "1/s"); ("exact_share", "share");
    ("peak_rss_mb", "MB") ]

(* Layers a workload does not exercise report 0 (the serve workloads
   never call Ceval; paper_batch never touches Sql, Cache, Service,
   Server or Wal). *)
let per_layer =
  [ ("sql.translate_us_p50", "us"); ("planner.fingerprint_us_p50", "us");
    ("cache.hit_ratio", "share"); ("cache.stale_per_lookup", "share");
    ("cache.evictions", "count"); ("cache.lookup_us_p50", "us");
    ("service.queue_wait_ms_p50", "ms"); ("service.queue_wait_ms_p99", "ms");
    ("service.degraded_ratio", "share"); ("certainty.ms_p50", "ms");
    ("certainty.tuples_per_call", "count"); ("scheme_pm.fallback_ms_p50", "ms");
    ("ceval.eager_ms", "ms"); ("ceval.semi_eager_ms", "ms"); ("ceval.lazy_ms", "ms");
    ("ceval.aware_ms", "ms"); ("ceval.ctuples_out", "count"); ("ceval.calls_per_s", "1/s");
    ("pool.tasks", "count"); ("pool.steal_success_ratio", "share"); ("pool.parks", "count");
    ("wal.appends", "count"); ("wal.fsyncs_per_update", "share");
    ("wal.bytes_per_user_byte", "share"); ("wal.append_us_p50", "us");
    ("update.ms_p50", "ms"); ("server.unattributed_ms_p50", "ms");
    ("server.bytes_per_response", "bytes"); ("loadgen.lag_ms_p99", "ms");
    ("loadgen.backlog_max", "count"); ("self.unattributed_ms", "ms");
    ("self.loadgen_wait_ms", "ms"); ("self.sql_ms", "ms"); ("self.planner_ms", "ms");
    ("self.service_queue_ms", "ms"); ("self.certainty_ms", "ms"); ("self.scheme_pm_ms", "ms");
    ("self.update_ms", "ms"); ("self.wal_ms", "ms"); ("self.ceval_eager_ms", "ms");
    ("self.ceval_semi_eager_ms", "ms"); ("self.ceval_lazy_ms", "ms");
    ("self.ceval_aware_ms", "ms"); ("trace.e2e_ms", "ms"); ("trace.untraced_e2e_ms", "ms");
    ("trace.overhead_ms", "ms"); ("trace.accounting_error", "share") ]

let usage () =
  prerr_endline
    "usage: main.exe --workload serve_hot|serve_churn|paper_batch --seed N \
     --seconds S --trace 0|1";
  exit 2

let () =
  (* a stop request still runs the at_exit hook that reaps the servers *)
  List.iter
    (fun signal -> Sys.set_signal signal (Sys.Signal_handle (fun _ -> exit 1)))
    [ Sys.sigterm; Sys.sigint ];
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string_opt v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed, seconds, traced =
    match (!seed, !seconds, !trace) with
    | Some s, Some t, Some (0 | 1 as tr) when t > 0.0 -> (s, t, tr = 1)
    | _ -> usage ()
  in
  let serve =
    match !workload with
    | "serve_hot" -> Some Serve_gen.serve_hot
    | "serve_churn" -> Some Serve_gen.serve_churn
    | "paper_batch" -> None
    | _ -> usage ()
  in
  if not (Sys.file_exists Serve_bench.server_bin) then begin
    prerr_endline ("missing " ^ Serve_bench.server_bin ^ ": run perfbench/run.sh");
    exit 1
  end;
  Printf.printf "# stamp %s\n%!"
    (Util.stamp
       [ ("workload", !workload); ("seed", string_of_int seed);
         ("seconds", Printf.sprintf "%g" seconds); ("trace", string_of_bool traced);
         ("fsync", Serve_gen.fsync);
         ("snapshot_every", string_of_int Serve_gen.snapshot_every);
         ("budget", string_of_int Serve_gen.budget);
         ("cache_entries", string_of_int Serve_gen.cache_entries);
         ("rate",
          match serve with Some w -> Printf.sprintf "%g" w.Serve_gen.rate | None -> "closed") ]);
  let print_rows rows =
    List.iter (fun (n, v, u) -> Printf.printf "# %-28s %14.4f %s\n" n v u) rows
  in
  let jiffies0 = Util.cpu_jiffies () in
  let finish ~names ~correct ~attempted ~failed ~notes values =
    print_rows [ ("host.steal_share", Util.steal_share jiffies0 (Util.cpu_jiffies ()), "share") ];
    List.iter (fun n -> Printf.printf "# note: %s\n" n) notes;
    let metrics =
      List.map
        (fun (name, unit_) ->
          { Util.name; unit_;
            value = Option.value ~default:0.0 (List.assoc_opt name values) })
        names
    in
    print_endline (Util.result_line ~correct ~attempted ~failed metrics);
    exit 0
  in
  let e2e_values rows = List.map (fun (n, v, _) -> (n, v)) rows in
  match (serve, traced) with
  | Some w, false ->
    let r = Serve_bench.run_e2e w ~seed ~seconds in
    print_rows (r.Serve_bench.metrics @ r.Serve_bench.extra);
    finish ~names:end_to_end ~correct:r.correct ~attempted:r.attempted ~failed:r.failed
      ~notes:r.notes (e2e_values r.metrics)
  | Some w, true ->
    let values, attempted, failed, notes = Serve_bench.run_traced w ~seed ~seconds in
    print_rows (List.map (fun (n, v) -> (n, v, List.assoc n per_layer)) values);
    finish ~names:per_layer ~correct:(notes = []) ~attempted ~failed ~notes values
  | None, false ->
    let metrics, extra, attempted, bad, notes = Paper_batch.run_e2e ~seed ~seconds in
    print_rows (metrics @ extra);
    finish ~names:end_to_end ~correct:(notes = []) ~attempted ~failed:bad ~notes
      (e2e_values metrics)
  | None, true ->
    let values, attempted, failed, notes = Paper_batch.run_traced ~seed ~seconds in
    print_rows (List.map (fun (n, v) -> (n, v, List.assoc n per_layer)) values);
    finish ~names:per_layer ~correct:(notes = []) ~attempted ~failed ~notes values
