(* The two serve workloads: the end-to-end run against the real
   [incdb serve --listen --data DIR] binary, and the traced run that
   replays the same request stream through an in-process Server with the
   benchmark's own handler. *)

open Incdb

let server_bin = "_build/default/bin/main.exe"
let warmup_s = 0.5
let checked_reads = 16

(* every child process, so an early exit can still stop and reap it *)
let children : int list ref = ref []

let reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  children := List.filter (( <> ) pid) !children

let () = at_exit (fun () -> List.iter reap !children)

let kv_pairs s =
  List.filter_map
    (fun w ->
      match String.index_opt w '=' with
      | Some i -> Some (String.sub w 0 i, String.sub w (i + 1) (String.length w - i - 1))
      | None -> None)
    (String.split_on_char ' ' s)

let int_field pairs k = Option.value ~default:0 (Option.bind (List.assoc_opt k pairs) int_of_string_opt)

(* ------------------------------------------------------------------ *)
(* the real server                                                      *)
(* ------------------------------------------------------------------ *)

type server = { pid : int; out : Loadgen.conn; port : int; log : string }

let server_args dir =
  [| server_bin; "serve"; "--listen"; "127.0.0.1:0"; "--data"; dir;
     "--budget"; string_of_int Serve_gen.budget;
     "--cache"; string_of_int Serve_gen.cache_entries;
     "--fsync"; Serve_gen.fsync;
     "--snapshot-every"; string_of_int Serve_gen.snapshot_every |]

let start_server ~dir ~log =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
  let args = server_args dir in
  let pid = Unix.create_process args.(0) args in_r out_w err in
  children := pid :: !children;
  List.iter Unix.close [ out_w; in_r; in_w; err ];
  let out =
    { Loadgen.fd = out_r; partial = ""; lines = []; sent = 0; cur = None;
      idle_since = 0.0; alive = true }
  in
  let line = try Loadgen.read_line ~timeout:60.0 out with _ -> "" in
  match Scanf.sscanf_opt line "listening on %s@:%d" (fun _ p -> p) with
  | Some port -> { pid; out; port; log }
  | None ->
    reap pid;
    failwith ("server did not start: " ^ line ^ " " ^ Util.read_file log)

(* "#drain", then the exit status and the drain summary *)
let stop_server s conn =
  (try ignore (Loadgen.request conn "#drain") with _ -> ());
  let rec rest acc =
    match Loadgen.read_line ~timeout:30.0 s.out with
    | l -> rest (l :: acc)
    | exception _ -> List.rev acc
  in
  let summary = rest [] in
  Loadgen.close conn;
  Loadgen.close s.out;
  let status =
    match Unix.waitpid [] s.pid with
    | _, Unix.WEXITED 0 -> true
    | _ -> false
    | exception Unix.Unix_error _ -> false
  in
  children := List.filter (( <> ) s.pid) !children;
  let invariant =
    List.exists (fun l -> Loadgen.starts_with "-- drain:" l && String.ends_with ~suffix:"invariant ok" l) summary
  in
  status && invariant

(* set-up: a fresh copy of the generated directory, the process start
   (CSV load, WAL open), and the warm-up reads, one at a time; a reply
   that is not a plain answer is counted as a failure *)
let warm_up ?(prefix = "") c texts =
  List.fold_left
    (fun bad sql ->
      match Loadgen.numbered (Loadgen.request c (prefix ^ sql)) with
      | Some (_, rest) when Loadgen.starts_with "ok (" rest || Loadgen.starts_with "degraded (" rest -> bad
      | _ -> bad + 1)
    0 texts

let setup ~root ~gen ~warm i =
  let dir = Filename.concat root (Printf.sprintf "data%d" i) in
  let t0 = Util.now () in
  Util.copy_dir gen dir;
  let s = start_server ~dir ~log:(Filename.concat root (Printf.sprintf "server%d.log" i)) in
  let c = Loadgen.connect s.port in
  let bad = warm_up c warm in
  (s, c, Util.now () -. t0, List.length warm, bad)

(* ------------------------------------------------------------------ *)
(* correctness: streamed re-reads against an in-process reference       *)
(* ------------------------------------------------------------------ *)

(* Re-issue [checked_reads] of the run's distinct read texts (the
   [lineitem_probe] among them when the run read it) against the final
   state (every update was undone, so it is the generated database
   again), first as plain lines, which the run's "cert:" cache entries
   answer, then with "#stream on", which has cache entries of its own,
   and compare each answer with the reference on the benchmark's own
   copy: cert⊥ for an exact answer, Q+ for a degraded one.  Returns
   (checked, mismatches). *)
let check_reads ~seed conn db texts =
  let schema = Database.schema db in
  let rng = Random.State.make [| seed; 77 |] in
  let texts = Array.copy texts in
  let n = Array.length texts in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = texts.(i) in
    texts.(i) <- texts.(j);
    texts.(j) <- t
  done;
  let sample =
    let rest = List.filter (( <> ) Serve_gen.lineitem_probe) (Array.to_list texts) in
    let probe = if Array.mem Serve_gen.lineitem_probe texts then [ Serve_gen.lineitem_probe ] else [] in
    Array.of_list (probe @ List.filteri (fun i _ -> i < checked_reads - List.length probe) rest)
  in
  let reference sql ~degraded =
    let q = Sql.To_algebra.translate_string schema sql in
    if degraded then Some (Scheme_pm.certain_sub db q)
    else
      (* exact answers were computed within the budget; the reference
         gets twice as much *)
      match
        Certainty.cert_with_nulls_ra ~guard:(Guard.create ~budget:(2 * Serve_gen.budget) ()) db q
      with
      | r -> Some r
      | exception Guard.Interrupt _ -> None
  in
  let bad = ref 0 in
  let verdict sql how ok =
    if not ok then begin
      incr bad;
      Printf.eprintf "check: %s mismatch on %s\n%!" how sql
    end
  in
  Array.iter
    (fun sql ->
      let line = Loadgen.request conn sql in
      verdict sql "line"
        (match Loadgen.numbered line with
         | Some (_, rest) -> (
           let expect ~degraded k =
             Option.map Relation.cardinal (reference sql ~degraded) = Some k
           in
           match Loadgen.read_outcome rest with
           | Loadgen.Exact k -> expect ~degraded:false k
           | Loadgen.Degraded k -> expect ~degraded:true k
           | _ -> false)
         | None -> false))
    sample;
  ignore (Loadgen.request conn "#stream on");
  Array.iter
    (fun sql ->
      verdict sql "streamed"
        (match Loadgen.stream_read conn sql with
         | Error _ -> false
         | Ok (items, count, degraded) -> (
           match reference sql ~degraded with
           | Some r -> items = Handler.render_tuples r && count = Some (Relation.cardinal r)
           | None -> false)))
    sample;
  ignore (Loadgen.request conn "#stream off");
  (2 * Array.length sample, !bad)

(* ------------------------------------------------------------------ *)
(* correctness: the count in every reply of the run                     *)
(* ------------------------------------------------------------------ *)

(* Every read of a run must report the count the in-process reference
   (Q+ on the benchmark's own copy) gives on a state the read may have
   seen: the generated database plus some of the inserted rows.  A row
   is surely present when its insert was acknowledged before the read
   was sent and its delete was not sent before the reply came, and
   possibly present when the two spans overlap at all; the stream keeps
   one insert open at a time, so at most two rows are in doubt.  Q+ is
   the reference for exact replies too: with nulls in part, a read of
   these workloads finishes within the budget only when its answer is
   empty (an absent key, or the probe with no insert open), and then
   cert⊥ and Q+ are both empty.  Cache hits are
   checked with the rest, so a stale hit or a missed invalidation shows
   as a count out of range.  Returns (reads checked, wrong counts). *)
let check_counts db (recs : Loadgen.record list) =
  let schema = Database.schema db in
  let queries = Hashtbl.create 256 and counts = Hashtbl.create 256 in
  let query sql =
    match Hashtbl.find_opt queries sql with
    | Some q -> q
    | None ->
      let q = Sql.To_algebra.translate_string schema sql in
      Hashtbl.replace queries sql q;
      q
  in
  let count ?row sql =
    match Hashtbl.find_opt counts (sql, row) with
    | Some k -> k
    | None ->
      let db = match row with Some (rel, t) -> Database.add_tuple db rel t | None -> db in
      let k = Relation.cardinal (Scheme_pm.certain_sub db (query sql)) in
      Hashtbl.replace counts (sql, row) k;
      k
  in
  let deletes = Hashtbl.create 1024 in
  List.iter (fun (r : Loadgen.record) -> if r.req.after >= 0 then Hashtbl.replace deletes r.req.after r) recs;
  (* (relation, row), its insert, and its delete once sent *)
  let rows =
    List.filter_map
      (fun (r : Loadgen.record) ->
        match Handler.parse_update r.req.line with
        | Some (`Insert, rel, body) ->
          let row = Handler.tuple_of_body ~next_null:(ref 0) body in
          Some ((rel, row), r, Hashtbl.find_opt deletes r.req.id)
        | _ -> None)
      recs
  in
  let updated = List.sort_uniq compare (List.map (fun ((rel, _), _, _) -> rel) rows) in
  let checked = ref 0 and bad = ref 0 in
  List.iter
    (fun (r : Loadgen.record) ->
      match r.outcome with
      | Loadgen.Exact k | Loadgen.Degraded k ->
        incr checked;
        let sql = r.req.line in
        let base = count sql in
        let rels = Algebra.relations (query sql) in
        let lo, hi =
          if not (List.exists (fun rel -> List.mem rel rels) updated) then (base, base)
          else
            List.fold_left
              (fun (lo, hi) (((rel, _) as row), (ins : Loadgen.record), del) ->
                let possibly =
                  ins.sent < r.recv
                  && match del with Some (d : Loadgen.record) -> d.recv > r.sent | None -> true
                in
                if not (possibly && List.mem rel rels) then (lo, hi)
                else begin
                  let delta = count ~row sql - base in
                  let surely =
                    ins.recv < r.sent
                    && match del with Some (d : Loadgen.record) -> d.sent > r.recv | None -> true
                  in
                  if surely then (lo + delta, hi + delta)
                  else (lo + min 0 delta, hi + max 0 delta)
                end)
              (base, base) rows
        in
        if k < lo || k > hi then begin
          incr bad;
          if !bad <= 5 then Printf.eprintf "check: %d tuples, expected %d..%d, on %s\n%!" k lo hi sql
        end
      | Loadgen.Updated | Loadgen.Failed _ -> ())
    recs;
  (!checked, !bad)

(* ------------------------------------------------------------------ *)
(* shared run shape                                                     *)
(* ------------------------------------------------------------------ *)

let schedule stream ~rate ~start ~duration =
  let n = int_of_float (rate *. duration) in
  Array.init n (fun i -> (Serve_gen.next stream, start +. (float_of_int i /. rate)))

let is_read (r : Loadgen.record) =
  match r.req.kind with Serve_gen.Read _ -> true | Serve_gen.Update -> false

let failed (r : Loadgen.record) =
  match r.outcome with Loadgen.Failed _ -> true | _ -> false

let latency_ms (r : Loadgen.record) = (r.recv -. r.due) *. 1000.0

(* undo a still-open insert, untimed, so the final state is the
   generated database; returns its record and whether it failed *)
let close_updates ?wire ~done_at stream conn =
  match Serve_gen.closing_update stream with
  | None -> ([], 0)
  | Some req -> (
    match Loadgen.run ?wire ~done_at [ conn ] (Loadgen.Open [| (req, Util.now ()) |]) with
    | { Loadgen.records = [ r ]; _ } when not (failed r) -> ([ r ], 0)
    | { Loadgen.records; _ } -> (records, 1))

let lag_valid_ms = 25.0

(* ------------------------------------------------------------------ *)
(* end-to-end run                                                       *)
(* ------------------------------------------------------------------ *)

(* One end-to-end run is [sub_runs] independent sub-runs, each on a
   fresh server over a fresh copy of the generated directory, with its
   own request stream.  How one server process's domains get scheduled
   moves its latencies by up to a fifth, so a run reports the median of
   its sub-runs.  A sub-run whose timed phases Util.steal_valid rejects
   is set aside (its requests are still checked) and another is made in
   its place, at most [spare_sub_runs] times; a run left with fewer than
   [sub_runs] uncontended sub-runs is marked invalid. *)
let sub_runs = 3
let spare_sub_runs = 3

type sub = {
  setup : float;
  open_recs : Loadgen.record list;  (** measured window only *)
  all_recs : Loadgen.record list;
  closed_recs : Loadgen.record list;  (** closed loop, inside its window *)
  rss : float;
  backlog : int;
  lost : int;  (** requests with no terminal line *)
  warmed : int;  (** set-up reads *)
  checked : int;  (** final-state re-reads *)
  mismatches : int;
  counted : int;  (** replies whose count was checked *)
  wrong_counts : int;
  problems : string list;
  stats_line : string;
  steal : float;  (** host steal share during the timed phases *)
}

(* serve_hot's untimed cache check after the timed phases (see
   Serve_gen.probe_cycles) *)
let probe_cycles = 8

let sub_run (w : Serve_gen.workload) ~seed ~index ~root ~gen db ~seconds =
  let stream = Serve_gen.stream w ~seed:((1000 * seed) + index) db in
  let s, c0, setup_s, warmed, warm_bad = setup ~root ~gen ~warm:(Serve_gen.warm_texts stream) index in
  let c1 = Loadgen.connect s.port in
  let start = Util.now () +. 0.05 in
  let sched = schedule stream ~rate:w.rate ~start ~duration:(warmup_s +. seconds) in
  let done_at = Hashtbl.create 4096 in
  let closed_s = Float.max 1.0 (seconds /. 3.0) in
  let (open_run, t_closed, closed_run), steal =
    Util.with_steal (fun () ->
        let open_run = Loadgen.run ~done_at [ c0; c1 ] (Loadgen.Open sched) in
        let t_closed = Util.now () in
        ( open_run,
          t_closed,
          Loadgen.run ~done_at [ c0; c1 ]
            (Loadgen.Closed ((fun () -> Serve_gen.next stream), t_closed +. closed_s)) ))
  in
  let in_window =
    List.filter (fun (r : Loadgen.record) -> r.recv <= t_closed +. closed_s) closed_run.records
  in
  let closing, unclosed = close_updates ~done_at stream c0 in
  let cycles =
    match w.hot_texts with
    | None -> []
    | Some _ ->
      let now = Util.now () in
      let reqs = Serve_gen.probe_cycles stream ~cycles:probe_cycles in
      (Loadgen.run ~done_at [ c0 ] (Loadgen.Open (Array.of_list (List.map (fun r -> (r, now)) reqs))))
        .records
  in
  let counted, wrong_counts =
    check_counts db (open_run.records @ closed_run.records @ closing @ cycles)
  in
  let checked, mismatches = check_reads ~seed:((1000 * seed) + index) c0 db (Serve_gen.distinct_texts stream) in
  let counters = kv_pairs (Loadgen.request c0 "#counters") in
  let stats_line = Loadgen.request c0 "#stats" in
  let rss = Util.peak_rss_mb s.pid in
  Loadgen.close c1;
  let clean_exit = stop_server s c0 in
  (* the quiescent invariant, from the server's own counters *)
  let invariant =
    int_field counters "admitted"
    = int_field counters "completed" + int_field counters "shed" + int_field counters "failed"
  in
  { setup = setup_s;
    open_recs = List.filter (fun (r : Loadgen.record) -> r.due >= start +. warmup_s) open_run.records;
    all_recs = open_run.records @ closed_run.records @ cycles;
    closed_recs = in_window;
    rss;
    backlog = open_run.backlog_max;
    lost = open_run.broken + closed_run.broken + unclosed + warm_bad;
    warmed;
    checked;
    mismatches;
    counted;
    wrong_counts;
    problems =
      List.filter_map Fun.id
        [ (if invariant then None else Some "admitted <> completed + shed + failed");
          (if clean_exit then None else Some "server did not drain cleanly") ];
    stats_line;
    steal }

type served = {
  metrics : (string * float * string) list;  (** end-to-end *)
  extra : (string * float * string) list;  (** printed, not gated *)
  attempted : int;
  failed : int;
  correct : bool;
  notes : string list;
}

(* Latency quantiles are taken per chunk of [chunk] consecutive reads
   of the run (the last, short chunk joins the one before) and reported
   as the median over the chunks: a stall of the host hits a few
   chunks, not the run's figure. *)
let chunk = 200

let chunks key n (recs : Loadgen.record list) =
  let sorted = List.sort (fun a b -> compare (key a) (key b)) recs in
  let rec split acc cur k = function
    | [] -> (
      match (acc, cur) with
      | prev :: rest, _ when k < n / 2 -> List.rev ((cur @ prev) :: rest)
      | _, [] -> List.rev acc
      | _ -> List.rev (cur :: acc))
    | r :: rest -> if k = n then split (cur :: acc) [ r ] 1 rest else split acc (r :: cur) (k + 1) rest
  in
  split [] [] 0 sorted

let chunked q reads =
  List.map
    (fun c -> Util.quantile q (List.map latency_ms c))
    (chunks (fun (r : Loadgen.record) -> r.due) chunk reads)

(* Closed-loop throughput, likewise per chunk of [chunk / 4] consecutive
   completions: completions after the first over the time they span.
   [count] selects what is counted (all requests, or reads only). *)
let chunked_rate count recs =
  List.filter_map
    (fun c ->
      let times = List.map (fun (r : Loadgen.record) -> r.recv) c in
      let t0 = List.fold_left Float.min Float.infinity times in
      let t1 = List.fold_left Float.max Float.neg_infinity times in
      let n = List.length (List.filter count c) in
      if t1 > t0 then Some (float_of_int (n - 1) /. (t1 -. t0)) else None)
    (chunks (fun (r : Loadgen.record) -> r.recv) (chunk / 4) recs)

let run_e2e (w : Serve_gen.workload) ~seed ~seconds =
  let root = Filename.concat Util.run_root (Printf.sprintf "%s-%d" w.name seed) in
  Util.rm_rf root;
  Util.mkdir_p root;
  let gen = Filename.concat root "gen" in
  Csv_io.save_dir gen (Serve_gen.database ~seed);
  let db = Csv_io.load_dir gen in
  let per = seconds /. float_of_int sub_runs in
  let rec collect clean spoiled index =
    if List.length clean = sub_runs || List.length spoiled > spare_sub_runs then (clean, spoiled)
    else
      let sub = sub_run w ~seed ~index ~root ~gen db ~seconds:per in
      if sub.steal <= Util.steal_valid then collect (clean @ [ sub ]) spoiled (index + 1)
      else collect clean (spoiled @ [ sub ]) (index + 1)
  in
  let clean, spoiled = collect [] [] 1 in
  let every = clean @ spoiled in
  (* the timed figures: the uncontended sub-runs, or, if too few, the
     least contended ones in an invalid run *)
  let subs =
    if List.length clean = sub_runs then clean
    else List.filteri (fun i _ -> i < sub_runs) (List.sort (fun a b -> compare a.steal b.steal) every)
  in
  let med f = Util.median (List.map f subs) in
  let reads_of sub = List.filter is_read sub.open_recs in
  let reads = List.concat_map reads_of subs in
  let updates = List.concat_map (fun sub -> List.filter (fun r -> not (is_read r)) sub.open_recs) subs in
  let all = List.concat_map (fun sub -> sub.all_recs) every in
  let n_failed = List.length (List.filter failed all) + List.fold_left (fun a sub -> a + sub.lost) 0 every in
  let checked = List.fold_left (fun a sub -> a + sub.checked) 0 every in
  let mismatches =
    List.fold_left (fun a sub -> a + sub.mismatches + sub.wrong_counts) 0 every
  in
  let counted = List.fold_left (fun a sub -> a + sub.counted) 0 every in
  let lag_p99 =
    Util.quantile 0.99
      (List.concat_map
         (fun sub -> List.map (fun (r : Loadgen.record) -> r.lag *. 1000.0) sub.all_recs)
         subs)
  in
  let exact =
    List.length
      (List.filter
         (fun (r : Loadgen.record) -> match r.outcome with Loadgen.Exact _ -> true | _ -> false)
         reads)
  in
  let notes =
    List.filter_map Fun.id
      [ (if lag_p99 <= lag_valid_ms then None
         else Some (Printf.sprintf "invalid: generator lag p99 %.1f ms > %.0f ms" lag_p99 lag_valid_ms));
        (if mismatches = 0 then None else Some (Printf.sprintf "%d wrong answers" mismatches));
        (if n_failed = 0 then None else Some (Printf.sprintf "%d failed requests" n_failed));
        (if List.length clean = sub_runs then None
         else
           Some
             (Printf.sprintf "invalid: %d of %d sub-runs had host steal > %.2f" (List.length spoiled)
                (List.length every) Util.steal_valid)) ]
    @ List.sort_uniq compare (List.concat_map (fun sub -> sub.problems) every)
  in
  let metrics =
    [ ("setup_s", med (fun sub -> sub.setup), "s");
      ("read_p50_ms", Util.median (chunked 0.5 reads), "ms");
      ("read_p75_ms", Util.median (chunked 0.75 reads), "ms");
      ("saturated_qps",
       Util.median (List.concat_map (fun sub -> chunked_rate (fun _ -> true) sub.closed_recs) subs), "1/s");
      ("cert_per_s",
       Util.median (List.concat_map (fun sub -> chunked_rate is_read sub.closed_recs) subs), "1/s");
      ("exact_share", Util.ratio exact (List.length reads), "share");
      ("peak_rss_mb", med (fun sub -> sub.rss), "MB") ]
  in
  let upd_lat = List.map latency_ms updates in
  let all_read_lat = List.map latency_ms reads in
  let extra =
    [ ("read_p90_ms", Util.quantile 0.90 all_read_lat, "ms");
      ("read_p99_ms", Util.quantile 0.99 all_read_lat, "ms");
      ("update_p50_ms", Util.median upd_lat, "ms");
      ("update_p99_ms", Util.quantile 0.99 upd_lat, "ms");
      ("failed_share", Util.ratio (n_failed + mismatches) (List.length all + checked), "share");
      ("reads", float_of_int (List.length reads), "count");
      ("reads_count_checked", float_of_int counted, "count");
      ("reads_rechecked", float_of_int checked, "count");
      ("updates", float_of_int (List.length updates), "count");
      ("loadgen.lag_ms_p99", lag_p99, "ms");
      ("loadgen.backlog_max", float_of_int (List.fold_left (fun a sub -> max a sub.backlog) 0 subs), "count");
      ("sub_runs_set_aside", float_of_int (List.length spoiled), "count");
      ("rate", w.rate, "1/s") ]
  in
  List.iteri
    (fun i sub ->
      Printf.printf "# sub-run %d steal %.3f%s #stats %s\n" (i + 1) sub.steal
        (if List.memq sub clean then "" else " (set aside)")
        sub.stats_line)
    every;
  { metrics; extra;
    attempted = List.length all + checked + List.fold_left (fun a sub -> a + sub.warmed) 0 every;
    failed = n_failed + mismatches;
    correct = notes = [];
    notes }

(* ------------------------------------------------------------------ *)
(* traced run                                                           *)
(* ------------------------------------------------------------------ *)

type pass = {
  records : Loadgen.record list;
  backlog : int;
  broken : int;
  handler : Handler.t;
  server_counters : Server.counters;
  service_counters : Service.counters;
  invariant_ok : bool;
  checked : int;
  mismatches : int;
  pool_before : Pool.stats option;
  pool_after : Pool.stats option;
  wal_bytes : int;
  user_bytes : int;
}

let replay (w : Serve_gen.workload) ~seed ~seconds ~root ~traced db =
  let dir = Filename.concat root (if traced then "wal-traced" else "wal-untraced") in
  Util.rm_rf dir;
  let trace = Trace.create ~enabled:traced in
  let h = Handler.create ~trace ~wal_dir:dir db in
  let pool = (Handler.service_config ()).Service.pool in
  let pool_before = Option.map Pool.stats pool in
  let server = Server.create (Handler.server_config ()) (Handler.handle h) in
  let c0 = Loadgen.connect (Server.port server) and c1 = Loadgen.connect (Server.port server) in
  let stream = Serve_gen.stream w ~seed db in
  (* the set-up reads of the end-to-end run, untraced (request id -1
     has no root span) *)
  let warm_bad = warm_up ~prefix:"-1 " c0 (Serve_gen.warm_texts stream) in
  let start = Util.now () +. 0.05 in
  let sched = schedule stream ~rate:w.rate ~start ~duration:(warmup_s +. seconds) in
  let wire (r : Serve_gen.req) = Printf.sprintf "%d %s" r.id r.line in
  let done_at = Hashtbl.create 4096 in
  let run = Loadgen.run ~wire ~done_at [ c0; c1 ] (Loadgen.Open sched) in
  let measured = List.filter (fun (r : Loadgen.record) -> r.due >= start +. warmup_s) run.records in
  List.iter
    (fun (r : Loadgen.record) ->
      Trace.add trace { Trace.rid = r.req.id; name = "request"; parent = ""; t0 = r.due; t1 = r.recv };
      Trace.add trace
        { Trace.rid = r.req.id; name = "loadgen.wait"; parent = "request"; t0 = r.due; t1 = r.sent })
    measured;
  let pool_after = Option.map Pool.stats pool in
  let closing, unclosed = close_updates ~wire ~done_at stream c0 in
  let checked, mismatches =
    if traced then begin
      let _, wrong_counts = check_counts db (run.records @ closing) in
      let checked, mismatches = check_reads ~seed c0 db (Serve_gen.distinct_texts stream) in
      (checked, mismatches + wrong_counts)
    end
    else (0, 0)
  in
  Loadgen.close c0;
  Loadgen.close c1;
  let server_counters = Server.counters server in
  let service_counters = Service.counters (Server.service server) in
  Server.drain server;
  let drained = Server.wait server in
  Wal.close h.Handler.wal;
  let user_bytes =
    List.fold_left
      (fun acc (r : Loadgen.record) ->
        if is_read r then acc else acc + String.length r.req.line + 1)
      0 run.records
  in
  { records = measured;
    backlog = run.backlog_max; broken = run.broken + unclosed + warm_bad; handler = h;
    server_counters; service_counters; invariant_ok = drained.Server.invariant_ok;
    checked; mismatches; pool_before; pool_after;
    wal_bytes = Util.file_size (Filename.concat dir "wal.log"); user_bytes }

(* Cache lookup time, measured after the traced pass on its own cache:
   for each read of the pass, in order, [probe_reps] lookups of its key
   timed together (one lookup is below the clock's resolution).
   Counters were read before, so the probe does not skew them. *)
let probe_reps = 20

let probe_cache_us (p : pass) =
  let h = p.handler in
  let schema = h.Handler.schema in
  let keys = Hashtbl.create 256 in
  let key sql =
    match Hashtbl.find_opt keys sql with
    | Some k -> k
    | None ->
      let k = "cert:" ^ Planner.fingerprint (Sql.To_algebra.translate_string schema sql) in
      Hashtbl.replace keys sql k;
      k
  in
  List.filter_map
    (fun (r : Loadgen.record) ->
      if is_read r then begin
        let k = key r.req.line in
        let t0 = Util.now () in
        for _ = 1 to probe_reps do
          ignore (Cache.lookup h.Handler.cache k)
        done;
        Some ((Util.now () -. t0) *. 1e6 /. float_of_int probe_reps)
      end
      else None)
    p.records

let run_traced (w : Serve_gen.workload) ~seed ~seconds =
  let root = Filename.concat Util.run_root (Printf.sprintf "%s-%d-trace" w.name seed) in
  Util.rm_rf root;
  Util.mkdir_p root;
  let db = Serve_gen.database ~seed in
  let half = Float.max 2.0 (seconds /. 2.0) in
  let untraced = replay w ~seed ~seconds:half ~root ~traced:false db in
  let traced = replay w ~seed ~seconds:half ~root ~traced:true db in
  let tr = traced.handler.Handler.trace in
  Trace.write tr (Filename.concat root "spans.tsv");
  let cache = Cache.stats traced.handler.Handler.cache in
  let lookups = cache.Cache.hits + cache.Cache.misses in
  let lookup_us = probe_cache_us traced in
  let wal = Wal.stats traced.handler.Handler.wal in
  let pool_delta f =
    match (traced.pool_before, traced.pool_after) with
    | Some a, Some b -> f b - f a
    | _ -> 0
  in
  let steals = pool_delta (fun s -> s.Pool.steals) in
  let failed_steals = pool_delta (fun s -> s.Pool.failed_steals) in
  let updates =
    List.length (List.filter (fun r -> not (is_read r)) traced.records)
  in
  let acc = Trace.self_times tr in
  let roots = acc.Trace.roots in
  let mean_e2e (p : pass) = Util.mean (List.map latency_ms p.records) in
  let ms name = Trace.durations tr name in
  let us name = List.map (fun x -> x *. 1000.0) (ms name) in
  let sc = traced.service_counters in
  let self name = Option.value ~default:0.0 (List.assoc_opt name acc.per_name) /. float_of_int (max 1 roots) in
  let upd_lat = List.map latency_ms (List.filter (fun r -> not (is_read r)) traced.records) in
  let all = traced.records @ untraced.records in
  let n_failed =
    List.length (List.filter failed all) + traced.broken + untraced.broken + traced.mismatches
  in
  let lag = List.map (fun (r : Loadgen.record) -> r.lag *. 1000.0) traced.records in
  let metrics =
    [ ("sql.translate_us_p50", Util.median (us "sql.translate"));
      ("planner.fingerprint_us_p50", Util.median (us "planner.fingerprint"));
      ("cache.hit_ratio", Util.ratio cache.Cache.hits lookups);
      ("cache.stale_per_lookup", Util.ratio cache.Cache.stale lookups);
      ("cache.evictions", float_of_int cache.Cache.evictions);
      ("cache.lookup_us_p50", Util.median lookup_us);
      ("service.queue_wait_ms_p50", Util.median (ms "service.queue_wait"));
      ("service.queue_wait_ms_p99", Util.quantile 0.99 (ms "service.queue_wait"));
      ("service.degraded_ratio", Util.ratio sc.Service.degraded sc.Service.completed);
      ("certainty.ms_p50", Util.median (ms "certainty"));
      ("certainty.tuples_per_call",
       Util.mean (List.map float_of_int !(traced.handler.Handler.tuples)));
      ("scheme_pm.fallback_ms_p50", Util.median (ms "scheme_pm.fallback"));
      ("pool.tasks", float_of_int (pool_delta (fun s -> s.Pool.tasks)));
      ("pool.steal_success_ratio", Util.ratio steals (steals + failed_steals));
      ("pool.parks", float_of_int (pool_delta (fun s -> s.Pool.parks)));
      ("wal.appends", float_of_int wal.Wal.appends);
      ("wal.fsyncs_per_update", Util.ratio wal.Wal.fsyncs updates);
      ("wal.bytes_per_user_byte", Util.ratio traced.wal_bytes traced.user_bytes);
      ("wal.append_us_p50", Util.median (us "wal.append"));
      ("update.ms_p50", Util.median upd_lat);
      ("server.unattributed_ms_p50", Util.median acc.unattributed);
      ("server.bytes_per_response",
       Util.ratio traced.server_counters.Server.bytes_out traced.server_counters.Server.queries);
      ("loadgen.lag_ms_p99", Util.quantile 0.99 lag);
      ("loadgen.backlog_max", float_of_int traced.backlog);
      ("self.unattributed_ms", self "unattributed");
      ("self.loadgen_wait_ms", self "loadgen.wait");
      ("self.sql_ms", self "sql.translate");
      ("self.planner_ms", self "planner.fingerprint");
      ("self.service_queue_ms", self "service.queue_wait");
      ("self.certainty_ms", self "certainty");
      ("self.scheme_pm_ms", self "scheme_pm.fallback");
      ("self.update_ms", self "update");
      ("self.wal_ms", self "wal.append");
      ("trace.e2e_ms", acc.total_ms /. float_of_int (max 1 roots));
      ("trace.untraced_e2e_ms", mean_e2e untraced);
      ("trace.overhead_ms", mean_e2e traced -. mean_e2e untraced);
      ("trace.accounting_error", acc.error) ]
  in
  let notes =
    List.filter_map Fun.id
      [ (if traced.invariant_ok && untraced.invariant_ok then None
         else Some "admitted <> completed + shed + failed at drain");
        (if acc.error <= 0.01 then None
         else Some (Printf.sprintf "self times miss the traced total by %.2f%%" (acc.error *. 100.0)));
        (if n_failed = 0 then None else Some (Printf.sprintf "%d failed requests" n_failed)) ]
  in
  (metrics, List.length all + traced.checked, n_failed, notes)
