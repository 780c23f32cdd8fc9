(* incdb — command-line driver.

   Subcommands:
     demo      replay the paper's Figure 1 scenario
     eval      evaluate a SQL query on a database under a chosen
               answer semantics
     compare   evaluate a SQL query under all semantics side by side
     prob      0-1-law classification of a candidate answer + µ_k series
     classify  annotate every candidate answer certain/possible
     fo        evaluate a first-order formula (3VL + certain answers)
     datalog   run a positive Datalog program (fixpoint = certain)
     serve     run newline-delimited SQL from stdin — or over TCP with
               --listen — through the concurrent front door (admission
               control, priority lanes, per-client quotas, retries,
               degradation to Q+, graceful drain)
     coord     scatter/gather front end over a fleet of serve
               --partition workers (circuit breakers, hedged reads,
               degraded partial answers)

   Databases: fig1 (the paper's bookstore, optionally with the
   Section 1 NULL), tpch (the TPC-H-mini workload at a given scale and
   null rate), or any directory of CSV files via --data. *)

open Incdb

let fig1_schema =
  Schema.of_list
    [ ("Orders", [ "oid"; "title"; "price" ]);
      ("Payments", [ "cid"; "oid" ]);
      ("Customers", [ "cid"; "name" ]) ]

let fig1_db ~with_null =
  let payments =
    if with_null then
      [ Tuple.of_list [ Value.str "c1"; Value.str "o1" ];
        Tuple.of_list [ Value.str "c2"; Value.null 0 ] ]
    else
      [ Tuple.of_list [ Value.str "c1"; Value.str "o1" ];
        Tuple.of_list [ Value.str "c2"; Value.str "o2" ] ]
  in
  Database.of_list fig1_schema
    [ ("Orders",
       [ Tuple.of_list [ Value.str "o1"; Value.str "Big Data"; Value.int 30 ];
         Tuple.of_list [ Value.str "o2"; Value.str "SQL"; Value.int 35 ];
         Tuple.of_list [ Value.str "o3"; Value.str "Logic"; Value.int 50 ] ]);
      ("Payments", payments);
      ("Customers",
       [ Tuple.of_list [ Value.str "c1"; Value.str "John" ];
         Tuple.of_list [ Value.str "c2"; Value.str "Mary" ] ]) ]

let load_db ?data which ~scale ~null_rate ~seed =
  match data with
  | Some dir ->
    let db = Csv_io.load_dir dir in
    (Database.schema db, db)
  | None ->
  match which with
  | "fig1" -> (fig1_schema, fig1_db ~with_null:(null_rate > 0.0))
  | "tpch" ->
    let rng = Workload.Generator.make_rng ~seed in
    let db = Workload.Tpch_mini.generate rng ~scale in
    let db =
      if null_rate > 0.0 then
        Workload.Tpch_mini.with_nulls
          (Workload.Generator.make_rng ~seed:(seed + 1))
          ~rate:null_rate db
      else db
    in
    (Workload.Tpch_mini.schema, db)
  | other -> raise (Invalid_argument (Printf.sprintf "unknown database %s" other))

type mode =
  | Sql_3vl
  | Naive
  | Certain
  | Plus
  | Maybe
  | Aware

let mode_of_string = function
  | "sql" -> Ok Sql_3vl
  | "naive" -> Ok Naive
  | "certain" -> Ok Certain
  | "plus" -> Ok Plus
  | "maybe" -> Ok Maybe
  | "aware" -> Ok Aware
  | other -> Error (Printf.sprintf "unknown mode %s" other)

let run_mode ?(optimize = false) mode schema db sql =
  let algebra () =
    let q = Sql.To_algebra.translate_string schema sql in
    if optimize then Optimize.optimize schema q else q
  in
  match mode with
  | Sql_3vl -> Sql.Three_valued.run db sql
  | Naive -> Naive.run db (algebra ())
  | Certain -> Certainty.cert_with_nulls_ra db (algebra ())
  | Plus -> Scheme_pm.certain_sub db (algebra ())
  | Maybe -> Scheme_pm.possible_sup db (algebra ())
  | Aware -> Ctables.Ceval.certain Ctables.Ceval.Aware db (algebra ())

(* ------------------------------------------------------------------ *)
(* cmdliner plumbing                                                   *)
(* ------------------------------------------------------------------ *)

open Cmdliner

let db_arg =
  let doc = "Built-in database: fig1 or tpch." in
  Arg.(value & opt string "fig1" & info [ "d"; "database" ] ~docv:"DB" ~doc)

let scale_arg =
  let doc = "Scale factor for the tpch database." in
  Arg.(value & opt int 1 & info [ "scale" ] ~docv:"N" ~doc)

let null_rate_arg =
  let doc =
    "Null rate: for fig1, any positive value installs the Section 1 NULL; \
     for tpch, the per-cell probability of a null in non-key columns."
  in
  Arg.(value & opt float 0.0 & info [ "null-rate" ] ~docv:"R" ~doc)

let seed_arg =
  let doc = "Random seed for generated databases." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let data_arg =
  let doc =
    "Load the database from a directory of .csv files (one per relation; \
     marked nulls written _0, _1, …; NULL/empty cells are fresh nulls).  \
     Overrides --database."
  in
  Arg.(value & opt (some dir) None & info [ "data" ] ~docv:"DIR" ~doc)

let optimize_arg =
  let doc = "Run the algebraic optimizer on translated queries." in
  Arg.(value & flag & info [ "O"; "optimize" ] ~doc)

let sql_arg =
  let doc = "The SQL query to evaluate." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SQL" ~doc)

let mode_arg =
  let doc =
    "Answer semantics: sql (3-valued SQL evaluation), naive, certain \
     (exact, exponential), plus (the sound Q+ approximation), maybe (the \
     possible-answer bound Q?), aware (the aware c-table strategy)."
  in
  let parse s = Result.map_error (fun e -> `Msg e) (mode_of_string s) in
  let print ppf m =
    Format.pp_print_string ppf
      (match m with
       | Sql_3vl -> "sql"
       | Naive -> "naive"
       | Certain -> "certain"
       | Plus -> "plus"
       | Maybe -> "maybe"
       | Aware -> "aware")
  in
  Arg.(value
       & opt (conv (parse, print)) Sql_3vl
       & info [ "m"; "mode" ] ~docv:"MODE" ~doc)

let handle_errors f =
  try f (); 0 with
  | Sql.Parser.Parse_error msg | Sql.Lexer.Lex_error msg
  | Sql.Three_valued.Sql_error msg | Sql.To_algebra.Unsupported msg ->
    Format.eprintf "error: %s@." msg;
    1
  | Invalid_argument msg ->
    Format.eprintf "error: %s@." msg;
    1

let demo_cmd =
  let run () =
    handle_errors (fun () ->
        let queries =
          [ ("unpaid orders",
             "SELECT oid FROM Orders WHERE oid NOT IN (SELECT oid FROM \
              Payments)");
            ("customers without a paid order",
             "SELECT C.cid FROM Customers C WHERE NOT EXISTS (SELECT * FROM \
              Orders O, Payments P WHERE C.cid = P.cid AND P.oid = O.oid)") ]
        in
        List.iter
          (fun with_null ->
            let db = fig1_db ~with_null in
            Format.printf "=== %s ===@.%a@.@."
              (if with_null then "with NULL" else "complete")
              Database.pp db;
            List.iter
              (fun (name, sql) ->
                Format.printf "%-33s SQL: %a" name Relation.pp
                  (Sql.Three_valued.run db sql);
                let q = Sql.To_algebra.translate_string fig1_schema sql in
                Format.printf "   certain: %a@." Relation.pp
                  (Certainty.cert_with_nulls_ra db q))
              queries;
            Format.printf "@.")
          [ false; true ])
  in
  let doc = "replay the paper's Figure 1 scenario" in
  Cmd.v (Cmd.info "demo" ~doc) Term.(const run $ const ())

let eval_cmd =
  let run db_name data scale null_rate seed mode optimize sql =
    handle_errors (fun () ->
        let schema, db = load_db ?data db_name ~scale ~null_rate ~seed in
        let answers = run_mode ~optimize mode schema db sql in
        Format.printf "%a@." Relation.pp answers)
  in
  let doc = "evaluate a SQL query under a chosen answer semantics" in
  Cmd.v (Cmd.info "eval" ~doc)
    Term.(
      const run $ db_arg $ data_arg $ scale_arg $ null_rate_arg $ seed_arg
      $ mode_arg $ optimize_arg $ sql_arg)

let compare_cmd =
  let run db_name data scale null_rate seed optimize sql =
    handle_errors (fun () ->
        let schema, db = load_db ?data db_name ~scale ~null_rate ~seed in
        List.iter
          (fun (name, mode) ->
            match run_mode ~optimize mode schema db sql with
            | answers -> Format.printf "%-8s %a@." name Relation.pp answers
            | exception e ->
              Format.printf "%-8s (failed: %s)@." name (Printexc.to_string e))
          [ ("sql", Sql_3vl); ("naive", Naive); ("plus", Plus);
            ("maybe", Maybe); ("aware", Aware); ("certain", Certain) ])
  in
  let doc = "evaluate a SQL query under every answer semantics" in
  Cmd.v (Cmd.info "compare" ~doc)
    Term.(
      const run $ db_arg $ data_arg $ scale_arg $ null_rate_arg $ seed_arg
      $ optimize_arg $ sql_arg)

let tuple_arg =
  let doc =
    "The candidate answer tuple, as comma-separated cells in CSV value \
     syntax (e.g. \"1,_0,'x'\" without the quotes around the whole)."
  in
  Arg.(required & opt (some string) None & info [ "t"; "tuple" ] ~docv:"CELLS" ~doc)

let prob_cmd =
  let run db_name data scale null_rate seed sql cells =
    handle_errors (fun () ->
        let schema, db = load_db ?data db_name ~scale ~null_rate ~seed in
        let q = Sql.To_algebra.translate_string schema sql in
        let next_null = ref 1_000_000 in
        let tuple =
          Tuple.of_list
            (List.map
               (Csv_io.parse_value ~next_null)
               (String.split_on_char ',' cells))
        in
        Format.printf "almost certainly true: %b@."
          (Prob.Zero_one.almost_certainly_true_ra db q tuple);
        Format.printf "mu = %s@."
          (Prob.Rational.to_string (Prob.Zero_one.mu_ra db q tuple));
        let ks = [ 2; 4; 8; 16 ] in
        let series =
          Prob.Zero_one.mu_series
            ~run:(fun d -> Eval.run d q)
            ~query_consts:(Algebra.consts q) db tuple ks
        in
        List.iter2
          (fun k mu ->
            Format.printf "mu_%d = %s@." k (Prob.Rational.to_string mu))
          ks series)
  in
  let doc =
    "probabilistic classification of a candidate answer (0-1 law + the \
     mu_k series)"
  in
  Cmd.v (Cmd.info "prob" ~doc)
    Term.(
      const run $ db_arg $ data_arg $ scale_arg $ null_rate_arg $ seed_arg
      $ sql_arg $ tuple_arg)

let classify_cmd =
  let run db_name data scale null_rate seed sql =
    handle_errors (fun () ->
        let schema, db = load_db ?data db_name ~scale ~null_rate ~seed in
        let q = Sql.To_algebra.translate_string schema sql in
        List.iter
          (fun (t, v) ->
            Format.printf "%-12s %s@."
              (Classify.verdict_to_string v)
              (Format.asprintf "%a" Tuple.pp t))
          (Classify.report db q))
  in
  let doc =
    "classify every candidate answer as certain or merely possible      (uncertainty-annotated output)"
  in
  Cmd.v (Cmd.info "classify" ~doc)
    Term.(
      const run $ db_arg $ data_arg $ scale_arg $ null_rate_arg $ seed_arg
      $ sql_arg)

let fo_cmd =
  let formula_arg =
    let doc =
      "The first-order formula, e.g. \"exists y. R(x, y) & ~(y = 'paris')\";        see the Fo_parser grammar."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FORMULA" ~doc)
  in
  let run db_name data scale null_rate seed text =
    handle_errors (fun () ->
        let schema, db = load_db ?data db_name ~scale ~null_rate ~seed in
        match Fo_parser.parse text with
        | exception Fo_parser.Parse_error msg ->
          Format.eprintf "parse error: %s@." msg;
          raise (Invalid_argument "invalid formula")
        | phi ->
          Format.printf "φ = %s   (free: %s)@.@." (Fo.to_string phi)
            (String.concat ", " (Fo.free_vars phi));
          Format.printf "three-valued answers under SQL's semantics:@.";
          List.iter
            (fun (t, v) ->
              if v <> Logic.Kleene.F then
                Format.printf "  %-12s %s@."
                  (Format.asprintf "%a" Tuple.pp t)
                  (Logic.Kleene.to_string v))
            (Semantics.answers Semantics.sql db phi);
          let q = Bridge.algebra_of_fo schema phi in
          Format.printf "@.as algebra: %s@." (Algebra.to_string q);
          Format.printf "certain answers: %a@." Relation.pp
            (Certainty.cert_with_nulls_ra db q))
  in
  let doc =
    "evaluate a first-order formula under the three-valued SQL semantics      and compute its certain answers via the active-domain translation"
  in
  Cmd.v (Cmd.info "fo" ~doc)
    Term.(
      const run $ db_arg $ data_arg $ scale_arg $ null_rate_arg $ seed_arg
      $ formula_arg)

let datalog_cmd =
  let program_arg =
    let doc =
      "The Datalog program, e.g. \"path(x,y) :- edge(x,y). path(x,z) :-        edge(x,y), path(y,z).\""
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"PROGRAM" ~doc)
  in
  let pred_arg =
    let doc = "The IDB predicate whose fixpoint instance to print." in
    Arg.(required & opt (some string) None & info [ "p"; "predicate" ] ~docv:"PRED" ~doc)
  in
  let run db_name data scale null_rate seed text pred =
    handle_errors (fun () ->
        let _, db = load_db ?data db_name ~scale ~null_rate ~seed in
        match Datalog.Parser.parse text with
        | exception Datalog.Parser.Parse_error msg ->
          Format.eprintf "parse error: %s@." msg;
          raise (Invalid_argument "invalid program")
        | program ->
          (match Datalog.Eval.run db program pred with
           | answers ->
             Format.printf "%a@." Relation.pp answers;
             Format.printf
               "(positive Datalog is monotone: this fixpoint IS the certain                 answer)@."
           | exception Datalog.Syntax.Ill_formed msg ->
             Format.eprintf "ill-formed program: %s@." msg;
             raise (Invalid_argument "invalid program")
           | exception Datalog.Eval.Eval_error msg ->
             Format.eprintf "error: %s@." msg;
             raise (Invalid_argument "invalid predicate")))
  in
  let doc =
    "run a positive Datalog program; the fixpoint is exactly the certain      answer set"
  in
  Cmd.v (Cmd.info "datalog" ~doc)
    Term.(
      const run $ db_arg $ data_arg $ scale_arg $ null_rate_arg $ seed_arg
      $ program_arg $ pred_arg)

(* ------------------------------------------------------------------ *)
(* serve: shared mutable state for the update workload                 *)
(* ------------------------------------------------------------------ *)

(* What the write-ahead log persists (DESIGN.md §4i).  One [wal_record]
   per accepted update, carrying the parsed tuple and the post-parse
   fresh-null counter so replay re-allocates the same marked nulls; the
   snapshot image is the base (EDB) database — IDB fixpoints and cache
   contents are derived state, re-materialized on recovery. *)
type wal_record = {
  w_op : [ `Insert | `Delete ];
  w_rel : string;
  w_tuple : Tuple.t;
  w_next_null : int;
}

type wal_image = {
  s_base : Database.t;
  s_next_null : int;
}

(* The database view the serve modes query.  Updates swap the view
   under the lock and only then bump the cache versions: a query that
   raced the update captured its version snapshot at submit time, so
   whatever it stores is already stale — never served.  With --datalog
   the view also exposes every IDB predicate as a queryable relation,
   maintained incrementally by Datalog.Eval.insert/delete. *)
type serve_state = {
  slock : Mutex.t;
  mutable view : Database.t;
  dl : Datalog.Eval.materialized option;
  next_null : int ref;  (* fresh marked nulls for inserted NULL cells *)
  wal : (wal_record, wal_image) Wal.t option;  (* --data durability *)
}

let view_db st =
  Mutex.lock st.slock;
  let db = st.view in
  Mutex.unlock st.slock;
  db

(* "insert Rel(v1,...)" / "delete Rel(v1,...)" — [None] for non-update
   lines, [Some (Error _)] for malformed ones *)
let parse_update_line line =
  let word, rest =
    match String.index_opt line ' ' with
    | None -> (line, "")
    | Some i ->
      (String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1))
  in
  match word with
  | ("insert" | "delete") as w ->
    let op = if w = "insert" then `Insert else `Delete in
    let rest = String.trim rest in
    let n = String.length rest in
    (match String.index_opt rest '(' with
     | Some l
       when n > 0
            && rest.[n - 1] = ')'
            && String.trim (String.sub rest 0 l) <> "" ->
       Some
         (Ok
            ( op,
              String.trim (String.sub rest 0 l),
              String.sub rest (l + 1) (n - l - 2) ))
     | _ -> Some (Error (Printf.sprintf "expected %s REL(v1,...)" w)))
  | _ -> None

(* The base (EDB) database behind the view: with --datalog the view
   also holds derived IDB instances, which never enter the log or the
   snapshot image. *)
let base_db_unsafe st =
  match st.dl with
  | Some m -> Datalog.Eval.database m
  | None -> st.view

(* Force a snapshot now; requires [st.slock] held (the image must be a
   consistent cut of the update stream). *)
let snapshot_locked st =
  match st.wal with
  | None -> Error "no durable --data directory"
  | Some w ->
    let image =
      { s_base = base_db_unsafe st; s_next_null = !(st.next_null) }
    in
    (match Wal.snapshot w image with
     | s -> Ok s
     | exception Wal.Wal_error msg -> Error msg
     | exception Guard.Injected site -> Error ("injected fault at " ^ site))

let snapshot_now st =
  Mutex.lock st.slock;
  let r = snapshot_locked st in
  Mutex.unlock st.slock;
  r

(* Log-before-ack: parse and fully validate the update, append it to
   the WAL (when --data is armed), and only then apply it.  A WAL
   failure — I/O error or an injected wal.append/wal.fsync fault —
   escapes before anything is applied, with the frame already scrubbed
   back out of the log, so the update is rejected whole: never applied,
   never acknowledged, never resurrected by recovery.  Parsing runs
   under the lock because [parse_value] allocates fresh marked nulls
   from [st.next_null]; the counter is rolled back on every rejected or
   no-op update so that exactly the *logged* records advance it — the
   invariant replay relies on to re-allocate identical nulls. *)
let apply_update st ~bump op rel body =
  let opname = match op with `Insert -> "insert" | `Delete -> "delete" in
  Mutex.lock st.slock;
  let saved_next_null = !(st.next_null) in
  match
    let cells =
      if String.trim body = "" then [] else String.split_on_char ',' body
    in
    let tuple =
      Tuple.of_list
        (List.map (Csv_io.parse_value ~next_null:st.next_null) cells)
    in
    let current =
      (match st.dl with
       | Some m when Datalog.Eval.is_idb m rel ->
         invalid_arg
           (Printf.sprintf "%s %s: cannot update an IDB predicate" opname rel)
       | _ -> ());
      try Database.relation (base_db_unsafe st) rel
      with Not_found -> invalid_arg ("unknown relation " ^ rel)
    in
    if Tuple.arity tuple <> Relation.arity current then
      invalid_arg
        (Printf.sprintf "%s %s: arity mismatch (expected %d, got %d)" opname
           rel (Relation.arity current) (Tuple.arity tuple));
    let noop =
      match op with
      | `Insert -> Relation.mem tuple current
      | `Delete -> not (Relation.mem tuple current)
    in
    if noop then begin
      st.next_null := saved_next_null;
      []
    end
    else begin
      (match st.wal with
       | Some w ->
         ignore
           (Wal.append w
              { w_op = op; w_rel = rel; w_tuple = tuple;
                w_next_null = !(st.next_null) })
       | None -> ());
      let changed =
        match st.dl with
        | Some m ->
          let changed =
            match op with
            | `Insert -> Datalog.Eval.insert m rel [ tuple ]
            | `Delete -> Datalog.Eval.delete m rel [ tuple ]
          in
          let live p =
            match List.assoc_opt p (Datalog.Eval.idb m) with
            | Some r -> r
            | None -> Database.relation (Datalog.Eval.database m) p
          in
          List.iter
            (fun p -> st.view <- Database.set_relation st.view p (live p))
            changed;
          changed
        | None ->
          let updated =
            match op with
            | `Insert -> Relation.add tuple current
            | `Delete ->
              Relation.diff current
                (Relation.of_list (Relation.arity current) [ tuple ])
          in
          st.view <- Database.set_relation st.view rel updated;
          [ rel ]
      in
      (* cadence-driven compaction; a failed attempt is counted in the
         WAL stats but never fails the update — it is already durable
         in the log *)
      (match st.wal with
       | Some w when Wal.snapshot_due w -> ignore (snapshot_locked st)
       | _ -> ());
      changed
    end
  with
  | changed ->
    Mutex.unlock st.slock;
    (* view first, versions second: see the comment on [serve_state] *)
    List.iter bump changed;
    changed
  | exception e ->
    (* Validation and WAL failures reject the update before any state
       changed; roll the fresh-null counter back with it.  (A failure
       *after* the WAL append can only come from an injected fault
       inside the Datalog propagation, whose EDB delta is committed
       first — the logged record still matches the base, and a restart
       re-materializes the torn fixpoint from it.) *)
    (match e with
     | Invalid_argument _ | Wal.Wal_error _
     | Guard.Injected ("wal.append" | "wal.fsync") ->
       st.next_null := saved_next_null
     | _ -> ());
    Mutex.unlock st.slock;
    raise e

let update_line_response = function
  | [] -> "updated (no-op)"
  | changed -> Printf.sprintf "updated %s" (String.concat "," changed)

(* [key_prefix] separates payload shapes sharing one cache: the TCP
   server stores single-line payloads under "cert:" and streamed
   payloads under "certs:", so a cached line never replays as a frame
   sequence (or vice versa) when a client toggles #stream.

   A degraded [serve] answer is Q⁺ over the relations [q] reads, and
   whether the exact leg degrades depends on those relations alone
   (Certainty.relevant), so by default it shares the exact answer's
   dependencies.  The coordinator passes every relation as
   [approx_deps]: its partial answers reflect fleet health. *)
let cert_cache_binding ?(key_prefix = "cert:") ?approx_deps cache q =
  let deps = Algebra.relations q in
  Option.map
    (fun c ->
      { Service.cache = c;
        key = key_prefix ^ Planner.fingerprint q;
        deps;
        approx_deps = Option.value approx_deps ~default:deps;
        require_exact = false })
    cache

let capacity_arg =
  let doc =
    "Admission-queue capacity (queries waiting beyond the in-flight \
     workers).  Unbounded when omitted."
  in
  Arg.(value & opt (some int) None & info [ "capacity" ] ~docv:"N" ~doc)

let shed_arg =
  let doc =
    "What to do with a submission that finds the queue full: reject \
     (answer it overloaded), drop-oldest (evict the oldest queued query), \
     or block (wait for space)."
  in
  let parse = function
    | "reject" -> Ok Service.Reject
    | "drop-oldest" -> Ok Service.Drop_oldest
    | "block" -> Ok Service.Block
    | other -> Error (`Msg (Printf.sprintf "unknown shed policy %s" other))
  in
  let print ppf p =
    Format.pp_print_string ppf
      (match p with
       | Service.Reject -> "reject"
       | Service.Drop_oldest -> "drop-oldest"
       | Service.Block -> "block")
  in
  Arg.(value
       & opt (conv (parse, print)) Service.Reject
       & info [ "shed" ] ~docv:"POLICY" ~doc)

let workers_arg =
  let doc = "Worker domains = maximum in-flight queries." in
  Arg.(value & opt int 4 & info [ "workers" ] ~docv:"N" ~doc)

let retries_arg =
  let doc =
    "Retry attempts after the first try, for transient failures \
     (injected faults and deadline interrupts)."
  in
  Arg.(value & opt int 2 & info [ "retries" ] ~docv:"N" ~doc)

let backoff_arg =
  let doc = "Backoff base in seconds: retry n sleeps base * 2^n." in
  Arg.(value & opt float 0.05 & info [ "backoff" ] ~docv:"SECONDS" ~doc)

let deadline_arg =
  let doc = "Per-attempt deadline in milliseconds." in
  Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"MS" ~doc)

let budget_arg =
  let doc =
    "Per-attempt tuple budget; a query that exhausts it degrades to the \
     sound Q+ approximation instead of retrying."
  in
  Arg.(value & opt (some int) None & info [ "budget" ] ~docv:"TUPLES" ~doc)

let listen_arg =
  let doc =
    "Serve over TCP instead of stdin: listen on HOST:PORT (PORT 0 picks \
     an ephemeral port, printed on startup).  Clients speak the same \
     newline-delimited protocol, plus the #client/#priority/#drain/\
     #counters directives."
  in
  Arg.(value
       & opt (some string) None
       & info [ "listen" ] ~docv:"HOST:PORT" ~doc)

let max_conns_arg =
  let doc = "Maximum concurrent connections; extras get a #busy line." in
  Arg.(value & opt int 16 & info [ "max-conns" ] ~docv:"N" ~doc)

let max_line_arg =
  let doc = "Maximum request-line length in bytes." in
  Arg.(value & opt int (64 * 1024) & info [ "max-line" ] ~docv:"BYTES" ~doc)

let read_timeout_arg =
  let doc = "Per-connection read timeout in seconds." in
  Arg.(value
       & opt float 10.0
       & info [ "read-timeout" ] ~docv:"SECONDS" ~doc)

let write_timeout_arg =
  let doc =
    "Per-connection write timeout in seconds: a reader that stalls a \
     write longer than this is evicted (counted slow_evicted) instead \
     of pinning its connection."
  in
  Arg.(value
       & opt float 10.0
       & info [ "write-timeout" ] ~docv:"SECONDS" ~doc)

let frame_arg =
  let doc =
    "Maximum tuples per stream frame (#stream on): bounds the writer's \
     working set and how far a response can run between guard checks."
  in
  Arg.(value & opt int 64 & info [ "frame" ] ~docv:"TUPLES" ~doc)

let byte_quota_arg =
  let doc =
    "Per-client written-byte budget: a token bucket of BYTES (burst) \
     per #client id, refilled at --byte-rate.  Unlimited when omitted."
  in
  Arg.(value
       & opt (some int) None
       & info [ "byte-quota" ] ~docv:"BYTES" ~doc)

let byte_rate_arg =
  let doc =
    "Refill rate of the per-client byte bucket in bytes/second; \
     defaults to the --byte-quota burst per second."
  in
  Arg.(value
       & opt (some float) None
       & info [ "byte-rate" ] ~docv:"BYTES/S" ~doc)

let byte_policy_arg =
  let doc =
    "What to do when a client's byte bucket runs dry: throttle (park \
     the writer until it refills), shed (refuse queries and truncate \
     streams as overloaded), or degrade (stop streams at the delivered \
     prefix, reported and cached as a sound limit-K answer)."
  in
  let parse s =
    match Server.byte_policy_of_string s with
    | Some p -> Ok p
    | None -> Error (`Msg (Printf.sprintf "unknown byte policy %s" s))
  in
  let print ppf p =
    Format.pp_print_string ppf (Server.byte_policy_to_string p)
  in
  Arg.(value
       & opt (conv (parse, print)) Server.Throttle
       & info [ "byte-policy" ] ~docv:"POLICY" ~doc)

let drain_deadline_arg =
  let doc =
    "Seconds a drain (SIGTERM or #drain) lets in-flight queries finish \
     before force-cancelling them."
  in
  Arg.(value
       & opt float 5.0
       & info [ "drain-deadline" ] ~docv:"SECONDS" ~doc)

let quota_arg =
  let doc =
    "Per-client in-flight query quota (clients keyed by connection or \
     #client id); over-quota queries are shed as overloaded.  Unlimited \
     when omitted."
  in
  Arg.(value & opt (some int) None & info [ "quota" ] ~docv:"N" ~doc)

let cache_arg =
  let doc =
    "Semantic result cache capacity in entries: repeated queries (modulo \
     plan canonicalization) answer from cache until an insert/delete \
     touches one of their base relations."
  in
  Arg.(value & opt int 256 & info [ "cache" ] ~docv:"SIZE" ~doc)

let no_cache_arg =
  let doc = "Disable the semantic result cache." in
  Arg.(value & flag & info [ "no-cache" ] ~doc)

let datalog_serve_arg =
  let doc =
    "Materialize this Datalog program over the database and maintain its \
     fixpoint incrementally across insert/delete lines (semi-naive \
     deltas for inserts, DRed overdelete/re-derive for deletes); every \
     IDB predicate becomes a queryable relation."
  in
  Arg.(value
       & opt (some string) None
       & info [ "datalog" ] ~docv:"PROGRAM" ~doc)

(* serve's --data doubles as the durability directory, so unlike the
   read-only subcommands it may name a directory that does not exist
   yet (created on first boot) *)
let serve_data_arg =
  let doc =
    "Durable data directory: .csv files in it (if any) seed the \
     database, and every accepted insert/delete is written ahead to \
     DIR/wal.log (see --fsync) with periodic snapshots to \
     DIR/snapshot.img (see --snapshot-every and the #snapshot \
     directive).  On startup the newest valid snapshot is loaded and \
     the log tail replayed, so acknowledged updates survive a crash.  \
     Created if missing.  Without this flag updates are in-memory \
     only."
  in
  Arg.(value & opt (some string) None & info [ "data" ] ~docv:"DIR" ~doc)

let fsync_arg =
  let doc =
    "WAL fsync policy under --data: always (fsync every append — an \
     acknowledged update survives power loss), never (leave flushing \
     to the OS — survives SIGKILL, not power loss), or a positive \
     integer N (fsync every N appends — at most N-1 acknowledged \
     updates lost on power failure).  Defaults to \\$INCDB_FSYNC, or \
     always."
  in
  let parse s =
    match Wal.policy_of_string s with
    | Some p -> Ok p
    | None ->
      Error
        (`Msg
           (Printf.sprintf
              "unknown fsync policy %s (expected always, never, or a \
               positive integer)"
              s))
  in
  let print ppf p = Format.pp_print_string ppf (Wal.policy_to_string p) in
  Arg.(value
       & opt (some (conv (parse, print))) None
       & info [ "fsync" ] ~docv:"POLICY" ~doc)

let snapshot_every_arg =
  let doc =
    "Snapshot + compact the WAL automatically every K accepted \
     updates (0 disables the cadence; #snapshot still forces one)."
  in
  Arg.(value & opt int 1024 & info [ "snapshot-every" ] ~docv:"K" ~doc)

let partition_arg =
  let doc =
    "Keep only the I-th of N hash partitions of the seeded workload \
     (0-based): a row r survives iff its owner shard — the FNV-1a hash \
     of its CSV rendering mod N — is I.  Every worker of an incdb coord \
     fleet loads the same deterministic workload under a distinct \
     --partition I/N, so the partitions tile the database exactly.  \
     Incompatible with --data and --datalog (durability and fixpoint \
     maintenance are coordinator concerns)."
  in
  let parse s =
    match String.split_on_char '/' s with
    | [ i; n ] -> (
      match (int_of_string_opt i, int_of_string_opt n) with
      | Some i, Some n when n > 0 && i >= 0 && i < n -> Ok (i, n)
      | _ -> Error (`Msg (Printf.sprintf "--partition expects I/N with 0 <= I < N, got %s" s)))
    | _ -> Error (`Msg (Printf.sprintf "--partition expects I/N, got %s" s))
  in
  let print ppf (i, n) = Format.fprintf ppf "%d/%d" i n in
  Arg.(value
       & opt (some (conv (parse, print))) None
       & info [ "partition" ] ~docv:"I/N" ~doc)

let serve_cmd =
  (* stdin mode: a printer domain awaits tickets in submission order and
     flushes each outcome line as soon as it resolves, so piped consumers
     see progress in real time while the reader keeps submitting.
     Updates apply synchronously in the reader, so later lines on the
     stream see their effects before they are submitted, and each query
     is answered on the database as of its own line. *)
  let serve_stdin schema ~all_rels st ~cache_cap svc =
    let cache = Option.map (fun cap -> Cache.create ~capacity:cap ()) cache_cap in
    (* after a recovery the cached versions must not collide with any a
       pre-crash process handed out: one atomic sweep bumps every base
       relation, so lookups racing the recovery miss (see Cache.bump_all) *)
    (match (cache, st.wal) with
     | Some c, Some _ -> Cache.bump_all c all_rels
     | _ -> ());
    let bump rel = Option.iter (fun c -> Cache.bump c rel) cache in
    let q = Queue.create () in
    let lock = Mutex.create () in
    let nonempty = Stdlib.Condition.create () in
    let push item =
      Mutex.lock lock;
      Queue.push item q;
      Stdlib.Condition.signal nonempty;
      Mutex.unlock lock
    in
    let pop () =
      Mutex.lock lock;
      while Queue.is_empty q do
        Stdlib.Condition.wait nonempty lock
      done;
      let item = Queue.pop q in
      Mutex.unlock lock;
      item
    in
    (* response bytes written so far (newline included), mirroring the
       TCP server's bytes_out counter so #stats carries a srv segment in
       both modes; written by the printer domain, read by the reader *)
    let stdout_bytes = Atomic.make 0 in
    let emit line =
      ignore (Atomic.fetch_and_add stdout_bytes (String.length line + 1));
      Printf.printf "%s\n%!" line
    in
    let printer () =
      let any_failed = ref false in
      let rec loop () =
        match pop () with
        | None -> !any_failed
        | Some item ->
          (match item with
           | `Text line -> emit line
           | `Outcome (n, ticket, t0) ->
             let outcome = Service.await ticket in
             let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
             (match outcome with
              | Service.Ok r ->
                emit
                  (Printf.sprintf "[%d] ok (%d tuples) %.1fms" n
                     (Relation.cardinal r) ms)
              | Service.Degraded r ->
                emit
                  (Printf.sprintf
                     "[%d] degraded (%d tuples, sound subset) %.1fms" n
                     (Relation.cardinal r) ms)
              | Service.Overloaded ->
                emit (Printf.sprintf "[%d] overloaded" n)
              | Service.Interrupted reason ->
                emit
                  (Printf.sprintf "[%d] interrupted: %s" n
                     (Guard.reason_to_string reason))
              | Service.Failed e ->
                any_failed := true;
                emit
                  (Printf.sprintf "[%d] failed: %s" n (Printexc.to_string e))));
          loop ()
      in
      loop ()
    in
    let printer_d = Domain.spawn printer in
    let lineno = ref 0 in
    (try
       while true do
         let line = String.trim (input_line stdin) in
         if line <> "" then begin
           if line.[0] = '#' then
             push
               (Some
                  (`Text
                     (if line = "#stats" then
                        "#stats "
                        ^ (match cache with
                           | Some c -> Cache.stats_line c
                           | None -> "cache disabled")
                        ^ (match (Service.config svc).Service.pool with
                           | Some p -> " | " ^ Pool.stats_line p
                           | None -> "")
                        ^ (match st.wal with
                           | Some w -> " | " ^ Wal.stats_line w
                           | None -> "")
                        (* same srv segment shape as the TCP server's
                           Server.stats_line, so #stats parses the same
                           in both modes; stdin has no streaming or
                           byte-accounting, so those counters are 0 *)
                        ^ Printf.sprintf
                            " | srv bytes=%d streams=0 frames=0 \
                             byte_shed=0 byte_degraded=0 parks=0 \
                             slow_evicted=0 clients=[]"
                            (Atomic.get stdout_bytes)
                      else if line = "#snapshot" then
                        match snapshot_now st with
                        | Ok s -> Printf.sprintf "#ok snapshot seq=%d" s
                        | Error msg -> "#err snapshot: " ^ msg
                      else "#err unknown directive")))
           else begin
             incr lineno;
             let n = !lineno in
             match parse_update_line line with
             | Some (Error msg) ->
               push (Some (`Text (Printf.sprintf "[%d] parse error: %s" n msg)))
             | Some (Ok (op, rel, body)) ->
               (match apply_update st ~bump op rel body with
                | changed ->
                  push
                    (Some
                       (`Text
                          (Printf.sprintf "[%d] ok %s" n
                             (update_line_response changed))))
                | exception
                    ( Invalid_argument msg
                    | Datalog.Eval.Eval_error msg ) ->
                  push (Some (`Text (Printf.sprintf "[%d] error: %s" n msg)))
                | exception Wal.Wal_error msg ->
                  push
                    (Some
                       (`Text (Printf.sprintf "[%d] failed (wal): %s" n msg)))
                | exception
                    Guard.Injected (("wal.append" | "wal.fsync") as site) ->
                  push
                    (Some
                       (`Text
                          (Printf.sprintf
                             "[%d] failed (wal): injected fault at %s" n site))))
             | None ->
               match Sql.To_algebra.translate_string schema line with
               | exception
                   (Sql.Parser.Parse_error msg | Sql.Lexer.Lex_error msg
                   | Sql.To_algebra.Unsupported msg) ->
                 push (Some (`Text (Printf.sprintf "[%d] parse error: %s" n msg)))
               | q ->
                 let t0 = Unix.gettimeofday () in
                 (* the database as of this line: this reader applies
                    every update itself, so none can land between this
                    read and the version snapshot [Service.submit]
                    takes, and a later line's update never shows in
                    this answer *)
                 let db = view_db st in
                 let ticket =
                   Service.submit svc
                     ?cache:(cert_cache_binding cache q)
                     ~fallback:(fun ~pool -> Scheme_pm.certain_sub ~pool db q)
                     (fun ~pool ~guard ->
                       Certainty.cert_with_nulls_ra ~pool ~guard db q)
                 in
                 push (Some (`Outcome (n, ticket, t0)))
           end
         end
       done
     with End_of_file -> ());
    push None;
    let any_failed = Domain.join printer_d in
    Service.shutdown svc;
    let c = Service.counters svc in
    Printf.printf
      "-- admitted %d, completed %d (%d degraded), shed %d, retried %d, \
       failed %d\n%!"
      c.Service.admitted c.Service.completed c.Service.degraded
      c.Service.shed c.Service.retried c.Service.failed;
    (match cache with
     | Some c -> Printf.printf "-- cache: %s\n%!" (Cache.stats_line c)
     | None -> ());
    (match (Service.config svc).Service.pool with
     | Some p -> Printf.printf "-- %s\n%!" (Pool.stats_line p)
     | None -> ());
    (match st.wal with
     | Some w ->
       Printf.printf "-- %s\n%!" (Wal.stats_line w);
       Wal.close w
     | None -> ());
    if any_failed then raise (Invalid_argument "some queries failed")
  in
  (* network mode: the Server owns the service; we render one-line
     payloads (the protocol is line-oriented) and block in wait until a
     SIGTERM/SIGINT or a client #drain *)
  let serve_listen schema ~all_rels st ~cache_cap ~listen ~max_conns
      ~max_line ~read_timeout ~write_timeout ~drain_deadline ~quota
      ~byte_quota ~byte_rate ~byte_policy ~frame_items svc_cfg =
    let host, port =
      match String.rindex_opt listen ':' with
      | None -> invalid_arg ("--listen expects HOST:PORT, got " ^ listen)
      | Some i ->
        let host = String.sub listen 0 i in
        let port_s = String.sub listen (i + 1) (String.length listen - i - 1) in
        (match int_of_string_opt port_s with
         | Some p when p >= 0 && p < 65536 -> (host, p)
         | _ -> invalid_arg ("--listen expects HOST:PORT, got " ^ listen))
    in
    (* the TCP cache stores rendered response payloads *)
    let cache = Option.map (fun cap -> Cache.create ~capacity:cap ()) cache_cap in
    (match (cache, st.wal) with
     | Some c, Some _ -> Cache.bump_all c all_rels
     | _ -> ());
    let bump rel = Option.iter (fun c -> Cache.bump c rel) cache in
    (* a streamed answer renders each tuple as its own item; the
       concatenation of the frames equals one "t1;t2;...;" listing, so a
       fully-drained stream carries strictly more information than the
       old "(%d tuples)" line while still being byte-deterministic *)
    let tuples_seq r =
      Seq.map (fun t -> Tuple.to_string t ^ ";") (List.to_seq (Relation.to_list r))
    in
    (* the shard wire protocol (DESIGN.md §4k): "dump REL" streams the
       raw rows of REL's local partition and "csv SQL" streams the
       certain answer, both in CSV row syntax (Csv_io.format_row, so
       marked nulls round-trip exactly).  The coordinator always turns
       #stream on first — a Stream payload without a stream handle is a
       protocol error the server reports on its own. *)
    let csv_rows r =
      Seq.map
        (fun t -> Csv_io.format_row t ^ ";")
        (List.to_seq (Relation.to_list r))
    in
    let wire_request sql =
      let word, rest =
        match String.index_opt sql ' ' with
        | None -> (sql, "")
        | Some i ->
          ( String.sub sql 0 i,
            String.trim
              (String.sub sql (i + 1) (String.length sql - i - 1)) )
      in
      match word with
      | "dump" ->
        Some
          (if rest = "" then Error "dump expects a relation name"
           else
             match Database.relation (view_db st) rest with
             | exception Not_found -> Error ("unknown relation " ^ rest)
             | _ ->
               (* raw rows: never cached (the coordinator caches
                  complete gathers itself) and no Q⁺ fallback — a dump
                  is already the ground truth *)
               Result.Ok
                 { Server.run =
                     (fun ~pool:_ ~guard ->
                       Guard.check (Some guard);
                       Server.Stream
                         (csv_rows (Database.relation (view_db st) rest)));
                   fallback = None;
                   cache = None })
      | "csv" ->
        Some
          (match Sql.To_algebra.translate_string schema rest with
           | exception
               (Sql.Parser.Parse_error msg | Sql.Lexer.Lex_error msg
               | Sql.To_algebra.Unsupported msg) ->
             Error msg
           | q ->
             Result.Ok
               { Server.run =
                   (fun ~pool ~guard ->
                     Server.Stream
                       (csv_rows
                          (Certainty.cert_with_nulls_ra ~pool ~guard
                             (view_db st) q)));
                 fallback =
                   Some
                     (fun ~pool ->
                       Server.Stream
                         (csv_rows (Scheme_pm.certain_sub ~pool (view_db st) q)));
                 cache =
                   cert_cache_binding ~key_prefix:"certc:" cache q })
      | _ -> None
    in
    let handler ~stream sql =
      match wire_request sql with
      | Some r -> r
      | None ->
      match parse_update_line sql with
      | Some (Error msg) -> Error msg
      | Some (Ok (op, rel, body)) ->
        (* applied here, in the connection domain, before the response
           job is admitted: later queries on this connection — which is
           synchronous request/response — see the update *)
        (match apply_update st ~bump op rel body with
         | changed ->
           let payload = Server.Line (update_line_response changed) in
           Result.Ok
             { Server.run = (fun ~pool:_ ~guard:_ -> payload);
               fallback = None;
               cache = None }
         | exception (Invalid_argument msg | Datalog.Eval.Eval_error msg) ->
           Error msg
         | exception ((Wal.Wal_error _) as e) ->
           (* a job that re-raises: the rejection surfaces through the
              service as "[n] failed: (wal) ..." — structured, counted
              in the failed column, and never retried (Wal_error is not
              a transient-fault class) *)
           Result.Ok
             { Server.run = (fun ~pool:_ ~guard:_ -> raise e);
               fallback = None;
               cache = None }
         | exception Guard.Injected (("wal.append" | "wal.fsync") as site) ->
           let e = Wal.Wal_error ("injected fault at " ^ site) in
           Result.Ok
             { Server.run = (fun ~pool:_ ~guard:_ -> raise e);
               fallback = None;
               cache = None })
      | None ->
      match Sql.To_algebra.translate_string schema sql with
      | exception
          (Sql.Parser.Parse_error msg | Sql.Lexer.Lex_error msg
          | Sql.To_algebra.Unsupported msg) ->
        Error msg
      | q when stream ->
        (* streamed answers are cached under "certs:" keys, line answers
           under "cert:" — a cached Line must never replay as a frame
           sequence (and vice versa) when a client toggles #stream *)
        Result.Ok
          { Server.run =
              (fun ~pool ~guard ->
                let r =
                  Certainty.cert_with_nulls_ra ~pool ~guard (view_db st) q
                in
                Server.Stream (tuples_seq r));
            fallback =
              Some
                (fun ~pool ->
                  let r = Scheme_pm.certain_sub ~pool (view_db st) q in
                  Server.Stream (tuples_seq r));
            cache = cert_cache_binding ~key_prefix:"certs:" cache q }
      | q ->
        Result.Ok
          { Server.run =
              (fun ~pool ~guard ->
                let r =
                  Certainty.cert_with_nulls_ra ~pool ~guard (view_db st) q
                in
                Server.Line (Printf.sprintf "(%d tuples)" (Relation.cardinal r)));
            fallback =
              Some
                (fun ~pool ->
                  let r = Scheme_pm.certain_sub ~pool (view_db st) q in
                  Server.Line
                    (Printf.sprintf "(%d tuples, sound subset)"
                       (Relation.cardinal r)));
            cache = cert_cache_binding cache q }
    in
    let server =
      Server.create
        { Server.host;
          port;
          max_connections = max_conns;
          max_line;
          read_timeout;
          write_timeout;
          drain_deadline;
          client_quota = quota;
          byte_quota =
            Option.map
              (fun burst ->
                { Server.burst;
                  rate = Option.value byte_rate ~default:(float_of_int burst);
                  policy = byte_policy })
              byte_quota;
          frame_items;
          stats =
            (* cache counters, then pool scheduler counters, then WAL
               counters — one line, pipe-separated *)
            (match (cache, svc_cfg.Service.pool, st.wal) with
             | None, None, None -> None
             | _ ->
               Some
                 (fun () ->
                   (match cache with
                    | Some c -> Cache.stats_line c
                    | None -> "cache disabled")
                   ^ (match svc_cfg.Service.pool with
                      | Some p -> " | " ^ Pool.stats_line p
                      | None -> "")
                   ^
                   match st.wal with
                   | Some w -> " | " ^ Wal.stats_line w
                   | None -> ""));
          snapshot =
            (match st.wal with
             | None -> None
             | Some _ -> Some (fun () -> snapshot_now st));
          directives = [];
          service = svc_cfg }
        handler
    in
    let on_signal _ = Server.drain server in
    (try Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal)
     with Invalid_argument _ | Sys_error _ -> ());
    (try Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal)
     with Invalid_argument _ | Sys_error _ -> ());
    Printf.printf "listening on %s:%d\n%!" host (Server.port server);
    let stats = Server.wait server in
    let c = Server.counters server in
    let s = Service.counters (Server.service server) in
    Printf.printf
      "-- connections: accepted %d, busy %d, oversized %d, timeouts %d, \
       crashed %d\n%!"
      c.Server.accepted c.Server.rejected_busy c.Server.oversized
      c.Server.timeouts c.Server.crashed;
    Printf.printf
      "-- queries: %d submitted, quota-shed %d; admitted %d, completed %d \
       (%d degraded), shed %d, retried %d, failed %d\n%!"
      c.Server.queries c.Server.quota_shed s.Service.admitted
      s.Service.completed s.Service.degraded s.Service.shed s.Service.retried
      s.Service.failed;
    Printf.printf
      "-- streaming: %d streams, %d frames, %d bytes out; byte-shed %d, \
       byte-degraded %d, parks %d, slow-evicted %d\n%!"
      c.Server.streams c.Server.frames c.Server.bytes_out c.Server.byte_shed
      c.Server.byte_degraded c.Server.throttle_parks c.Server.slow_evicted;
    Printf.printf "-- drain: %d forced cancels, %.1fms, invariant %s\n%!"
      stats.Server.forced_cancels stats.Server.drain_ms
      (if stats.Server.invariant_ok then "ok" else "VIOLATED");
    (match cache with
     | Some c -> Printf.printf "-- cache: %s\n%!" (Cache.stats_line c)
     | None -> ());
    (match svc_cfg.Service.pool with
     | Some p -> Printf.printf "-- %s\n%!" (Pool.stats_line p)
     | None -> ());
    (match st.wal with
     | Some w ->
       Printf.printf "-- %s\n%!" (Wal.stats_line w);
       Wal.close w
     | None -> ());
    if not stats.Server.invariant_ok then
      raise (Invalid_argument "counter invariant violated at drain")
  in
  let run db_name data scale null_rate seed fsync snapshot_every capacity
      shed workers retries backoff deadline_ms budget listen max_conns
      max_line read_timeout write_timeout drain_deadline quota byte_quota
      byte_rate byte_policy frame_items cache_size no_cache datalog partition =
    handle_errors (fun () ->
        (* Seed precedence under --data DIR: any snapshot/log in DIR is
           authoritative (it embeds its own schema); otherwise .csv
           files in DIR seed the database; otherwise the built-in
           -d/--scale workload does.  The seed is lazy so a snapshot
           restart never pays for generating a workload it discards. *)
        let dir_has_csvs dir =
          match Sys.readdir dir with
          | entries ->
            Array.exists (fun e -> Filename.check_suffix e ".csv") entries
          | exception Sys_error _ -> false
        in
        let csv_dir =
          match data with Some d when dir_has_csvs d -> Some d | _ -> None
        in
        let seed_db =
          lazy (snd (load_db ?data:csv_dir db_name ~scale ~null_rate ~seed))
        in
        let wal, db, next_null0 =
          match data with
          | None -> (None, Lazy.force seed_db, 10_000_000)
          | Some dir ->
            let w, r = Wal.open_dir ?fsync ~snapshot_every ~dir () in
            let base0, nn0 =
              match r.Wal.image with
              | Some img -> (img.s_base, img.s_next_null)
              | None -> (Lazy.force seed_db, 10_000_000)
            in
            let base, nn =
              List.fold_left
                (fun (db, _) rc ->
                  let current =
                    try Database.relation db rc.w_rel
                    with Not_found ->
                      invalid_arg
                        (Printf.sprintf
                           "recovery: log record for unknown relation %s \
                            (does %s still hold the workload it was logged \
                            against?)"
                           rc.w_rel dir)
                  in
                  let updated =
                    match rc.w_op with
                    | `Insert -> Relation.add rc.w_tuple current
                    | `Delete ->
                      Relation.diff current
                        (Relation.of_list (Relation.arity current)
                           [ rc.w_tuple ])
                  in
                  (Database.set_relation db rc.w_rel updated, rc.w_next_null))
                (base0, nn0) r.Wal.replayed
            in
            if r.Wal.image <> None || r.Wal.replayed <> [] then
              Printf.eprintf
                "incdb: recovered from %s: %s, %d log record(s) replayed\n%!"
                dir
                (match r.Wal.image with
                 | Some _ -> "snapshot loaded"
                 | None -> "no snapshot")
                (List.length r.Wal.replayed);
            (Some w, base, nn)
        in
        let db =
          match partition with
          | None -> db
          | Some (i, n) ->
            if data <> None then
              invalid_arg "--partition is incompatible with --data";
            if datalog <> None then
              invalid_arg "--partition is incompatible with --datalog";
            Database.map_relations
              (fun _ r ->
                Relation.of_list (Relation.arity r)
                  (List.filter
                     (fun t -> Shard.owner ~shards:n (Csv_io.format_row t) = i)
                     (Relation.to_list r)))
              db
        in
        let schema0 = Database.schema db in
        let dl, schema, view =
          match datalog with
          | None -> (None, schema0, db)
          | Some text ->
            (match Datalog.Parser.parse text with
             | exception Datalog.Parser.Parse_error msg ->
               Format.eprintf "parse error: %s@." msg;
               raise (Invalid_argument "invalid --datalog program")
             | program ->
               let m = Datalog.Eval.materialize db program in
               let idb = Datalog.Eval.idb m in
               let schema =
                 List.fold_left
                   (fun s (p, r) ->
                     Schema.declare s p
                       (List.init (Relation.arity r) (Printf.sprintf "c%d")))
                   schema0 idb
               in
               let view =
                 Database.of_list schema
                   (List.map
                      (fun (d : Schema.relation_decl) ->
                        (d.name, Relation.to_list (Database.relation db d.name)))
                      (Schema.relations schema0)
                    @ List.map (fun (p, r) -> (p, Relation.to_list r)) idb)
               in
               (Some m, schema, view))
        in
        let st =
          { slock = Mutex.create ();
            view;
            dl;
            next_null = ref next_null0;
            wal }
        in
        let all_rels =
          List.map
            (fun (d : Schema.relation_decl) -> d.name)
            (Schema.relations schema)
        in
        let cache_cap = if no_cache then None else Some cache_size in
        let svc_cfg =
          { Service.capacity;
            shed;
            workers;
            max_retries = retries;
            backoff_base = backoff;
            deadline_in = Option.map (fun ms -> ms /. 1000.0) deadline_ms;
            budget;
            pool = Pool.auto () }
        in
        match listen with
        | Some listen ->
          serve_listen schema ~all_rels st ~cache_cap ~listen ~max_conns
            ~max_line ~read_timeout ~write_timeout ~drain_deadline ~quota
            ~byte_quota ~byte_rate ~byte_policy ~frame_items svc_cfg
        | None ->
          serve_stdin schema ~all_rels st ~cache_cap (Service.create svc_cfg))
  in
  let doc =
    "serve newline-delimited SQL queries — from stdin, or over TCP with \
     --listen — through the concurrent front door: bounded admission, \
     priority lanes, per-client quotas, per-query deadlines/budgets, \
     retries with exponential backoff, degradation to the sound Q+ \
     approximation on budget exhaustion, and graceful drain on SIGTERM"
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ db_arg $ serve_data_arg $ scale_arg $ null_rate_arg
      $ seed_arg $ fsync_arg $ snapshot_every_arg $ capacity_arg $ shed_arg
      $ workers_arg $ retries_arg $ backoff_arg $ deadline_arg $ budget_arg
      $ listen_arg $ max_conns_arg $ max_line_arg $ read_timeout_arg
      $ write_timeout_arg $ drain_deadline_arg $ quota_arg $ byte_quota_arg
      $ byte_rate_arg $ byte_policy_arg $ frame_arg $ cache_arg $ no_cache_arg
      $ datalog_serve_arg $ partition_arg)

(* ------------------------------------------------------------------ *)
(* coord: sharded scatter/gather front end (DESIGN.md §4k)             *)
(* ------------------------------------------------------------------ *)

(* terminal-line classifier for the worker wire protocol: a "[n] WORD"
   response line whose WORD is neither "+" (a stream frame) nor
   "stream" (the stream opener) settles the request, as do the #err/
   #busy/#draining refusals; #ok directive acks do not. *)
let terminal_response_line l =
  let pfx p =
    String.length l >= String.length p && String.sub l 0 (String.length p) = p
  in
  if l = "" then false
  else if l.[0] = '#' then pfx "#err" || pfx "#busy" || pfx "#draining"
  else if l.[0] <> '[' then false
  else
    match String.index_opt l ' ' with
    | None -> false
    | Some i ->
      let rest = String.sub l (i + 1) (String.length l - i - 1) in
      let word =
        match String.index_opt rest ' ' with
        | None -> rest
        | Some j -> String.sub rest 0 j
      in
      word <> "+" && word <> "stream"

type stream_leg = { lr_rows : Tuple.t list; lr_degraded : bool }

(* decode one shard's response to a "#stream on" + csv/dump exchange:
   collect the CSV rows out of the "+ " frames and whether the end line
   carried the degraded marker; any refusal or failure terminal makes
   the whole leg an error (the caller counts it against m of n) *)
let parse_stream_leg lines =
  let rows = ref [] and degraded = ref false and err = ref None in
  List.iter
    (fun l ->
      if l <> "" && l.[0] = '[' then (
        match String.index_opt l ' ' with
        | None -> ()
        | Some i ->
          let rest = String.sub l (i + 1) (String.length l - i - 1) in
          let word, tail =
            match String.index_opt rest ' ' with
            | None -> (rest, "")
            | Some j ->
              ( String.sub rest 0 j,
                String.sub rest (j + 1) (String.length rest - j - 1) )
          in
          match word with
          | "+" ->
            let nn = ref 0 in
            rows :=
              List.rev_append
                (List.rev_map (Csv_io.parse_row ~next_null:nn)
                   (Csv_io.split_rows tail))
                !rows
          | "stream" -> ()
          | "end" ->
            if String.ends_with ~suffix:"degraded" tail then degraded := true
          | "degraded" -> degraded := true
          | "ok" -> ()
          | _ -> if !err = None then err := Some l)
      else if l <> "" && l.[0] = '#' then
        let pfx p =
          String.length l >= String.length p
          && String.sub l 0 (String.length p) = p
        in
        if (pfx "#err" || pfx "#busy" || pfx "#draining") && !err = None then
          err := Some l)
    lines;
  match !err with
  | Some e -> Error e
  | None -> Ok { lr_rows = List.rev !rows; lr_degraded = !degraded }

let coord_cmd =
  let shards_arg =
    let doc =
      "Comma-separated worker addresses (HOST:PORT each): one incdb serve \
       --listen --partition I/N process per entry, in partition order, all \
       seeded with the same -d/--scale/--null-rate/--seed workload."
    in
    Arg.(required
         & opt (some string) None
         & info [ "shards" ] ~docv:"HOST:PORT,..." ~doc)
  in
  let replicas_arg =
    let doc =
      "Comma-separated replica addresses aligned with --shards (- for a \
       shard without one): the target of hedged reads past the --hedge \
       latency quantile."
    in
    Arg.(value
         & opt (some string) None
         & info [ "replicas" ] ~docv:"HOST:PORT|-,..." ~doc)
  in
  let connect_timeout_arg =
    let doc = "Per-shard TCP connect deadline in seconds." in
    Arg.(value & opt float 1.0 & info [ "connect-timeout" ] ~docv:"SECONDS" ~doc)
  in
  let rpc_timeout_arg =
    let doc = "Per-shard RPC deadline in seconds (connect + send + drain)." in
    Arg.(value & opt float 10.0 & info [ "rpc-timeout" ] ~docv:"SECONDS" ~doc)
  in
  let rpc_retries_arg =
    let doc =
      "Retry attempts per shard RPC after the first try (skipped once the \
       shard's breaker opens)."
    in
    Arg.(value & opt int 1 & info [ "rpc-retries" ] ~docv:"N" ~doc)
  in
  let shard_backoff_arg =
    let doc = "Shard retry backoff base in seconds: retry n sleeps base * 2^n." in
    Arg.(value & opt float 0.05 & info [ "shard-backoff" ] ~docv:"SECONDS" ~doc)
  in
  let breaker_k_arg =
    let doc =
      "Consecutive failures that trip a shard's circuit breaker open; while \
       open, calls fail fast without touching the network."
    in
    Arg.(value & opt int 3 & info [ "breaker-k" ] ~docv:"K" ~doc)
  in
  let breaker_cooldown_arg =
    let doc =
      "Seconds an open breaker waits before letting one half-open probe \
       through; a successful probe re-closes it."
    in
    Arg.(value
         & opt float 1.0
         & info [ "breaker-cooldown" ] ~docv:"SECONDS" ~doc)
  in
  let hedge_arg =
    let doc =
      "Hedged reads: once a shard call outlives this quantile of its own \
       recent latencies (e.g. 0.95), fire a second copy at the shard's \
       --replicas entry and take whichever answers first.  Off when \
       omitted."
    in
    Arg.(value & opt (some float) None & info [ "hedge" ] ~docv:"QUANTILE" ~doc)
  in
  let hedge_min_arg =
    let doc =
      "Floor in seconds under the --hedge trigger, so cold latency windows \
       never hedge instantly."
    in
    Arg.(value & opt float 0.05 & info [ "hedge-min" ] ~docv:"SECONDS" ~doc)
  in
  let run db_name scale null_rate seed shards replicas connect_timeout
      rpc_timeout rpc_retries shard_backoff breaker_k breaker_cooldown hedge
      hedge_min capacity shed workers retries backoff deadline_ms budget
      listen max_conns max_line read_timeout write_timeout drain_deadline
      quota byte_quota byte_rate byte_policy frame_items cache_size no_cache
      datalog =
    handle_errors (fun () ->
        let parse_addrs s = List.map String.trim (String.split_on_char ',' s) in
        let primaries =
          List.map
            (fun a ->
              match Shard.addr_of_string a with
              | Ok addr -> addr
              | Error msg -> invalid_arg ("--shards: " ^ msg))
            (List.filter (fun a -> a <> "") (parse_addrs shards))
        in
        if primaries = [] then
          invalid_arg "--shards expects at least one HOST:PORT";
        let replicas =
          match replicas with
          | None -> List.map (fun _ -> None) primaries
          | Some s ->
            let rs = parse_addrs s in
            if List.length rs <> List.length primaries then
              invalid_arg
                "--replicas must list one entry per shard (- for none)";
            List.map
              (fun a ->
                if a = "-" then None
                else
                  match Shard.addr_of_string a with
                  | Ok addr -> Some addr
                  | Error msg -> invalid_arg ("--replicas: " ^ msg))
              rs
        in
        let shard_cfg =
          { Shard.connect_timeout;
            rpc_timeout;
            rpc_retries;
            backoff_base = shard_backoff;
            breaker_threshold = breaker_k;
            breaker_cooldown;
            hedge_quantile = hedge;
            hedge_min }
        in
        (* the workers were seeded with this same deterministic workload;
           regenerate it for its schema (and, under --datalog, the IDB
           arities), then drop the instance — the coordinator holds no
           base data of its own *)
        let schema0, seed_db = load_db db_name ~scale ~null_rate ~seed in
        let dl_program, schema =
          match datalog with
          | None -> (None, schema0)
          | Some text -> (
            match Datalog.Parser.parse text with
            | exception Datalog.Parser.Parse_error msg ->
              Format.eprintf "parse error: %s@." msg;
              raise (Invalid_argument "invalid --datalog program")
            | program ->
              let m = Datalog.Eval.materialize seed_db program in
              let schema =
                List.fold_left
                  (fun s (p, r) ->
                    Schema.declare s p
                      (List.init (Relation.arity r) (Printf.sprintf "c%d")))
                  schema0 (Datalog.Eval.idb m)
              in
              (Some program, schema))
        in
        let edb_names =
          List.map
            (fun (d : Schema.relation_decl) -> d.name)
            (Schema.relations schema0)
        in
        let idb_names =
          List.filter
            (fun r -> not (List.mem r edb_names))
            (List.map
               (fun (d : Schema.relation_decl) -> d.name)
               (Schema.relations schema))
        in
        let all_rels = edb_names @ idb_names in
        let cache_cap = if no_cache then None else Some cache_size in
        (* clock protects the coordinator's fresh-null allocator (updates
           mint marked nulls here, shards only echo them) and the dump
           cache of complete gathers *)
        let clock = Mutex.create () in
        let next_null = ref 10_000_000 in
        let dumps : (string, Tuple.t list) Hashtbl.t = Hashtbl.create 16 in
        (* the semantic cache lives in the front end (its payload type is
           the front end's); recovery and update invalidation reach it
           through these hooks *)
        let on_recover_hook = ref (fun () -> ()) in
        let on_recover () =
          (* a shard re-closing its breaker may hold rows our degraded
             answers and partial gathers never saw: flush both caches so
             nothing stale outlives the recovery *)
          !on_recover_hook ();
          Mutex.lock clock;
          Hashtbl.reset dumps;
          Mutex.unlock clock
        in
        let co =
          Coord.create ~on_recover shard_cfg
            (Array.of_list (List.combine primaries replicas))
        in
        let n_shards = Coord.size co in
        let bump_dumps rel =
          Mutex.lock clock;
          Hashtbl.remove dumps rel;
          Mutex.unlock clock
        in
        (* ---- gather tier ---------------------------------------- *)
        let gather_rel ?guard rel =
          let cached =
            Mutex.lock clock;
            let c = Hashtbl.find_opt dumps rel in
            Mutex.unlock clock;
            c
          in
          match cached with
          | Some rows -> (rows, n_shards)
          | None ->
            let results =
              Coord.scatter ?guard co
                ~lines:(fun _ -> [ "#stream on"; "dump " ^ rel ])
                ~terminal:terminal_response_line
            in
            let m = ref 0 and rows = ref [] in
            Array.iter
              (function
                | Ok lines -> (
                  match parse_stream_leg lines with
                  | Ok leg when not leg.lr_degraded ->
                    incr m;
                    rows := List.rev_append leg.lr_rows !rows
                  | Ok _ | Error _ -> ())
                | Error _ -> ())
              results;
            if !m = n_shards then begin
              (* only complete gathers are cached; a partial dump must
                 be re-tried next query, never frozen in *)
              Mutex.lock clock;
              Hashtbl.replace dumps rel !rows;
              Mutex.unlock clock
            end;
            (!rows, !m)
        in
        let gather_db ?guard rels =
          let m_min = ref n_shards in
          let bindings =
            List.map
              (fun r ->
                let rows, m = gather_rel ?guard r in
                if m < !m_min then m_min := m;
                (r, rows))
              rels
          in
          (Database.of_list schema0 bindings, !m_min)
        in
        let extend_datalog ?guard ~pool base =
          match dl_program with
          | None -> base
          | Some program ->
            let m = Datalog.Eval.materialize ~pool ?guard base program in
            Database.of_list schema
              (List.map
                 (fun r -> (r, Relation.to_list (Database.relation base r)))
                 edb_names
               @ List.map
                   (fun (p, r) -> (p, Relation.to_list r))
                   (Datalog.Eval.idb m))
        in
        (* ---- scatter tier --------------------------------------- *)
        let scatter_rows ?guard sql =
          let results =
            Coord.scatter ?guard co
              ~lines:(fun _ -> [ "#stream on"; "csv " ^ sql ])
              ~terminal:terminal_response_line
          in
          let m = ref 0 and rows = ref [] and deg = ref false in
          Array.iter
            (function
              | Ok lines -> (
                match parse_stream_leg lines with
                | Ok leg ->
                  incr m;
                  if leg.lr_degraded then deg := true;
                  rows := List.rev_append leg.lr_rows !rows
                | Error _ -> ())
              | Error _ -> ())
            results;
          (!rows, !m, !deg)
        in
        (* one query end to end.  Scatter-routed queries (the positive
           tuple-at-a-time fragment, always monotone) take the union of
           shard-local certain answers; everything else gathers the base
           relations and evaluates here.  Partial fleets degrade only
           when soundness survives: a monotone query over a subset
           database under-approximates, a non-monotone one could
           over-approximate and fails structurally instead.
           @raise Failure when no sound answer exists *)
        let coord_answer ?guard ~pool ~approx sql q =
          let rels = Algebra.relations q in
          let uses_idb = List.exists (fun r -> List.mem r idb_names) rels in
          let route =
            if uses_idb then Planner.Gather else Planner.shard_split q
          in
          match route with
          | Planner.Scatter when not approx ->
            let rows, m, deg = scatter_rows ?guard sql in
            if m = 0 then
              failwith
                (Printf.sprintf "no shard answered (shards=0/%d)" n_shards);
            let r = Relation.of_list (Algebra.arity schema q) rows in
            (r, if m = n_shards && not deg then `Exact else `Partial m)
          | Planner.Scatter | Planner.Gather ->
            let needed =
              if uses_idb then edb_names
              else List.filter (fun r -> List.mem r edb_names) rels
            in
            let base, m = gather_db ?guard needed in
            if m = 0 then
              failwith
                (Printf.sprintf "no shard answered (shards=0/%d)" n_shards);
            if m < n_shards && not (Planner.monotone q) then
              failwith
                (Printf.sprintf
                   "non-monotone query with shards down (shards=%d/%d): a \
                    partial database could over-approximate its certain \
                    answer"
                   m n_shards);
            let db = extend_datalog ?guard ~pool base in
            let r =
              if approx then Scheme_pm.certain_sub ~pool db q
              else Certainty.cert_with_nulls_ra ~pool ?guard db q
            in
            (r, if m = n_shards then `Exact else `Partial m)
        in
        (* exact answers return plainly; a partial one is stashed and
           routed through the Budget-interrupt → fallback path, so it
           lands in the service's Degraded outcome column (the
           admitted = completed + shed + failed invariant intact, the
           cache storing it as approximate, the client told explicitly) *)
        let degradable ~exact ~degraded sql q =
          let stash = ref None in
          let run ~pool ~guard =
            match coord_answer ~guard ~pool ~approx:false sql q with
            | r, `Exact -> exact r
            | r, `Partial m ->
              stash := Some (r, m);
              raise (Guard.Interrupt (Guard.Budget { tuples = Relation.cardinal r }))
          in
          let fallback ~pool =
            match !stash with
            | Some (r, m) -> degraded r m
            | None ->
              (* a genuine guard trip mid-gather: unguarded best-effort
                 Q⁺ re-evaluation, like every other fallback *)
              let r, mark = coord_answer ~pool ~approx:true sql q in
              degraded r (match mark with `Exact -> n_shards | `Partial m -> m)
          in
          (run, fallback)
        in
        let line_payload r = Printf.sprintf "(%d tuples)" (Relation.cardinal r) in
        let line_degraded r m =
          if m = n_shards then
            (* the whole fleet answered; the subset came from worker-side
               budget degradation — same contract as single-process Q⁺ *)
            Printf.sprintf "(%d tuples, sound subset)" (Relation.cardinal r)
          else
            Printf.sprintf "(%d tuples, under-approximation, shards=%d/%d)"
              (Relation.cardinal r) m n_shards
        in
        (* ---- update routing ------------------------------------- *)
        let route_update ~bump op rel body =
          let opname =
            match op with `Insert -> "insert" | `Delete -> "delete"
          in
          Mutex.lock clock;
          let saved = !next_null in
          let reject e =
            next_null := saved;
            Mutex.unlock clock;
            raise e
          in
          match
            if List.mem rel idb_names then
              invalid_arg
                (Printf.sprintf "%s %s: cannot update an IDB predicate" opname
                   rel);
            let k =
              try Schema.arity schema0 rel
              with Not_found -> invalid_arg ("unknown relation " ^ rel)
            in
            let cells =
              if String.trim body = "" then []
              else String.split_on_char ',' body
            in
            let tuple =
              Tuple.of_list (List.map (Csv_io.parse_value ~next_null) cells)
            in
            if Tuple.arity tuple <> k then
              invalid_arg
                (Printf.sprintf "%s %s: arity mismatch (expected %d, got %d)"
                   opname rel k (Tuple.arity tuple));
            tuple
          with
          | exception e -> reject e
          | tuple -> (
            (* the coordinator mints the marked nulls and renders the row,
               so the owner shard — and a restarted successor — stores the
               exact same labels; rejected updates roll the allocator
               back, mirroring serve's log-before-ack discipline *)
            let row = Csv_io.format_row tuple in
            let owner = Shard.owner ~shards:n_shards row in
            let line = Printf.sprintf "%s %s(%s)" opname rel row in
            match
              Shard.call
                (Coord.shards co).(owner)
                ~lines:[ line ] ~terminal:terminal_response_line
            with
            | Error e ->
              reject
                (Failure
                   (Printf.sprintf
                      "update owner shard %d/%d unavailable (%s): rejected \
                       whole, not applied"
                      owner n_shards (Shard.error_to_string e)))
            | Ok lines -> (
              match List.find_opt terminal_response_line lines with
              | Some l when String.length l > 7 && String.sub l 0 7 = "[1] ok "
                ->
                let tail = String.sub l 7 (String.length l - 7) in
                (* strip the worker's own timing token *)
                let payload =
                  match String.rindex_opt tail ' ' with
                  | Some j
                    when String.ends_with ~suffix:"ms"
                           (String.sub tail (j + 1)
                              (String.length tail - j - 1)) ->
                    String.sub tail 0 j
                  | _ -> tail
                in
                Mutex.unlock clock;
                if payload <> "updated (no-op)" then bump rel;
                payload
              | Some l
                when String.length l > 17
                     && String.sub l 0 17 = "[1] parse error: " ->
                reject
                  (Invalid_argument
                     (String.sub l 17 (String.length l - 17)))
              | Some l ->
                reject
                  (Failure
                     (Printf.sprintf "shard %d refused update: %s" owner l))
              | None ->
                reject
                  (Failure
                     (Printf.sprintf "shard %d: no terminal response" owner))))
        in
        let svc_cfg =
          { Service.capacity;
            shed;
            workers;
            max_retries = retries;
            backoff_base = backoff;
            deadline_in = Option.map (fun ms -> ms /. 1000.0) deadline_ms;
            budget;
            pool = Pool.auto () }
        in
        let stats_body ~cache_seg () =
          cache_seg ()
          ^ (match svc_cfg.Service.pool with
             | Some p -> " | " ^ Pool.stats_line p
             | None -> "")
          ^ " | coord " ^ Coord.stats_line co
        in
        (* ---- stdin front end ------------------------------------ *)
        let coord_stdin svc =
          let cache =
            Option.map (fun cap -> Cache.create ~capacity:cap ()) cache_cap
          in
          on_recover_hook :=
            (fun () -> Option.iter (fun c -> Cache.bump_all c all_rels) cache);
          let bump rel =
            (* an EDB change can move any IDB fixpoint, so those versions
               bump along with the touched relation *)
            Option.iter
              (fun c -> List.iter (Cache.bump c) (rel :: idb_names))
              cache;
            bump_dumps rel
          in
          let cache_seg () =
            match cache with
            | Some c -> Cache.stats_line c
            | None -> "cache disabled"
          in
          let q = Queue.create () in
          let lock = Mutex.create () in
          let nonempty = Stdlib.Condition.create () in
          let push item =
            Mutex.lock lock;
            Queue.push item q;
            Stdlib.Condition.signal nonempty;
            Mutex.unlock lock
          in
          let pop () =
            Mutex.lock lock;
            while Queue.is_empty q do
              Stdlib.Condition.wait nonempty lock
            done;
            let item = Queue.pop q in
            Mutex.unlock lock;
            item
          in
          let stdout_bytes = Atomic.make 0 in
          let emit line =
            ignore (Atomic.fetch_and_add stdout_bytes (String.length line + 1));
            Printf.printf "%s\n%!" line
          in
          let printer () =
            let any_failed = ref false in
            let rec loop () =
              match pop () with
              | None -> !any_failed
              | Some item ->
                (match item with
                 | `Text line -> emit line
                 | `Outcome (n, ticket, t0) -> (
                   let outcome = Service.await ticket in
                   let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
                   match outcome with
                   | Service.Ok s ->
                     emit (Printf.sprintf "[%d] ok %s %.1fms" n s ms)
                   | Service.Degraded s ->
                     emit (Printf.sprintf "[%d] degraded %s %.1fms" n s ms)
                   | Service.Overloaded ->
                     emit (Printf.sprintf "[%d] overloaded" n)
                   | Service.Interrupted reason ->
                     emit
                       (Printf.sprintf "[%d] interrupted: %s" n
                          (Guard.reason_to_string reason))
                   | Service.Failed e ->
                     any_failed := true;
                     emit
                       (Printf.sprintf "[%d] failed: %s" n
                          (Printexc.to_string e))));
                loop ()
            in
            loop ()
          in
          let printer_d = Domain.spawn printer in
          let lineno = ref 0 in
          let drain_requested = ref false in
          (try
             while true do
               let line = String.trim (input_line stdin) in
               if line <> "" then
                 if line.[0] = '#' then (
                   if line = "#stats" then
                     push
                       (Some
                          (`Text
                             ("#stats " ^ stats_body ~cache_seg ()
                             ^ Printf.sprintf
                                 " | srv bytes=%d streams=0 frames=0 \
                                  byte_shed=0 byte_degraded=0 parks=0 \
                                  slow_evicted=0 clients=[]"
                                 (Atomic.get stdout_bytes))))
                   else if line = "#health" then
                     List.iter
                       (fun l -> push (Some (`Text l)))
                       (Coord.health_lines co)
                   else if line = "#drain" then begin
                     drain_requested := true;
                     push (Some (`Text "#ok draining"));
                     raise Exit
                   end
                   else push (Some (`Text "#err unknown directive")))
                 else begin
                   incr lineno;
                   let n = !lineno in
                   match parse_update_line line with
                   | Some (Error msg) ->
                     push
                       (Some (`Text (Printf.sprintf "[%d] parse error: %s" n msg)))
                   | Some (Ok (op, rel, body)) -> (
                     match route_update ~bump op rel body with
                     | payload ->
                       push
                         (Some (`Text (Printf.sprintf "[%d] ok %s" n payload)))
                     | exception Invalid_argument msg ->
                       push
                         (Some (`Text (Printf.sprintf "[%d] error: %s" n msg)))
                     | exception Failure msg ->
                       push
                         (Some (`Text (Printf.sprintf "[%d] failed: %s" n msg))))
                   | None -> (
                     match Sql.To_algebra.translate_string schema line with
                     | exception
                         (Sql.Parser.Parse_error msg | Sql.Lexer.Lex_error msg
                         | Sql.To_algebra.Unsupported msg) ->
                       push
                         (Some
                            (`Text (Printf.sprintf "[%d] parse error: %s" n msg)))
                     | q ->
                       let t0 = Unix.gettimeofday () in
                       let run, fallback =
                         degradable ~exact:line_payload ~degraded:line_degraded
                           line q
                       in
                       let ticket =
                         Service.submit svc
                           ?cache:
                             (cert_cache_binding ~approx_deps:all_rels cache q)
                           ~fallback run
                       in
                       push (Some (`Outcome (n, ticket, t0))))
                 end
             done
           with End_of_file | Exit -> ());
          push None;
          let any_failed = Domain.join printer_d in
          Service.shutdown svc;
          let c = Service.counters svc in
          Printf.printf
            "-- admitted %d, completed %d (%d degraded), shed %d, retried %d, \
             failed %d\n%!"
            c.Service.admitted c.Service.completed c.Service.degraded
            c.Service.shed c.Service.retried c.Service.failed;
          (match cache with
           | Some c -> Printf.printf "-- cache: %s\n%!" (Cache.stats_line c)
           | None -> ());
          (match svc_cfg.Service.pool with
           | Some p -> Printf.printf "-- %s\n%!" (Pool.stats_line p)
           | None -> ());
          Printf.printf "-- coord: %s\n%!" (Coord.stats_line co);
          (* #drain propagates to the fleet; plain EOF leaves the workers
             up for the next coordinator run *)
          if !drain_requested then Coord.drain_fanout co;
          if any_failed then raise (Invalid_argument "some queries failed")
        in
        (* ---- TCP front end -------------------------------------- *)
        let coord_listen listen =
          let host, port =
            match String.rindex_opt listen ':' with
            | None -> invalid_arg ("--listen expects HOST:PORT, got " ^ listen)
            | Some i -> (
              let host = String.sub listen 0 i in
              let port_s =
                String.sub listen (i + 1) (String.length listen - i - 1)
              in
              match int_of_string_opt port_s with
              | Some p when p >= 0 && p < 65536 -> (host, p)
              | _ -> invalid_arg ("--listen expects HOST:PORT, got " ^ listen))
          in
          let cache =
            Option.map (fun cap -> Cache.create ~capacity:cap ()) cache_cap
          in
          on_recover_hook :=
            (fun () -> Option.iter (fun c -> Cache.bump_all c all_rels) cache);
          let bump rel =
            Option.iter
              (fun c -> List.iter (Cache.bump c) (rel :: idb_names))
              cache;
            bump_dumps rel
          in
          let cache_seg () =
            match cache with
            | Some c -> Cache.stats_line c
            | None -> "cache disabled"
          in
          let tuples_seq r =
            Seq.map
              (fun t -> Tuple.to_string t ^ ";")
              (List.to_seq (Relation.to_list r))
          in
          let handler ~stream sql =
            match parse_update_line sql with
            | Some (Error msg) -> Error msg
            | Some (Ok (op, rel, body)) -> (
              (* routed here in the connection domain, like serve: the
                 synchronous request/response order of one connection
                 sees its own updates *)
              match route_update ~bump op rel body with
              | payload ->
                Result.Ok
                  { Server.run = (fun ~pool:_ ~guard:_ -> Server.Line payload);
                    fallback = None;
                    cache = None }
              | exception Invalid_argument msg -> Error msg
              | exception (Failure _ as e) ->
                Result.Ok
                  { Server.run = (fun ~pool:_ ~guard:_ -> raise e);
                    fallback = None;
                    cache = None })
            | None -> (
              match Sql.To_algebra.translate_string schema sql with
              | exception
                  (Sql.Parser.Parse_error msg | Sql.Lexer.Lex_error msg
                  | Sql.To_algebra.Unsupported msg) ->
                Error msg
              | q ->
                let exact, degraded, key_prefix =
                  if stream then
                    ( (fun r -> Server.Stream (tuples_seq r)),
                      (fun r _m -> Server.Stream (tuples_seq r)),
                      "certs:" )
                  else
                    ( (fun r -> Server.Line (line_payload r)),
                      (fun r m -> Server.Line (line_degraded r m)),
                      "cert:" )
                in
                let run, fallback = degradable ~exact ~degraded sql q in
                Result.Ok
                  { Server.run;
                    fallback = Some fallback;
                    cache =
                      cert_cache_binding ~key_prefix ~approx_deps:all_rels
                        cache q })
          in
          let server =
            Server.create
              { Server.host;
                port;
                max_connections = max_conns;
                max_line;
                read_timeout;
                write_timeout;
                drain_deadline;
                client_quota = quota;
                byte_quota =
                  Option.map
                    (fun burst ->
                      { Server.burst;
                        rate =
                          Option.value byte_rate
                            ~default:(float_of_int burst);
                        policy = byte_policy })
                    byte_quota;
                frame_items;
                stats = Some (stats_body ~cache_seg);
                snapshot = None;
                directives =
                  [ ("#health", fun () -> Coord.health_lines co) ];
                service = svc_cfg }
              handler
          in
          let on_signal _ = Server.drain server in
          (try Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal)
           with Invalid_argument _ | Sys_error _ -> ());
          (try Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal)
           with Invalid_argument _ | Sys_error _ -> ());
          Printf.printf "listening on %s:%d\n%!" host (Server.port server);
          let stats = Server.wait server in
          (* coordinator shutdown propagates: fan #drain out to the
             fleet once our own drain has settled *)
          Coord.drain_fanout co;
          let c = Server.counters server in
          let s = Service.counters (Server.service server) in
          Printf.printf
            "-- connections: accepted %d, busy %d, oversized %d, timeouts %d, \
             crashed %d\n%!"
            c.Server.accepted c.Server.rejected_busy c.Server.oversized
            c.Server.timeouts c.Server.crashed;
          Printf.printf
            "-- queries: %d submitted, quota-shed %d; admitted %d, completed \
             %d (%d degraded), shed %d, retried %d, failed %d\n%!"
            c.Server.queries c.Server.quota_shed s.Service.admitted
            s.Service.completed s.Service.degraded s.Service.shed
            s.Service.retried s.Service.failed;
          Printf.printf "-- coord: %s\n%!" (Coord.stats_line co);
          Printf.printf "-- drain: %d forced cancels, %.1fms, invariant %s\n%!"
            stats.Server.forced_cancels stats.Server.drain_ms
            (if stats.Server.invariant_ok then "ok" else "VIOLATED");
          if not stats.Server.invariant_ok then
            raise (Invalid_argument "counter invariant violated at drain")
        in
        match listen with
        | Some listen -> coord_listen listen
        | None -> coord_stdin (Service.create svc_cfg))
  in
  let doc =
    "scatter/gather coordinator over a fleet of incdb serve --partition \
     workers: UCQ-shaped certain-answer queries fan out shard-local and \
     union (exact by genericity); other plans gather the base relations \
     and evaluate at the coordinator.  Per-shard circuit breakers, \
     deadlines, seeded backoff and optional hedged reads bound every \
     failure; a partial fleet yields explicitly Degraded \
     under-approximations for monotone queries and structured failures \
     otherwise — never silent short answers"
  in
  Cmd.v (Cmd.info "coord" ~doc)
    Term.(
      const run $ db_arg $ scale_arg $ null_rate_arg $ seed_arg $ shards_arg
      $ replicas_arg $ connect_timeout_arg $ rpc_timeout_arg $ rpc_retries_arg
      $ shard_backoff_arg $ breaker_k_arg $ breaker_cooldown_arg $ hedge_arg
      $ hedge_min_arg $ capacity_arg $ shed_arg $ workers_arg $ retries_arg
      $ backoff_arg $ deadline_arg $ budget_arg $ listen_arg $ max_conns_arg
      $ max_line_arg $ read_timeout_arg $ write_timeout_arg
      $ drain_deadline_arg $ quota_arg $ byte_quota_arg $ byte_rate_arg
      $ byte_policy_arg $ frame_arg $ cache_arg $ no_cache_arg
      $ datalog_serve_arg)


let () =
  let doc = "certain answers over incomplete databases" in
  let info = Cmd.info "incdb" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval' (Cmd.group info [ demo_cmd; eval_cmd; compare_cmd; prob_cmd; classify_cmd; fo_cmd;
          datalog_cmd; serve_cmd; coord_cmd ]))
