(* The paper_batch workload: the paper's own algorithms, in process, from
   one caller thread with the default pool (Pool.auto).  One round runs a
   fixed instance set once:

   - exact cert⊥ (Certainty.cert_with_nulls_ra) on four instances with
     4–6 nulls over a 4-constant pool: two "sentinels" whose answer
     holds a constant no world can remove, so every canonical world is
     enumerated, and two whose candidate set empties part-way (one after
     the first constant of the first null is exhausted, one at once);
   - each of the four c-table strategies (Ctables.Ceval.eval) on a
     selected product at 40 rows and a difference at 80 rows, 15% nulls.

   The instances' shapes (arity, row counts, null counts, constant
   pools) are fixed; the seed only draws the values. *)

open Incdb

let schema = Schema.of_list [ ("R", [ "a"; "b" ]); ("S", [ "b"; "c" ]) ]
let r_minus_s = Algebra.Diff (Algebra.Project ([ 0 ], Algebra.Rel "R"), Algebra.Project ([ 0 ], Algebra.Rel "S"))

type cert_instance = {
  cname : string;
  cdb : Database.t;
  expected : Relation.t;  (** known by construction *)
}

type ctable_instance = { tname : string; tdb : Database.t; query : Algebra.t }

let tuple a b = Tuple.of_list [ a; b ]
let int = Value.int

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let take n l = List.filteri (fun i _ -> i < n) l

(* π₀R − π₀S over the pool {0..3}, rows distinct so every seed gives
   relations of the same size.  S's first column covers the pool (from 1
   when [late]); each complete row of R has its first value in it.  A
   sentinel row (100, _) is in every world's answer, so cert⊥ is {(100)}
   after all canonical worlds; a null row (⊥, _) leaves the candidates in
   the first world that maps ⊥ into S's first column, so without a
   sentinel cert⊥ is empty.  With [late], 0 occurs only in R's second
   column: a pattern constant outside π₀S that the first null tries
   first, keeping its row alive through that whole branch. *)
let cert_instance rng ~name ~nulls ~sentinel ~late =
  let pool = [ 0; 1; 2; 3 ] in
  let firsts = if late then [ 1; 2; 3 ] else pool in
  let c () = int (Random.State.int rng 4) in
  let s_rows =
    List.concat_map
      (fun a -> List.map (fun b -> tuple (int a) (int b)) (take 3 (shuffle rng pool)))
      firsts
  in
  let complete =
    List.concat_map (fun a -> List.map (fun b -> (a, b)) pool) firsts
    |> List.filter (fun p -> p <> (1, 0))
    |> shuffle rng |> take 8
    |> List.map (fun (a, b) -> tuple (int a) (int b))
  in
  let r_rows =
    complete
    @ List.init nulls (fun i -> tuple (Value.null i) (c ()))
    @ (if sentinel then [ tuple (int 100) (c ()) ] else [])
    @ if late then [ tuple (int 1) (int 0) ] else []
  in
  { cname = name;
    cdb = Database.of_list schema [ ("R", r_rows); ("S", s_rows) ];
    expected =
      Relation.of_list 1 (if sentinel then [ Tuple.of_list [ int 100 ] ] else []) }

(* [rows] distinct rows per relation over a pool of [rows / 2]
   constants.  Each constant occurs exactly twice in the join column
   (R's second, S's first), so the selected product's complete part has
   the same size on every seed; 15% of the cells are nulls, half in each
   column. *)
let ctable_db rng ~rows =
  let pool = rows / 2 in
  let next_null = ref 0 in
  let rel ~join_col =
    let joins = shuffle rng (List.init rows (fun i -> i mod pool)) in
    let others =
      (* the two rows sharing a join value get distinct other values *)
      let seen = Hashtbl.create rows in
      List.map
        (fun v ->
          let rec pick () =
            let o = Random.State.int rng pool in
            if Hashtbl.mem seen (v, o) then pick () else (Hashtbl.replace seen (v, o) (); o)
          in
          pick ())
        joins
    in
    let cells = List.map2 (fun j o -> if join_col = 1 then [| int o; int j |] else [| int j; int o |]) joins others in
    let per_col = int_of_float (Float.round (0.15 *. float_of_int rows)) in
    let null_rows col = take per_col (shuffle rng (List.init rows Fun.id)) |> List.map (fun i -> (i, col)) in
    let holes = null_rows 0 @ null_rows 1 in
    List.mapi
      (fun i t ->
        List.iter
          (fun (r, col) ->
            if r = i then begin
              t.(col) <- Value.null !next_null;
              incr next_null
            end)
          holes;
        t)
      cells
  in
  Database.of_list schema [ ("R", rel ~join_col:1); ("S", rel ~join_col:0) ]

type instances = { certs : cert_instance list; ctables : ctable_instance list }

let instances ~seed =
  let rng = Random.State.make [| seed; 0xba7c |] in
  { certs =
      [ cert_instance rng ~name:"sentinel-4" ~nulls:4 ~sentinel:true ~late:false;
        cert_instance rng ~name:"sentinel-5" ~nulls:5 ~sentinel:true ~late:false;
        cert_instance rng ~name:"early-6-late" ~nulls:6 ~sentinel:false ~late:true;
        cert_instance rng ~name:"early-6-first" ~nulls:6 ~sentinel:false ~late:false ];
    ctables =
      [ { tname = "product-40"; tdb = ctable_db rng ~rows:40;
          query =
            Algebra.Select (Condition.eq_col 1 2, Algebra.Product (Algebra.Rel "R", Algebra.Rel "S")) };
        { tname = "difference-80"; tdb = ctable_db rng ~rows:80;
          query = Algebra.Diff (Algebra.Rel "R", Algebra.Rel "S") } ] }

(* ------------------------------------------------------------------ *)
(* one round                                                            *)
(* ------------------------------------------------------------------ *)

type call = {
  layer : string;  (** "certainty" or "ceval.<strategy>" *)
  ms : float;
  cpu_ms : float;  (** CPU time of the whole process, every domain *)
  t0 : float;
  t1 : float;
  tuples : int;  (** Guard.tuples_used, or ctuples out *)
}

type round = { calls : call list; r0 : float; r1 : float }

let strategy_layer s =
  "ceval." ^ String.map (fun c -> if c = '-' then '_' else c) (Ctables.Ceval.strategy_name s)

let timed layer f =
  let c0 = Util.cpu_time () in
  let t0 = Util.now () in
  let tuples = f () in
  let t1 = Util.now () in
  { layer; ms = (t1 -. t0) *. 1000.0; cpu_ms = (Util.cpu_time () -. c0) *. 1000.0; t0; t1; tuples }

let round inst =
  let pool = Pool.auto () in
  let r0 = Util.now () in
  let certs =
    List.map
      (fun c ->
        timed "certainty" (fun () ->
            let guard = Guard.create () in
            ignore (Certainty.cert_with_nulls_ra ~pool ~guard c.cdb r_minus_s);
            Guard.tuples_used guard))
      inst.certs
  in
  let ctables =
    List.concat_map
      (fun t ->
        List.map
          (fun s ->
            timed (strategy_layer s) (fun () ->
                Ctables.Ctable.cardinal (Ctables.Ceval.eval ~pool s t.tdb t.query)))
          Ctables.Ceval.all_strategies)
      inst.ctables
  in
  { calls = certs @ ctables; r0; r1 = Util.now () }

(* Rounds until [seconds] of them ran uncontended.  A round during
   which the host's steal share exceeded Util.steal_valid is set aside
   and does not count; after twice [seconds] in all the run stops short.
   Returns the uncontended rounds and the number set aside. *)
let rounds inst ~seconds =
  let stop = Util.now () +. (2.0 *. seconds) in
  let rec go acc clean_s spoiled =
    if clean_s >= seconds || Util.now () >= stop then (List.rev acc, spoiled)
    else
      match Util.with_steal (fun () -> round inst) with
      | r, steal when steal <= Util.steal_valid -> go (r :: acc) (clean_s +. r.r1 -. r.r0) spoiled
      | _ -> go acc clean_s (spoiled + 1)
  in
  go [] 0.0 0

(* The serve workloads' exact share has a batch counterpart: the share
   of the cert⊥ instances that finish within a fixed tuple budget rather
   than being cut off.  Guard.tuples_used is ~1k on early-6-first, ~54k
   on sentinel-4, ~150k on early-6-late and ~375k on sentinel-5, within
   a few percent on every seed tried, so at 100k half of them finish;
   pruning that charges fewer tuples raises the share.  Untimed. *)
let exact_budget = 100_000

let exact_within_budget inst =
  List.length
    (List.filter
       (fun c ->
         match
           Certainty.cert_with_nulls_ra ~pool:(Pool.auto ())
             ~guard:(Guard.create ~budget:exact_budget ())
             c.cdb r_minus_s
         with
         | _ -> true
         | exception Guard.Interrupt _ -> false)
       inst.certs)

(* ------------------------------------------------------------------ *)
(* correctness, untimed                                                 *)
(* ------------------------------------------------------------------ *)

(* a possible world: every null to a pool constant or a constant
   outside the pool *)
let random_valuation rng db =
  Valuation.of_list
    (List.map
       (fun n ->
         let c = Random.State.int rng 8 in
         (n, Value.Int (if c < 6 then Random.State.int rng 40 else 10_000 + c)))
       (Database.nulls db))

(* Sound means every certain tuple is an answer in every world; the
   check samples worlds.  Returns (checks made, checks failed). *)
let check ~seed inst =
  let rng = Random.State.make [| seed; 31 |] in
  let checks = ref 0 and bad = ref 0 in
  let expect ok fmt =
    Printf.ksprintf
      (fun s ->
        incr checks;
        if not ok then begin
          incr bad;
          prerr_endline ("check failed: " ^ s)
        end)
      fmt
  in
  List.iter
    (fun c ->
      let got = Certainty.cert_with_nulls_ra c.cdb r_minus_s in
      expect (Relation.equal got c.expected) "cert⊥ on %s" c.cname;
      (* Theorem 4.7: Q+ is a sound under-approximation of cert⊥ *)
      expect (Relation.subset (Scheme_pm.certain_sub c.cdb r_minus_s) got) "Q+ within cert⊥ on %s"
        c.cname)
    inst.certs;
  List.iter
    (fun t ->
      let q_plus = Scheme_pm.certain_sub t.tdb t.query in
      let worlds = List.init 24 (fun _ -> random_valuation rng t.tdb) in
      List.iter
        (fun s ->
          let name = Ctables.Ceval.strategy_name s in
          let cert = Ctables.Ceval.certain s t.tdb t.query in
          (* Theorem 4.9: the eager strategy computes exactly Q+ *)
          if s = Ctables.Ceval.Eager then expect (Relation.equal cert q_plus) "eager = Q+ on %s" t.tname;
          List.iter
            (fun v ->
              let answer = Eval.run (Valuation.apply_db v t.tdb) t.query in
              expect
                (Relation.for_all (fun tu -> Relation.mem (Valuation.apply_tuple v tu) answer) cert)
                "%s sound on %s" name t.tname)
            worlds)
        Ctables.Ceval.all_strategies)
    inst.ctables;
  (!checks, !bad)

(* ------------------------------------------------------------------ *)
(* runs                                                                 *)
(* ------------------------------------------------------------------ *)

let n_calls inst = List.length inst.certs + (4 * List.length inst.ctables)

(* set-up: build the instance set and run one warm-up round *)
let setup ~seed =
  let t0 = Util.now () in
  let inst = instances ~seed in
  ignore (round inst);
  (inst, Util.now () -. t0)

let sum_ms ?(cpu = false) calls pred =
  List.fold_left (fun acc c -> if pred c then acc +. if cpu then c.cpu_ms else c.ms else acc) 0.0 calls

let run_e2e ~seed ~seconds =
  let setups = List.init 3 (fun _ -> setup ~seed) in
  let inst = fst (List.hd setups) in
  let rs, spoiled = rounds inst ~seconds in
  let wall = List.fold_left (fun acc r -> acc +. r.r1 -. r.r0) 0.0 rs in
  let checks, bad = check ~seed inst in
  let exact = exact_within_budget inst in
  let calls = List.concat_map (fun r -> r.calls) rs in
  let is_cert c = c.layer = "certainty" and is_ctable c = c.layer <> "certainty" in
  (* per second of the process's CPU time, which the host's steal does
     not charge, and per second of wall time, which it does *)
  let per_s ~cpu pred =
    float_of_int (List.length (List.filter pred calls)) /. (sum_ms ~cpu calls pred /. 1000.0)
  in
  let round_ms = List.map (fun r -> (r.r1 -. r.r0) *. 1000.0) rs in
  let metrics =
    [ ("setup_s", Util.median (List.map snd setups), "s");
      ("read_p50_ms", Util.median round_ms, "ms");
      ("read_p75_ms", Util.quantile 0.75 round_ms, "ms");
      ("saturated_qps", float_of_int (List.length calls) /. wall, "1/s");
      ("cert_per_s", per_s ~cpu:true is_cert, "1/s");
      ("exact_share", Util.ratio exact (List.length inst.certs), "share");
      ("peak_rss_mb", Util.peak_rss_mb 0, "MB") ]
  in
  let extra =
    [ ("read_p90_ms", Util.quantile 0.90 round_ms, "ms");
      ("cert_per_wall_s", per_s ~cpu:false is_cert, "1/s");
      ("ctable_per_s", per_s ~cpu:true is_ctable, "1/s");
      ("ctable_per_wall_s", per_s ~cpu:false is_ctable, "1/s");
      ("rounds", float_of_int (List.length rs), "count");
      ("rounds_set_aside", float_of_int spoiled, "count");
      ("calls_per_round", float_of_int (n_calls inst), "count") ]
  in
  let notes =
    (if bad = 0 then [] else [ Printf.sprintf "%d failed checks" bad ])
    @
    if wall >= seconds then []
    else
      [ Printf.sprintf "invalid: %d rounds set aside for host steal > %.2f, %.1f s of %g s measured"
          spoiled Util.steal_valid wall seconds ]
  in
  (metrics, extra, List.length calls + checks + List.length inst.certs, bad, notes)

let run_traced ~seed ~seconds =
  let inst, _ = setup ~seed in
  let half = Float.max 2.0 (seconds /. 2.0) in
  let pool = Pool.auto () in
  let untraced, _ = rounds inst ~seconds:half in
  let before = Option.map Pool.stats pool in
  let traced, _ = rounds inst ~seconds:half in
  let after = Option.map Pool.stats pool in
  (* spans are built from the calls' own timestamps: tracing adds only
     the record keeping after each round *)
  let tr = Trace.create ~enabled:true in
  List.iteri
    (fun i r ->
      Trace.add tr { Trace.rid = i; name = "round"; parent = ""; t0 = r.r0; t1 = r.r1 };
      List.iter
        (fun c -> Trace.add tr { Trace.rid = i; name = c.layer; parent = "round"; t0 = c.t0; t1 = c.t1 })
        r.calls)
    traced;
  let root = Filename.concat Util.run_root (Printf.sprintf "paper_batch-%d-trace" seed) in
  Util.mkdir_p root;
  Trace.write tr (Filename.concat root "spans.tsv");
  let checks, bad = check ~seed inst in
  let acc = Trace.self_times tr in
  let per_round name =
    Option.value ~default:0.0 (List.assoc_opt name acc.Trace.per_name) /. float_of_int (max 1 acc.roots)
  in
  let calls = List.concat_map (fun r -> r.calls) traced in
  let round_sum layer =
    Util.median (List.map (fun r -> sum_ms r.calls (fun c -> c.layer = layer)) traced)
  in
  let delta f = match (before, after) with Some a, Some b -> f b - f a | _ -> 0 in
  let steals = delta (fun s -> s.Pool.steals) and failed_steals = delta (fun s -> s.Pool.failed_steals) in
  let mean_round rs = Util.mean (List.map (fun r -> (r.r1 -. r.r0) *. 1000.0) rs) in
  let certs = List.filter (fun c -> c.layer = "certainty") calls in
  let ceval_ms = sum_ms calls (fun c -> c.layer <> "certainty") /. 1000.0 in
  let metrics =
    [ ("certainty.ms_p50", Util.median (List.map (fun c -> c.ms) certs));
      ("certainty.tuples_per_call", Util.mean (List.map (fun c -> float_of_int c.tuples) certs));
      ("ceval.eager_ms", round_sum "ceval.eager");
      ("ceval.semi_eager_ms", round_sum "ceval.semi_eager");
      ("ceval.lazy_ms", round_sum "ceval.lazy");
      ("ceval.aware_ms", round_sum "ceval.aware");
      ("ceval.ctuples_out",
       Util.median
         (List.map
            (fun r ->
              float_of_int
                (List.fold_left (fun a c -> if c.layer <> "certainty" then a + c.tuples else a) 0 r.calls))
            traced));
      ("ceval.calls_per_s",
       float_of_int (List.length calls - List.length certs) /. Float.max 1e-9 ceval_ms);
      ("pool.tasks", float_of_int (delta (fun s -> s.Pool.tasks)));
      ("pool.steal_success_ratio", Util.ratio steals (steals + failed_steals));
      ("pool.parks", float_of_int (delta (fun s -> s.Pool.parks)));
      ("self.unattributed_ms", per_round "unattributed");
      ("self.certainty_ms", per_round "certainty");
      ("self.ceval_eager_ms", per_round "ceval.eager");
      ("self.ceval_semi_eager_ms", per_round "ceval.semi_eager");
      ("self.ceval_lazy_ms", per_round "ceval.lazy");
      ("self.ceval_aware_ms", per_round "ceval.aware");
      ("trace.e2e_ms", acc.total_ms /. float_of_int (max 1 acc.roots));
      ("trace.untraced_e2e_ms", mean_round untraced);
      ("trace.overhead_ms", mean_round traced -. mean_round untraced);
      ("trace.accounting_error", acc.error) ]
  in
  let notes =
    (if bad = 0 then [] else [ Printf.sprintf "%d failed checks" bad ])
    @ if acc.error <= 0.01 then [] else [ "self times miss the traced total" ]
  in
  (metrics, List.length calls + (List.length untraced * n_calls inst) + checks, bad, notes)
