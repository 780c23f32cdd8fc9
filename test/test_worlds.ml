(* Differential suite for the possible-world loop of cert⊥: the library
   (relevance, one compiled plan per call, the valuation builder,
   world-invariant subplans, hashed c-table dedup) against the frozen
   implementations in oracle.ml and its brute-force cert⊥.  Answers and
   ctuple lists (order included) must be identical to the oracle's on
   the full database, on every pool.  The RA front ends decide cert⊥ on
   the relations the query reads (Certainty.relevant).  On the
   enumeration route their guard charges and budget labels are those of
   the oracle run on that restricted database; on the two routes that
   run the query once (a complete database, or naive evaluation
   certified exact) they are those of that one run. *)

open Incdb_relational
open Incdb_certain
open Incdb_ctables
open Helpers

let pool1 = Pool.create ~size:1 ()
let pool4 = Pool.create ~size:4 ()

let () =
  at_exit (fun () ->
      Pool.shutdown pool1;
      Pool.shutdown pool4)

let pools = [ ("none", None); ("pool1", Some pool1); ("pool4", Some pool4) ]

(* ------------------------------------------------------------------ *)
(* random instances: ≤ 4 nulls over R, S, T, at least one complete      *)
(* ------------------------------------------------------------------ *)

module Gen = QCheck2.Gen

let schema =
  Schema.of_list [ ("R", [ "a"; "b" ]); ("S", [ "b"; "c" ]); ("T", [ "t" ]) ]

let names = [ "R"; "S"; "T" ]

(* constants 0..2 so that nulls collide with them often, and few enough
   pattern constants that 4 nulls stay at a few hundred worlds *)
let gen_const = Gen.map (fun n -> Value.Int n) (Gen.int_range 0 2)

(* [max_nulls] distinct null labels at most, in the relations
   [with_nulls] draws, each value there a null with odds
   [null_weight] : 2 *)
let gen_db_over ~max_nulls ~null_weight ~with_nulls : Database.t Gen.t =
  let open Gen in
  let* with_nulls = with_nulls in
  let* null_weight = null_weight in
  let value name =
    if List.mem name with_nulls then
      frequency
        [ (2, map (fun c -> Value.Const c) gen_const);
          (null_weight, map Value.null (int_range 0 (max_nulls - 1))) ]
    else map (fun c -> Value.Const c) gen_const
  in
  let rel name =
    let k = Schema.arity schema name in
    map
      (fun ts -> (name, ts))
      (list_size (int_range 0 3) (map Tuple.of_list (list_repeat k (value name))))
  in
  map (Database.of_list schema) (flatten_l (List.map rel names))

(* ≤ 4 nulls, never in all three relations *)
let gen_db =
  gen_db_over ~max_nulls:4 ~null_weight:(Gen.return 1)
    ~with_nulls:
      (Gen.oneofl
         [ []; [ "R" ]; [ "S" ]; [ "T" ]; [ "R"; "S" ]; [ "R"; "T" ]; [ "S"; "T" ] ])

let gen_condition k =
  let open Gen in
  let operand =
    oneof
      [ map (fun c -> Condition.Col c) (int_range 0 (k - 1));
        map (fun c -> Condition.Lit c) gen_const ]
  in
  let atom =
    oneof
      [ map2 (fun a b -> Condition.Eq (a, b)) operand operand;
        map2 (fun a b -> Condition.Neq (a, b)) operand operand;
        map (fun c -> Condition.Is_null c) (int_range 0 (k - 1)) ]
  in
  oneof [ atom; map2 (fun a b -> Condition.And (a, b)) atom atom ]

(* Select, Project, Product, Diff and Union over R, S, T, with Dom and
   literals among the leaves *)
let gen_query ~dom : Algebra.t Gen.t =
  let open Gen in
  let open Algebra in
  let leaf =
    oneof
      ([ oneofl [ Rel "R"; Rel "S"; Rel "T" ];
         map (fun c -> Lit (1, [ Tuple.of_list [ Value.Const c ] ])) gen_const ]
      @ if dom then [ return (Dom 1) ] else [])
  in
  let arity q = Algebra.arity schema q in
  let first q = if arity q = 1 then q else Project ([ 0 ], q) in
  let rec build n =
    if n <= 0 then leaf
    else
      let sub = build (n - 1) in
      oneof
        [ leaf;
          (let* q = sub in
           let k = arity q in
           if k = 0 then return q
           else map (fun c -> Select (c, q)) (gen_condition k));
          (let* q = sub in
           let k = arity q in
           if k = 0 then return q
           else
             map
               (fun idxs -> Project (idxs, q))
               (list_size (int_range 1 2) (int_range 0 (k - 1))));
          (let* a = sub and* b = sub in
           return (if arity a + arity b > 3 then a else Product (a, b)));
          (let* a = sub and* b = sub in
           return (Diff (first a, first b)));
          (let* a = sub and* b = sub in
           return (Union (first a, first b))) ]
  in
  sized_size (int_range 0 3) build

let gen_fo : Incdb_logic.Fo.t Gen.t =
  let open Gen in
  let open Incdb_logic.Fo in
  let var = oneofl [ "x"; "y" ] in
  let term = oneof [ map (fun v -> Var v) var; map (fun c -> Cst c) gen_const ] in
  let atom =
    oneof
      [ map2 (fun a b -> Atom ("R", [ a; b ])) term term;
        map2 (fun a b -> Atom ("S", [ a; b ])) term term;
        map (fun a -> Atom ("T", [ a ])) term;
        map2 (fun a b -> Eq (a, b)) term term ]
  in
  let rec build n =
    if n <= 0 then atom
    else
      let sub = build (n - 1) in
      oneof
        [ atom;
          map (fun f -> Not f) sub;
          map2 (fun f g -> And (f, g)) sub sub;
          map2 (fun x f -> Exists (x, f)) var sub ]
  in
  sized_size (int_range 0 2) build

let print_instance (db, q) = db_print db ^ "\n" ^ query_print q

(* ------------------------------------------------------------------ *)
(* answers and charges                                                 *)
(* ------------------------------------------------------------------ *)

(* run [f] under a fresh guard: its outcome and the tuples it charged *)
let charged ?budget f =
  let guard = Guard.create ?budget () in
  let outcome =
    match f guard with
    | r -> Ok r
    | exception Guard.Interrupt _ -> Error "interrupt"
    | exception Scheme_pm.Unsupported _ -> Error "unsupported"
  in
  (outcome, Guard.tuples_used guard)

let agree ~equal o n =
  match (o, n) with
  | Ok a, Ok b -> equal a b
  | Error a, Error b -> a = b
  | Ok _, Error _ | Error _, Ok _ -> false

(* answers must equal [oracle]'s; the tuples charged must equal those
   of [charges] (by default [oracle] itself) *)
let same_answers ~what ~pool ~equal ?charges oracle fresh =
  let o, o_used = charged oracle and n, n_used = charged fresh in
  let o_used =
    match charges with None -> o_used | Some c -> snd (charged c)
  in
  if not (agree ~equal o n) then
    QCheck2.Test.fail_reportf "%s on %s: answers differ" what pool;
  if o_used <> n_used then
    QCheck2.Test.fail_reportf "%s on %s: oracle charged %d tuples, library %d"
      what pool o_used n_used;
  true

(* What a RA front end charges on [read] = [Certainty.relevant db q]:
   the frozen world loop's charge on the enumeration route, one run of
   [q] on [read] when it is complete, one run in its naive world when
   naive evaluation is certified exact. *)
let pinned ~planner ~pool read q guard =
  let run w = Eval.run ~planner ~pool ~guard w q in
  match Certainty.route read q with
  | Certainty.Enumerate ->
    Oracle.cert_with_nulls ~pool ~guard ~run ~query_consts:(Algebra.consts q)
      read
  | Certainty.One_run -> run read
  | Certainty.Naive_exact -> Oracle.naive_run_with ~run read

let pinned_fallback ~planner ~pool read q guard =
  match pinned ~planner ~pool read q guard with
  | r -> Certainty.Exact r
  | exception Guard.Interrupt _ ->
    Certainty.Approximate (Oracle.certain_sub ~planner ~pool read q)

let check_rel_prop what want got =
  Relation.equal want got
  || QCheck2.Test.fail_reportf "%s: %s, want %s" what
       (Format.asprintf "%a" Relation.pp got)
       (Format.asprintf "%a" Relation.pp want)

let equal_answer a b =
  match (a, b) with
  | Certainty.Exact a, Certainty.Exact b
  | Certainty.Approximate a, Certainty.Approximate b -> Relation.equal a b
  | _ -> false

let prop_ra_differential =
  QCheck2.Test.make ~count:300 ~name:"RA front ends = frozen world loop"
    ~print:print_instance
    Gen.(pair gen_db (gen_query ~dom:true))
    (fun (db, q) ->
      let consts = Algebra.consts q in
      let read = Certainty.relevant db q in
      (* every relation a Dom-free query does not read is emptied, and
         nothing else changes *)
      List.iter
        (fun name ->
          let r = Database.relation db name in
          let kept = Algebra.uses_dom q || List.mem name (Algebra.relations q) in
          let want = if kept then r else Relation.empty (Relation.arity r) in
          if not (Relation.equal (Database.relation read name) want) then
            QCheck2.Test.fail_reportf "relevant: wrong relation %s" name)
        names;
      List.for_all
        (fun (name, pool) ->
          let rel ?charges what oracle fresh =
            same_answers ?charges ~what ~pool:name ~equal:Relation.equal oracle
              fresh
          in
          let eval g w = Eval.run ~pool ~guard:g w q in
          rel "cert_with_nulls_ra"
            (fun g -> Oracle.cert_with_nulls_ra ~pool ~guard:g db q)
            ~charges:(pinned ~planner:true ~pool read q)
            (fun g -> Certainty.cert_with_nulls_ra ~pool ~guard:g db q)
          && rel "cert_intersection_ra"
               (fun g -> Oracle.cert_intersection_ra ~pool ~guard:g db q)
               ~charges:(pinned ~planner:true ~pool read q)
               (fun g -> Certainty.cert_intersection_ra ~pool ~guard:g db q)
          && rel "cert_intersection_direct"
               (fun g ->
                 Oracle.cert_intersection_direct ~pool ~guard:g ~run:(eval g)
                   ~query_consts:consts db)
               (fun g ->
                 Certainty.cert_intersection_direct ~pool ~guard:g
                   ~run:(eval g) ~query_consts:consts db)
          && List.for_all
               (fun planner ->
                 (* no budget, so the fallback (which refuses Dom) never runs *)
                 same_answers ~what:"cert_with_fallback" ~pool:name
                   ~equal:equal_answer
                   (fun g ->
                     Oracle.cert_with_fallback ~planner ~pool ~guard:g db q)
                   ~charges:(pinned_fallback ~planner ~pool read q)
                   (fun g ->
                     Certainty.cert_with_fallback ~planner ~pool ~guard:g db q))
               [ true; false ])
        pools)

let prop_fo_differential =
  QCheck2.Test.make ~count:300 ~name:"cert_with_nulls_fo = frozen world loop"
    ~print:(fun (db, phi) -> db_print db ^ "\n" ^ Incdb_logic.Fo.to_string phi)
    Gen.(pair gen_db gen_fo)
    (fun (db, phi) ->
      List.for_all
        (fun (name, pool) ->
          same_answers ~what:"cert_with_nulls_fo" ~pool:name
            ~equal:Relation.equal
            (fun g -> Oracle.cert_with_nulls_fo ~pool ~guard:g db phi)
            (fun g -> Certainty.cert_with_nulls_fo ~pool ~guard:g db phi))
        pools)

(* A budget equal to the pinned total charge on the relations the
   query reads lets it finish; one less interrupts it.  The library must
   return or raise exactly as the pinned run does at both budgets, so no
   exact/degraded label moves but those the restriction and the routes
   earn.  An answer it returns must still be the full-database
   oracle's. *)
let prop_budget_labels =
  QCheck2.Test.make ~count:300 ~name:"budget labels match the oracle"
    ~print:print_instance
    Gen.(pair gen_db (gen_query ~dom:false))
    (fun (db, q) ->
      let read = Certainty.relevant db q in
      let full = Oracle.cert_with_nulls_ra ~pool:None db q in
      let full_plus = Scheme_pm.certain_sub ~pool:None db q in
      List.for_all
        (fun (name, pool) ->
          let _, total = charged (pinned ~planner:true ~pool read q) in
          List.for_all
            (fun budget ->
              let check what ~equal oracle fresh =
                let o, _ = charged ~budget oracle
                and n, _ = charged ~budget fresh in
                if budget = total && Result.is_error o then
                  QCheck2.Test.fail_reportf
                    "%s on %s: the pinned run overran its own total %d" what
                    name total;
                if not (agree ~equal o n) then
                  QCheck2.Test.fail_reportf "%s on %s, budget %d: oracle %s, library %s"
                    what name budget
                    (if Result.is_ok o then "returned" else "raised")
                    (if Result.is_ok n then "returned" else "raised");
                true
              in
              let full_answer = function
                | Ok (Certainty.Exact r) -> Relation.equal r full
                | Ok (Certainty.Approximate r) -> Relation.equal r full_plus
                | Error _ -> true
              in
              check "cert_with_nulls_ra" ~equal:Relation.equal
                (pinned ~planner:true ~pool read q)
                (fun g -> Certainty.cert_with_nulls_ra ~pool ~guard:g db q)
              && check "cert_with_fallback" ~equal:equal_answer
                   (pinned_fallback ~planner:true ~pool read q)
                   (fun g -> Certainty.cert_with_fallback ~pool ~guard:g db q)
              && (full_answer
                    (fst
                       (charged ~budget (fun g ->
                            Certainty.cert_with_fallback ~pool ~guard:g db q)))
                 || QCheck2.Test.fail_reportf
                      "cert_with_fallback on %s, budget %d: answer differs \
                       from the full-database oracle"
                      name budget))
            (List.filter (fun b -> b >= 0) [ total; total - 1 ]))
        pools)

(* ≤ 3 nulls, in any of R, S, T: the brute force tries (consts + nulls)
   ^ nulls valuations, so three nulls keep it at a few hundred.  Some
   instances are mostly nulls, so that nulls often collide only with
   each other (on a fresh constant) *)
let gen_db_small =
  gen_db_over ~max_nulls:3 ~null_weight:(Gen.oneofl [ 1; 100 ])
    ~with_nulls:
      (Gen.oneofl
         [ []; [ "R" ]; [ "S" ]; [ "T" ]; [ "R"; "S" ]; [ "R"; "T" ];
           [ "S"; "T" ]; [ "R"; "S"; "T" ] ])

let prop_brute_force =
  QCheck2.Test.make ~count:300 ~name:"RA front ends = brute-force cert⊥"
    ~print:print_instance
    Gen.(pair gen_db_small (bool >>= fun dom -> gen_query ~dom))
    (fun (db, q) ->
      let want =
        Oracle.brute_force_cert
          ~run:(fun w -> Eval.run ~planner:false ~pool:None w q)
          ~query_consts:(Algebra.consts q) db
      in
      List.for_all
        (fun (name, pool) ->
          let got = Certainty.cert_with_nulls_ra ~pool db q in
          if not (Relation.equal got want) then
            QCheck2.Test.fail_reportf
              "cert_with_nulls_ra on %s: %s, brute force %s" name
              (Format.asprintf "%a" Relation.pp got)
              (Format.asprintf "%a" Relation.pp want);
          List.for_all
            (fun planner ->
              match Certainty.cert_with_fallback ~planner ~pool db q with
              | Certainty.Exact r when Relation.equal r want -> true
              | Certainty.Exact _ | Certainty.Approximate _ ->
                QCheck2.Test.fail_reportf
                  "cert_with_fallback (planner %b) on %s: not the exact \
                   brute-force answer"
                  planner name)
            [ true; false ])
        pools)

(* ------------------------------------------------------------------ *)
(* routes: which columns can hold a null                                 *)
(* ------------------------------------------------------------------ *)

(* constants with a gap between neighbours, where an order atom can
   tell a null from each of them *)
let gen_spread_const = Gen.map (fun n -> Value.Int (2 * n)) (Gen.int_range 0 2)

(* ≤ 4 nulls, each relation with its own nullable columns, so that
   null-free columns sit next to nullable ones *)
let gen_db_columns : Database.t Gen.t =
  let open Gen in
  let gen_const = gen_spread_const in
  let rel name =
    let k = Schema.arity schema name in
    let* nullable =
      list_repeat k (frequency [ (2, return false); (1, return true) ])
    in
    let value nullable =
      if nullable then
        frequency
          [ (2, map (fun c -> Value.Const c) gen_const);
            (1, map Value.null (int_range 0 3)) ]
      else map (fun c -> Value.Const c) gen_const
    in
    map
      (fun ts -> (name, ts))
      (list_size (int_range 0 3)
         (map Tuple.of_list (flatten_l (List.map value nullable))))
  in
  map (Database.of_list schema) (flatten_l (List.map rel names))

(* conditions over every atom the class can hold: =, ≠, <, ≤ and the
   null/const tests *)
let gen_order_condition k =
  let open Gen in
  let gen_const = gen_spread_const in
  let col = int_range 0 (k - 1) in
  let operand =
    oneof
      [ map (fun c -> Condition.Col c) col;
        map (fun c -> Condition.Lit c) gen_const ]
  in
  let atom =
    oneof
      [ map2 (fun a b -> Condition.Eq (a, b)) operand operand;
        map2 (fun a b -> Condition.Neq (a, b)) operand operand;
        map2 (fun a b -> Condition.Lt (a, b)) operand operand;
        map2 (fun a b -> Condition.Le (a, b)) operand operand;
        map (fun c -> Condition.Is_null c) col;
        map (fun c -> Condition.Is_const c) col ]
  in
  oneof
    [ atom;
      map2 (fun a b -> Condition.And (a, b)) atom atom;
      map2 (fun a b -> Condition.Or (a, b)) atom atom ]

(* positive RA: σ, π, ×, ∪, ∩ over R, S, T and complete literals *)
let gen_positive_query : Algebra.t Gen.t =
  let open Gen in
  let open Algebra in
  let leaf =
    oneof
      [ oneofl [ Rel "R"; Rel "S"; Rel "T" ];
        map (fun c -> Lit (1, [ Tuple.of_list [ Value.Const c ] ])) gen_const ]
  in
  let arity q = Algebra.arity schema q in
  let first q = if arity q = 1 then q else Project ([ 0 ], q) in
  let rec build n =
    if n <= 0 then leaf
    else
      let sub = build (n - 1) in
      oneof
        [ (let* q = sub in
           let k = arity q in
           if k = 0 then return q
           else map (fun c -> Select (c, q)) (gen_order_condition k));
          (let* q = sub in
           let k = arity q in
           if k = 0 then return q
           else
             map
               (fun idxs -> Project (idxs, q))
               (list_size (int_range 1 2) (int_range 0 (k - 1))));
          (let* a = sub and* b = sub in
           return (if arity a + arity b > 3 then a else Product (a, b)));
          (let* a = sub and* b = sub in
           return (Union (first a, first b)));
          (let* a = sub and* b = sub in
           return (Inter (first a, first b))) ]
  in
  sized_size (int_range 1 3) build

let prop_routes =
  QCheck2.Test.make ~count:500
    ~name:"positive queries: routes follow the analysis, answers = brute force"
    ~print:print_instance
    Gen.(pair gen_db_columns gen_positive_query)
    (fun (db, q) ->
      let read = Certainty.relevant db q in
      let facts = Nullable.of_database read in
      (* the analysis is sound: a column it marks null-free holds no null
         in the naive answer *)
      let naive = Eval.run ~planner:false ~pool:None read q in
      Array.iteri
        (fun i nullable ->
          let holds_null t = Value.is_null t.(i) in
          if (not nullable) && Relation.exists holds_null naive then
            QCheck2.Test.fail_reportf "column %d marked null-free holds a null" i)
        (Nullable.columns facts q);
      let want_route =
        if Database.is_complete read then Certainty.One_run
        else if Classes.naive_exact facts q then Certainty.Naive_exact
        else Certainty.Enumerate
      in
      let route = Certainty.route db q in
      if route <> want_route then
        QCheck2.Test.fail_reportf "route differs from the analysis";
      let want =
        Oracle.brute_force_cert ~order:(Oracle.has_order q)
          ~run:(fun w -> Eval.run ~planner:false ~pool:None w q)
          ~query_consts:(Algebra.consts q) db
      in
      List.for_all
        (fun (name, pool) ->
          let what = "cert_with_nulls_ra on " ^ name in
          (match
             charged (fun g -> Certainty.cert_with_nulls_ra ~pool ~guard:g db q)
           with
           | Ok r, used ->
             ignore (check_rel_prop what want r);
             (* the two single-run routes charge their one pinned run *)
             let _, one = charged (pinned ~planner:true ~pool read q) in
             if route <> Certainty.Enumerate && used <> one then
               QCheck2.Test.fail_reportf "%s: charged %d tuples, one run %d"
                 what used one
           | Error e, _ -> QCheck2.Test.fail_reportf "%s: %s" what e);
          check_rel_prop "cert_intersection_ra"
            (Relation.filter Tuple.is_complete want)
            (Certainty.cert_intersection_ra ~pool db q)
          && List.for_all
               (fun planner ->
                 match Certainty.cert_with_fallback ~planner ~pool db q with
                 | Certainty.Exact r when Relation.equal r want -> true
                 | Certainty.Exact _ | Certainty.Approximate _ ->
                   QCheck2.Test.fail_reportf
                     "cert_with_fallback (planner %b) on %s: not the exact \
                      brute-force answer"
                     planner name)
               [ true; false ])
        [ ("none", None); ("pool4", Some pool4) ])

(* Pruning the null tests of the Figure-2 translations is an exact
   equivalence on the database at hand, under the nested-loop
   interpreter; the library's Q⁺ equals the unpruned one *)
let prop_prune =
  QCheck2.Test.make ~count:200
    ~name:"pruned Q⁺/Q?/Qᵗ/Qᶠ = unpruned (nested loops)"
    ~print:print_instance
    Gen.(pair gen_db_columns (gen_query ~dom:false))
    (fun (db, q) ->
      let schema = Database.schema db in
      let same what ~extra_consts t =
        let run t = Eval.run ~planner:false ~pool:None ~extra_consts db t in
        Relation.equal (run (Nullable.prune_on db t)) (run t)
        || QCheck2.Test.fail_reportf "%s: pruned and unpruned differ" what
      in
      let consts = Algebra.consts q in
      same "Q⁺" ~extra_consts:[] (Scheme_pm.translate_plus schema q)
      && same "Q?" ~extra_consts:[] (Scheme_pm.translate_maybe schema q)
      && same "Qᵗ" ~extra_consts:consts (Scheme_tf.translate_t schema q)
      && same "Qᶠ" ~extra_consts:consts (Scheme_tf.translate_f schema q)
      && Relation.equal
           (Scheme_pm.certain_sub ~pool:None db q)
           (Oracle.certain_sub ~planner:false ~pool:None db q))

(* ------------------------------------------------------------------ *)
(* Classify and Aggregate: the compiled runner per world                *)
(* ------------------------------------------------------------------ *)

(* a probe tuple of the query's arity over the constants and nulls the
   generated databases use *)
let gen_probe k =
  let open Gen in
  map Tuple.of_list
    (list_repeat k
       (frequency
          [ (2, map (fun c -> Value.Const c) gen_const);
            (1, map Value.null (int_range 0 3)) ]))

let prop_classify =
  QCheck2.Test.make ~count:300
    ~name:"classify_exact = frozen per-world Eval.run"
    ~print:(fun ((db, q), t) -> print_instance (db, q) ^ "\n" ^ Tuple.to_string t)
    Gen.(
      pair gen_db (gen_query ~dom:true) >>= fun (db, q) ->
      map (fun t -> ((db, q), t)) (gen_probe (Algebra.arity schema q)))
    (fun ((db, q), probe) ->
      (* the probe, and every naive answer, which covers Certain verdicts *)
      let tuples = probe :: Relation.to_list (Naive.run db q) in
      List.for_all
        (fun t -> Classify.classify_exact db q t = Oracle.classify_exact db q t)
        tuples)

let prop_aggregate =
  QCheck2.Test.make ~count:300
    ~name:"Aggregate ranges = frozen per-world Eval.run"
    ~print:print_instance
    Gen.(pair gen_db (gen_query ~dom:false))
    (fun (db, q) ->
      let outcome f = match f () with r -> Ok r | exception e -> Error e in
      let k = Algebra.arity schema q in
      outcome (fun () -> Aggregate.count_range db q)
      = outcome (fun () -> Oracle.count_range db q)
      && List.for_all
           (fun col ->
             List.for_all
               (fun op ->
                 outcome (fun () -> Aggregate.range db q ~col op)
                 = outcome (fun () -> Oracle.range db q ~col op))
               [ Aggregate.Sum; Aggregate.Min; Aggregate.Max ])
           (List.init k Fun.id))

(* ------------------------------------------------------------------ *)
(* c-tables                                                            *)
(* ------------------------------------------------------------------ *)

(* ctables drawn from a small pool of ctuples, so duplicates and
   false conditions are common *)
let gen_ctable : Ctable.t Gen.t =
  let open Gen in
  let value =
    frequency [ (2, map (fun c -> Value.Const c) gen_const); (1, map Value.null (int_range 0 2)) ]
  in
  let atom = map2 (fun a b -> Cond.Eq (a, b)) value value in
  let cond =
    oneof
      [ oneofl [ Cond.True; Cond.False; Cond.Unknown ];
        atom;
        map2 (fun a b -> Cond.And (a, b)) atom atom;
        map (fun a -> Cond.Not a) atom ]
  in
  let ctuple =
    map2
      (fun tuple cond -> { Ctable.tuple = Tuple.of_list tuple; cond })
      (list_repeat 2 value) cond
  in
  let* pool = list_size (int_range 1 6) ctuple in
  map (Ctable.of_list 2) (list_size (int_range 0 20) (oneofl pool))

let prop_normalize =
  QCheck2.Test.make ~count:500 ~name:"normalize = frozen quadratic dedup, in order"
    ~print:(Format.asprintf "%a" Ctable.pp) gen_ctable (fun ct ->
      Ctable.to_list (Ctable.normalize ct) = Ctable.to_list (Oracle.normalize ct))

let prop_ceval =
  QCheck2.Test.make ~count:150 ~name:"Ceval strategies = frozen dedup, in order"
    ~print:print_instance
    Gen.(pair (Helpers.gen_db ~max_size:4 ()) (Helpers.gen_query ()))
    (fun (db, q) ->
      List.for_all
        (fun s ->
          let got = Ceval.eval ~pool:None s db q
          and want = Oracle.ceval s db q in
          Ctable.arity got = Ctable.arity want
          && Ctable.to_list got = Ctable.to_list want
          && Ctable.to_list (Ceval.eval ~pool:(Some pool4) s db q)
             = Ctable.to_list want)
        Ceval.all_strategies)

(* ------------------------------------------------------------------ *)
(* unit tests                                                          *)
(* ------------------------------------------------------------------ *)

let db_rs =
  Database.of_list schema
    [ ("R", [ tup [ i 1; nu 0 ]; tup [ i 2; i 3 ]; tup [ nu 1; i 3 ] ]);
      ("S", [ tup [ i 3; i 4 ]; tup [ i 5; i 6 ] ]);
      ("T", [ tup [ i 1 ] ]) ]

(* every world shares the complete relations physically and values only
   the null-bearing tuples *)
let test_builder () =
  let b = Valuation.builder db_rs in
  List.iter
    (fun v ->
      let w = Valuation.world b v in
      Alcotest.(check bool) "world = apply_db" true
        (Database.equal w (Oracle.apply_db v db_rs));
      Alcotest.(check bool) "complete S shared" true
        (Database.relation w "S" == Database.relation db_rs "S");
      Alcotest.(check bool) "complete T shared" true
        (Database.relation w "T" == Database.relation db_rs "T"))
    (Valuation.enumerate_canonical ~nulls:[ 0; 1 ] ~consts:[ Value.Int 1; Value.Int 3 ])

(* π₀S − π₀R: π₀S reads a complete relation and is stored once per
   plan; a second run returns the stored relation and charges what
   evaluating it charged *)
let test_invariant_subplan () =
  let q =
    Algebra.Diff (Algebra.Project ([ 0 ], Rel "S"), Algebra.Project ([ 0 ], Rel "R"))
  in
  let unchanged name = Relation.is_complete (Database.relation db_rs name) in
  let plan =
    Plan.hoist_invariant ~unchanged
      (Planner.compile ~rel_arity:(Schema.arity schema) q)
  in
  let rec invariants = function
    | Plan.Invariant (p, _) -> [ Plan.to_string p ]
    | Plan.Diff (a, b) -> invariants a @ invariants b
    | Plan.Project (_, p) -> invariants p
    | _ -> []
  in
  Alcotest.(check (list string)) "π₀S is hoisted, π₀R is not" [ "π[0](S)" ]
    (invariants plan);
  let run db =
    let g = Guard.create () in
    let r =
      Plan.run_set ~guard:g ~base:(Database.relation db)
        ~dom1:(lazy (Eval.domain_relation ~extra_consts:[] db)) plan
    in
    (r, Guard.tuples_used g)
  in
  let reference db =
    let g = Guard.create () in
    let r = Eval.run ~guard:g db q in
    (r, Guard.tuples_used g)
  in
  List.iter
    (fun v ->
      let w = Valuation.apply_db v db_rs in
      let r, used = run w and r', used' = reference w in
      check_rel "answer" r' r;
      Alcotest.(check int) "charge" used' used)
    [ Valuation.of_list [ (0, Value.Int 3); (1, Value.Int 5) ];
      Valuation.of_list [ (0, Value.Int 4); (1, Value.Int 2) ] ]

(* ------------------------------------------------------------------ *)
(* relevance                                                           *)
(* ------------------------------------------------------------------ *)

(* nulls only in S and T, which [q] = R never reads: the relevant
   database is complete, so the RA front end answers with one plan run
   (no naive pass, no world) under a budget the unrestricted oracle
   overruns *)
let test_unread_nulls () =
  let db =
    Database.of_list schema
      [ ("R", [ tup [ i 0; i 1 ]; tup [ i 2; i 1 ] ]);
        ("S", [ tup [ nu 0; nu 1 ]; tup [ nu 2; i 0 ] ]);
        ("T", [ tup [ nu 3 ] ]) ]
  in
  let q = Algebra.Rel "R" in
  let one_world =
    let g = Guard.create () in
    ignore (Eval.run ~pool:None ~guard:g db q);
    Guard.tuples_used g
  in
  let budget = one_world in
  (match
     charged ~budget (fun g -> Certainty.cert_with_fallback ~pool:None ~guard:g db q)
   with
   | Ok (Certainty.Exact r), used ->
     check_rel "exact answer is R" (Database.relation db "R") r;
     Alcotest.(check int) "one plan run" one_world used
   | _ -> Alcotest.fail "the library should answer exactly");
  match
    charged ~budget (fun g -> Oracle.cert_with_fallback ~pool:None ~guard:g db q)
  with
  | Ok (Certainty.Approximate _), used ->
    Alcotest.(check bool) "the unrestricted oracle overran" true (used > budget)
  | _ -> Alcotest.fail "the unrestricted oracle should degrade"

(* R = {(⊥0, ⊥1)} has no constant for the nulls to meet on, so only
   the world that sends both to one fresh constant refutes ⊥0 ∈
   π₀R − π₁R: the certain answer is empty *)
let test_fresh_collision () =
  let db = Database.of_list schema [ ("R", [ tup [ nu 0; nu 1 ] ]) ] in
  let q =
    Algebra.Diff (Algebra.Project ([ 0 ], Rel "R"), Algebra.Project ([ 1 ], Rel "R"))
  in
  let want =
    Oracle.brute_force_cert
      ~run:(fun w -> Eval.run ~planner:false ~pool:None w q)
      ~query_consts:[] db
  in
  check_rel "brute force" (Relation.empty 1) want;
  check_rel "cert_with_nulls_ra" want (Certainty.cert_with_nulls_ra ~pool:None db q)

let unary = Schema.of_list [ ("R", [ "a" ]); ("T", [ "t" ]) ]

(* R = {(⊥0)}: σ[a ≤ 3 ∨ 5 ≤ a](R) fails in the world ⊥0 ↦ 4, which
   lies strictly between two constants; no world of the pattern
   constants and fresh constants alone puts it there *)
let test_order_gap () =
  let db = Database.of_list unary [ ("R", [ tup [ nu 0 ] ]) ] in
  let q =
    Algebra.Select
      ( Condition.Or
          ( Condition.Le (Condition.Col 0, Condition.Lit (Value.Int 3)),
            Condition.Le (Condition.Lit (Value.Int 5), Condition.Col 0) ),
        Rel "R" )
  in
  let empty = Relation.empty 1 in
  check_rel "brute force" empty
    (Oracle.brute_force_cert ~order:true
       ~run:(fun w -> Eval.run ~planner:false ~pool:None w q)
       ~query_consts:(Algebra.consts q) db);
  Alcotest.(check bool) "enumerated" true
    (Certainty.route db q = Certainty.Enumerate);
  check_rel "cert_with_nulls_ra" empty
    (Certainty.cert_with_nulls_ra ~pool:None db q);
  List.iter
    (fun planner ->
      match Certainty.cert_with_fallback ~planner ~pool:None db q with
      | Certainty.Exact r -> check_rel "cert_with_fallback" empty r
      | Certainty.Approximate _ -> Alcotest.fail "no guard, so exact")
    [ true; false ];
  check_rel "Q⁺" empty (Scheme_pm.certain_sub ~pool:None db q)

(* R = {(⊥0, ⊥1)}: σ[a ≤ b ∨ 0 ≤ a ∨ 0 ≤ b](R) fails only where both
   nulls fall below 0 in decreasing order, so that gap needs a witness
   per null *)
let test_order_gap_two_nulls () =
  let db = Database.of_list schema [ ("R", [ tup [ nu 0; nu 1 ] ]) ] in
  let a = Condition.Col 0 and b = Condition.Col 1 in
  let zero = Condition.Lit (Value.Int 0) in
  let le x y = Condition.Le (x, y) in
  let q =
    Algebra.Select
      (Condition.Or (le a b, Condition.Or (le zero a, le zero b)), Rel "R")
  in
  let empty = Relation.empty 2 in
  check_rel "brute force" empty
    (Oracle.brute_force_cert ~order:true
       ~run:(fun w -> Eval.run ~planner:false ~pool:None w q)
       ~query_consts:(Algebra.consts q) db);
  check_rel "cert_with_nulls_ra" empty
    (Certainty.cert_with_nulls_ra ~pool:None db q)

(* nulls only in column b of R: a positive query whose < reads column a
   is naive-exact, one run in the naive world; the same < on column b
   sees a null and enumerates *)
let test_naive_exact_route () =
  let db =
    Database.of_list schema
      [ ("R", [ tup [ i 1; nu 0 ]; tup [ i 2; i 3 ]; tup [ i 0; nu 1 ] ]) ]
  in
  let lt col c = Condition.Lt (Condition.Col col, Condition.Lit (Value.Int c)) in
  let q = Algebra.Project ([ 1 ], Algebra.Select (lt 0 2, Rel "R")) in
  Alcotest.(check bool) "naive-exact route" true
    (Certainty.route db q = Certainty.Naive_exact);
  let naive_run =
    let g = Guard.create () in
    ignore (Naive.run_with ~run:(fun w -> Eval.run ~pool:None ~guard:g w q) db);
    Guard.tuples_used g
  in
  (match
     charged (fun g -> Certainty.cert_with_fallback ~pool:None ~guard:g db q)
   with
   | Ok (Certainty.Exact r), used ->
     check_rel "the naive answer"
       (Relation.of_list 1 [ tup [ nu 0 ]; tup [ nu 1 ] ])
       r;
     Alcotest.(check int) "one naive run" naive_run used
   | _ -> Alcotest.fail "exact without a budget");
  let q' = Algebra.Project ([ 0 ], Algebra.Select (lt 1 2, Rel "R")) in
  Alcotest.(check bool) "< on a nullable column enumerates" true
    (Certainty.route db q' = Certainty.Enumerate);
  check_rel "and answers the brute force"
    (Oracle.brute_force_cert ~order:true
       ~run:(fun w -> Eval.run ~planner:false ~pool:None w q')
       ~query_consts:(Algebra.consts q') db)
    (Certainty.cert_with_nulls_ra ~pool:None db q')

(* On complete data the Q? leg of a NOT IN keeps no null test, so its
   equi-join is planned as a hash join *)
let test_pruned_hash_join () =
  let db =
    Database.of_list schema
      [ ("R", [ tup [ i 1; i 2 ]; tup [ i 2; i 3 ] ]);
        ("S", [ tup [ i 2; i 0 ] ]) ]
  in
  (* π₀R − π₀(σ[0 = 1](π₀R × π₀S)): R.a NOT IN S.b *)
  let first r = Algebra.Project ([ 0 ], Rel r) in
  let q =
    Algebra.Diff
      ( first "R",
        Algebra.Project
          ( [ 0 ],
            Algebra.Select
              (Condition.eq_col 0 1, Algebra.Product (first "R", first "S")) ) )
  in
  let hash_joins t =
    let p =
      Plan.to_string (Planner.compile ~rel_arity:(Schema.arity schema) t)
    in
    let n = String.length "⋈H" in
    let rec go i =
      i + n <= String.length p && (String.sub p i n = "⋈H" || go (i + 1))
    in
    go 0
  in
  let plus = Scheme_pm.translate_plus schema q in
  Alcotest.(check bool) "unpruned: a guarded product" false (hash_joins plus);
  Alcotest.(check bool) "pruned: a hash join" true
    (hash_joins (Nullable.prune_on db plus));
  check_rel "same answer"
    (Oracle.certain_sub ~planner:false ~pool:None db q)
    (Scheme_pm.certain_sub ~pool:None db q)

(* T emptied by hand, the restriction [relevant] must not make *)
let without_t db = Database.set_relation db "T" (Relation.empty 1)

(* ∀x R(x) ranges over adom(D), T included: with R = {1, ⊥0} and
   T = {2} it is false in the world ⊥0 ↦ 1 and so not certain, but with
   T emptied it holds in every world.  The FO front end must keep T. *)
let test_fo_unrestricted () =
  let db = Database.of_list unary [ ("R", [ tup [ i 1 ]; tup [ nu 0 ] ]); ("T", [ tup [ i 2 ] ]) ] in
  let phi = Incdb_logic.Fo.(Forall ("x", Atom ("R", [ Var "x" ]))) in
  let full = Oracle.cert_with_nulls_fo ~pool:None db phi in
  check_rel "equals the full-database oracle" full
    (Certainty.cert_with_nulls_fo ~pool:None db phi);
  check_rel "cert∩ too" full (Certainty.cert_intersection_fo ~pool:None db phi);
  Alcotest.(check bool) "restriction would change the answer" false
    (Relation.equal full (Oracle.cert_with_nulls_fo ~pool:None (without_t db) phi))

(* Dom₁ − R ranges over adom(D): with R = {1} and T = {2} its certain
   answer is {2}, and {} with T emptied.  [relevant] keeps every
   relation of a Dom query, and the RA front ends agree with the full
   oracle. *)
let test_dom_unrestricted () =
  let db = Database.of_list unary [ ("R", [ tup [ i 1 ] ]); ("T", [ tup [ i 2 ] ]) ] in
  let q = Algebra.Diff (Algebra.Dom 1, Algebra.Rel "R") in
  Alcotest.(check bool) "relevant keeps the database" true
    (Certainty.relevant db q == db);
  let full = Oracle.cert_with_nulls_ra ~pool:None db q in
  check_rel "certain answer {2}" (Relation.of_list 1 [ tup [ i 2 ] ]) full;
  check_rel "cert_with_nulls_ra" full (Certainty.cert_with_nulls_ra ~pool:None db q);
  check_rel "cert_intersection_ra" full
    (Certainty.cert_intersection_ra ~pool:None db q);
  (match Certainty.cert_with_fallback ~pool:None db q with
   | Certainty.Exact r -> check_rel "cert_with_fallback" full r
   | Certainty.Approximate _ -> Alcotest.fail "no guard, so exact");
  Alcotest.(check bool) "restriction would change the answer" false
    (Relation.equal full (Oracle.cert_with_nulls_ra ~pool:None (without_t db) q))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "worlds"
    [ ( "builder",
        [ Alcotest.test_case "worlds share complete relations" `Quick test_builder;
          Alcotest.test_case "invariant subplan stored once" `Quick
            test_invariant_subplan ] );
      qsuite "differential"
        [ prop_ra_differential; prop_fo_differential; prop_budget_labels;
          prop_brute_force; prop_classify; prop_aggregate ];
      ( "brute-force",
        [ Alcotest.test_case "nulls that meet only each other" `Quick
            test_fresh_collision;
          Alcotest.test_case "a null between two constants" `Quick
            test_order_gap;
          Alcotest.test_case "two nulls in one gap" `Quick
            test_order_gap_two_nulls ] );
      qsuite "routes" [ prop_routes; prop_prune ];
      ( "route-cases",
        [ Alcotest.test_case "naive-exact when < reads a null-free column" `Quick
            test_naive_exact_route;
          Alcotest.test_case "pruned NOT IN is a hash join" `Quick
            test_pruned_hash_join ] );
      ( "relevance",
        [ Alcotest.test_case "nulls only in unread relations" `Quick
            test_unread_nulls;
          Alcotest.test_case "FO keeps the full database" `Quick
            test_fo_unrestricted;
          Alcotest.test_case "Dom keeps the full database" `Quick
            test_dom_unrestricted ] );
      qsuite "ctables" [ prop_normalize; prop_ceval ] ]
