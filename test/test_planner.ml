(* Differential tests for the physical planner (Plan/Planner) and the
   multicore execution layer (Pool): the planned evaluator must agree
   with the nested-loop reference on every query of the supported
   fragment, under both set and bag semantics, including the operators
   with dedicated physical implementations — hash equi-join, hash
   anti-unify semijoin, hash division, memoized Dom powers and shared
   subplans — and the partition-parallel execution paths must agree
   with the sequential reference for every pool size. *)

open Incdb_relational
open Incdb_certain
open Helpers

let planned db q = Eval.run ~planner:true db q
let nested db q = Eval.run ~planner:false db q

(* Pools for the parallel differential suite: a degenerate one-domain
   pool (caller only) and a four-domain pool.  The chunking cutoffs are
   forced to zero so that even the tiny QCheck-generated relations take
   the partition-parallel code paths. *)
let pool1 = Pool.create ~size:1 ()
let pool4 = Pool.create ~size:4 ()

let () =
  Pool.scan_cutoff := 0;
  Pool.join_cutoff := 0;
  at_exit (fun () ->
      Pool.shutdown pool1;
      Pool.shutdown pool4)

(* ------------------------------------------------------------------ *)
(* Unit tests: each physical operator on handcrafted instances         *)
(* ------------------------------------------------------------------ *)

(* nulls on the join columns: _0 = _0 holds but _0 = _1 and _0 = c do
   not, so the hash join must key nulls like any other value *)
let test_hash_join_nulls () =
  let db =
    Database.of_list test_schema
      [ ("R", [ tup [ i 1; nu 0 ]; tup [ i 2; nu 1 ]; tup [ i 3; i 7 ] ]);
        ("S", [ tup [ nu 0; i 10 ]; tup [ i 7; i 20 ]; tup [ nu 2; i 30 ] ]);
        ("T", []); ("U", []) ]
  in
  let q =
    Algebra.Select
      (Condition.eq_col 1 2, Algebra.Product (Algebra.Rel "R", Algebra.Rel "S"))
  in
  let expected =
    rel 4 [ [ i 1; nu 0; nu 0; i 10 ]; [ i 3; i 7; i 7; i 20 ] ]
  in
  check_rel "hash join keys marked nulls exactly" expected (planned db q);
  check_rel "agrees with nested loop" (nested db q) (planned db q)

(* residual conjuncts that are not equi-keys must still be applied *)
let test_hash_join_residual () =
  let db =
    Database.of_list test_schema
      [ ("R", [ tup [ i 1; i 5 ]; tup [ i 2; i 5 ]; tup [ i 2; i 6 ] ]);
        ("S", [ tup [ i 5; i 1 ]; tup [ i 5; i 2 ]; tup [ i 6; i 9 ] ]);
        ("T", []); ("U", []) ]
  in
  let q =
    Algebra.Select
      ( Condition.And
          (Condition.eq_col 1 2, Condition.Neq (Condition.Col 0, Condition.Col 3)),
        Algebra.Product (Algebra.Rel "R", Algebra.Rel "S") )
  in
  check_rel "residual filter applied" (nested db q) (planned db q);
  Alcotest.(check int) "some but not all pairs survive" 3
    (Relation.cardinal (planned db q))

let test_hash_division () =
  let db =
    Database.of_list test_schema
      [ ("R",
         [ tup [ i 1; i 5 ]; tup [ i 1; i 6 ]; tup [ i 2; i 5 ];
           tup [ i 3; nu 0 ]; tup [ i 3; i 5 ]; tup [ i 3; i 6 ] ]);
        ("S", []);
        ("T", [ tup [ i 5 ]; tup [ i 6 ] ]);
        ("U", []) ]
  in
  let q = Algebra.Division (Algebra.Rel "R", Algebra.Rel "T") in
  check_rel "hash division = Relation.division"
    (Relation.division (Database.relation db "R") (Database.relation db "T"))
    (planned db q);
  check_rel "division agrees with nested" (nested db q) (planned db q)

let test_anti_unify_direct () =
  let db =
    Database.of_list test_schema
      [ ("R", [ tup [ i 1; i 2 ]; tup [ i 1; nu 0 ]; tup [ i 3; i 4 ] ]);
        ("S", [ tup [ i 1; nu 1 ]; tup [ i 9; i 9 ] ]);
        ("T", []); ("U", []) ]
  in
  let q = Algebra.Anti_unify_join (Algebra.Rel "R", Algebra.Rel "S") in
  (* (1,2) and (1,_0) unify with (1,_1); (3,4) does not *)
  check_rel "anti-unify semijoin" (rel 2 [ [ i 3; i 4 ] ]) (planned db q);
  check_rel "agrees with nested" (nested db q) (planned db q)

(* a query whose two branches contain the same subtree must compile to
   a plan with a Shared node, and still evaluate correctly *)
let test_shared_subplan () =
  let join =
    Algebra.Select
      (Condition.eq_col 1 2, Algebra.Product (Algebra.Rel "R", Algebra.Rel "S"))
  in
  let q =
    Algebra.Union
      (Algebra.Project ([ 0 ], join), Algebra.Project ([ 3 ], join))
  in
  let plan = Planner.compile ~rel_arity:(Schema.arity test_schema) q in
  let rec count_shared = function
    | Plan.Shared (_, p) -> 1 + count_shared p
    | Plan.Scan _ | Plan.Lit _ | Plan.Dom _ -> 0
    | Plan.Filter (_, p) | Plan.Project (_, p) | Plan.Invariant (p, _) ->
      count_shared p
    | Plan.Hash_join { left; right; _ } ->
      count_shared left + count_shared right
    | Plan.Product (p1, p2)
    | Plan.Union (p1, p2)
    | Plan.Inter (p1, p2)
    | Plan.Diff (p1, p2)
    | Plan.Division (p1, p2)
    | Plan.Anti_unify (p1, p2) -> count_shared p1 + count_shared p2
  in
  Alcotest.(check bool)
    (Printf.sprintf "duplicated subtree is shared in %s" (Plan.to_string plan))
    true
    (count_shared plan >= 2);
  let db =
    Database.of_list test_schema
      [ ("R", [ tup [ i 1; i 5 ]; tup [ i 2; nu 0 ] ]);
        ("S", [ tup [ i 5; i 7 ]; tup [ nu 0; i 8 ] ]);
        ("T", []); ("U", []) ]
  in
  check_rel "shared plan evaluates correctly" (nested db q) (planned db q)

let test_dom_memoized () =
  let db =
    Database.of_list test_schema
      [ ("R", []); ("S", []);
        ("T", [ tup [ i 1 ]; tup [ i 2 ] ]); ("U", [ tup [ nu 0 ] ]) ]
  in
  let q = Algebra.Product (Algebra.Dom 2, Algebra.Dom 1) in
  check_rel "Dom powers agree with nested" (nested db q) (planned db q);
  Alcotest.(check int) "|adom|^3 tuples" 27 (Relation.cardinal (planned db q))

(* ------------------------------------------------------------------ *)
(* Unit tests: the pool combinators                                    *)
(* ------------------------------------------------------------------ *)

let test_pool_basics () =
  Alcotest.(check int) "size 1" 1 (Pool.size pool1);
  Alcotest.(check int) "size 4" 4 (Pool.size pool4);
  Alcotest.(check bool) "main domain is not a worker" false (Pool.in_worker ());
  (* shutdown is idempotent *)
  let p = Pool.create ~size:2 () in
  Pool.shutdown p;
  Pool.shutdown p

let test_pool_map_fold () =
  let xs = List.init 100 Fun.id in
  let f x = (x * x) + 1 in
  List.iter
    (fun pool ->
      Alcotest.(check (list int))
        "parallel_map = List.map" (List.map f xs)
        (Pool.parallel_map ~cutoff:0 pool f xs);
      Alcotest.(check (list int))
        "parallel_map on []" []
        (Pool.parallel_map ~cutoff:0 pool f []);
      Alcotest.(check (list int))
        "parallel_map on singleton" [ f 7 ]
        (Pool.parallel_map ~cutoff:0 pool f [ 7 ]);
      Alcotest.(check int)
        "parallel_fold = fold" (List.fold_left ( + ) 0 (List.map f xs))
        (Pool.parallel_fold ~cutoff:0 pool ~map:f ~combine:( + ) ~init:0 xs);
      (* string concatenation is associative but not commutative: the
         chunked fold and the reduction tree must preserve input order *)
      let words = List.init 37 string_of_int in
      let cat = String.concat "" words in
      Alcotest.(check string)
        "parallel_fold preserves order" cat
        (Pool.parallel_fold ~cutoff:0 pool ~map:Fun.id ~combine:( ^ ) ~init:""
           words);
      Alcotest.(check string)
        "tree_reduce preserves order" cat
        (Pool.tree_reduce pool ( ^ ) "" (Array.of_list words)))
    [ None; Some pool1; Some pool4 ]

let test_pool_seq_chunked () =
  let seq = Seq.init 100 Fun.id in
  let sum =
    Pool.fold_seq_chunked ~chunk:7 (Some pool4) ~map:Fun.id ~combine:( + )
      ~init:0 seq
  in
  Alcotest.(check int) "fold_seq_chunked sums" 4950 sum;
  (* early stop: with [stop] tripping at >= 10 the enumeration must not
     reach the end of an effectful sequence *)
  let forced = ref 0 in
  let counted = Seq.map (fun x -> incr forced; x) (Seq.init 1_000_000 Fun.id) in
  let partial =
    Pool.fold_seq_chunked ~chunk:8 ~stop:(fun acc -> acc >= 10) (Some pool4)
      ~map:Fun.id ~combine:( + ) ~init:0 counted
  in
  Alcotest.(check bool) "stopped early" true (partial >= 10);
  Alcotest.(check bool)
    (Printf.sprintf "forced only %d elements" !forced)
    true (!forced < 1000)

exception Boom

let test_pool_exceptions () =
  List.iter
    (fun pool ->
      Alcotest.check_raises "exception propagates out of parallel_map" Boom
        (fun () ->
          ignore
            (Pool.parallel_map ~cutoff:0 pool
               (fun x -> if x = 61 then raise Boom else x)
               (List.init 100 Fun.id))))
    [ Some pool1; Some pool4 ];
  (* the pool survives a failed job and accepts new work *)
  Alcotest.(check (list int))
    "pool usable after exception" [ 0; 1; 2 ]
    (Pool.parallel_map ~cutoff:0 (Some pool4) Fun.id [ 0; 1; 2 ])

let test_parallel_join_edges () =
  let q =
    Algebra.Select
      (Condition.eq_col 1 2, Algebra.Product (Algebra.Rel "R", Algebra.Rel "S"))
  in
  List.iter
    (fun (name, r_tuples, s_tuples) ->
      let db =
        Database.of_list test_schema
          [ ("R", r_tuples); ("S", s_tuples); ("T", []); ("U", []) ]
      in
      let expected = Eval.run ~pool:None db q in
      List.iter
        (fun pool ->
          check_rel (name ^ " parallel = sequential") expected
            (Eval.run ~pool db q))
        [ Some pool1; Some pool4 ])
    [ ("empty join", [], []);
      ("empty build side", [ tup [ i 1; i 2 ] ], []);
      ("empty probe side", [], [ tup [ i 2; i 3 ] ]);
      ("singletons", [ tup [ i 1; i 2 ] ], [ tup [ i 2; i 3 ] ]) ]

(* a join large enough that every chunking path is taken even with the
   default production cutoffs *)
let test_parallel_join_large () =
  let rng = Incdb_workload.Generator.make_rng ~seed:424242 in
  let next_null = ref 0 in
  let mk () =
    Incdb_workload.Generator.random_relation rng ~arity:2 ~size:400
      ~const_pool:120 ~null_rate:0.1 ~next_null
  in
  let db =
    Database.of_list test_schema
      [ ("R", Relation.to_list (mk ())); ("S", Relation.to_list (mk ()));
        ("T", []); ("U", []) ]
  in
  let q =
    Algebra.Project
      ( [ 0; 3 ],
        Algebra.Select
          ( Condition.eq_col 1 2,
            Algebra.Product (Algebra.Rel "R", Algebra.Rel "S") ) )
  in
  let expected = Eval.run ~pool:None db q in
  check_rel "400-row join, pool of 4" expected (Eval.run ~pool:(Some pool4) db q);
  check_rel "400-row join, pool of 1" expected (Eval.run ~pool:(Some pool1) db q)

let test_canonical_seq () =
  let consts = [ Value.Int 0; Value.Int 1; Value.Str "a" ] in
  List.iter
    (fun nulls ->
      let listed = Valuation.enumerate_canonical ~nulls ~consts in
      let streamed = List.of_seq (Valuation.canonical_seq ~nulls ~consts) in
      Alcotest.(check int)
        (Printf.sprintf "%d nulls: same count" (List.length nulls))
        (List.length listed) (List.length streamed);
      Alcotest.(check bool)
        "same valuations in the same order" true
        (List.for_all2
           (fun a b -> Valuation.to_list a = Valuation.to_list b)
           listed streamed))
    [ []; [ 0 ]; [ 0; 1 ]; [ 0; 1; 2 ]; [ 5; 3; 8; 1 ] ]

(* ------------------------------------------------------------------ *)
(* Differential properties: planned ≡ nested on random workloads       *)
(* ------------------------------------------------------------------ *)

let prop_set_differential =
  QCheck2.Test.make ~count:250 ~name:"planned = nested (set semantics)"
    ~print:(fun (db, q) -> db_print db ^ "\n" ^ query_print q)
    QCheck2.Gen.(pair (gen_db ()) (gen_query ~allow_division:true ()))
    (fun (db, q) -> Relation.equal (planned db q) (nested db q))

let prop_bag_differential =
  QCheck2.Test.make ~count:200 ~name:"planned = nested (bag semantics)"
    ~print:(fun (db, q) -> db_print db ^ "\n" ^ query_print q)
    QCheck2.Gen.(pair (gen_db ()) (gen_query ~allow_division:true ()))
    (fun (db, q) ->
      (* division is outside the bag fragment: both paths must agree on
         raising Unsupported, and on the result otherwise *)
      let eval p =
        match Bag_eval.run ~planner:p db q with
        | b -> Some b
        | exception Bag_eval.Unsupported _ -> None
      in
      match (eval true, eval false) with
      | Some b1, Some b2 -> Bag_relation.equal b1 b2
      | None, None -> true
      | Some _, None | None, Some _ -> false)

(* the Q+/Q? translations put Anti_unify_join on the planner's hot
   path; the Qt/Qf translations add Dom powers and duplicated subtrees
   (subplan memoization) *)
let prop_scheme_pm_differential =
  QCheck2.Test.make ~count:120 ~name:"planned = nested (Q+ and Q?)"
    ~print:(fun (db, q) -> db_print db ^ "\n" ^ query_print q)
    QCheck2.Gen.(pair (gen_db ()) (gen_query ()))
    (fun (db, q) ->
      Relation.equal
        (Scheme_pm.certain_sub ~planner:true db q)
        (Scheme_pm.certain_sub ~planner:false db q)
      && Relation.equal
           (Scheme_pm.possible_sup ~planner:true db q)
           (Scheme_pm.possible_sup ~planner:false db q))

let prop_scheme_tf_differential =
  QCheck2.Test.make ~count:60 ~name:"planned = nested (Qt and Qf)"
    ~print:(fun (db, q) -> db_print db ^ "\n" ^ query_print q)
    QCheck2.Gen.(pair (gen_db ~max_size:3 ()) (gen_query ()))
    (fun (db, q) ->
      Relation.equal
        (Scheme_tf.certain_sub ~planner:true db q)
        (Scheme_tf.certain_sub ~planner:false db q)
      && Relation.equal
           (Scheme_tf.certainly_false ~planner:true db q)
           (Scheme_tf.certainly_false ~planner:false db q))

(* Datalog: the compiled per-rule join plans must reach the same
   fixpoint as tuple-at-a-time matching *)
let prop_datalog_differential =
  let open QCheck2 in
  Test.make ~count:60 ~name:"planned = nested (Datalog TC fixpoint)"
    ~print:(fun r -> Format.asprintf "%a" Relation.pp r)
    (gen_relation ~null_rate:0.2 ~max_size:8 2)
    (fun edges ->
      let schema = Schema.of_list [ ("edge", [ "s"; "d" ]) ] in
      let db =
        Database.of_list schema [ ("edge", Relation.to_list edges) ]
      in
      let tc =
        Incdb_datalog.Eval.transitive_closure ~edge:"edge" ~path:"path"
      in
      Relation.equal
        (Incdb_datalog.Eval.run ~planner:true db tc "path")
        (Incdb_datalog.Eval.run ~planner:false db tc "path"))

(* ------------------------------------------------------------------ *)
(* Differential properties: parallel ≡ sequential on random workloads  *)
(* ------------------------------------------------------------------ *)

(* Every property checks both the degenerate 1-domain pool and the
   4-domain pool against the sequential reference (~pool:None).  With
   the cutoffs forced to 0 above, these runs take the slice-scatter /
   partition-build / union-tree code paths even on tiny relations. *)

let pools = [ ("pool1", Some pool1); ("pool4", Some pool4) ]

let prop_parallel_set =
  QCheck2.Test.make ~count:200 ~name:"parallel = sequential (set semantics)"
    ~print:(fun (db, q) -> db_print db ^ "\n" ^ query_print q)
    QCheck2.Gen.(pair (gen_db ()) (gen_query ~allow_division:true ()))
    (fun (db, q) ->
      let reference = Eval.run ~pool:None db q in
      List.for_all
        (fun (_, pool) -> Relation.equal reference (Eval.run ~pool db q))
        pools)

let prop_parallel_bag =
  QCheck2.Test.make ~count:150 ~name:"parallel = sequential (bag semantics)"
    ~print:(fun (db, q) -> db_print db ^ "\n" ^ query_print q)
    QCheck2.Gen.(pair (gen_db ()) (gen_query ()))
    (fun (db, q) ->
      match Bag_eval.run ~pool:None db q with
      | reference ->
        List.for_all
          (fun (_, pool) ->
            Bag_relation.equal reference (Bag_eval.run ~pool db q))
          pools
      | exception Bag_eval.Unsupported _ -> true)

let prop_parallel_schemes =
  QCheck2.Test.make ~count:80 ~name:"parallel = sequential (Q+/Q? and Qt/Qf)"
    ~print:(fun (db, q) -> db_print db ^ "\n" ^ query_print q)
    QCheck2.Gen.(pair (gen_db ~max_size:3 ()) (gen_query ()))
    (fun (db, q) ->
      List.for_all
        (fun (_, pool) ->
          Relation.equal
            (Scheme_pm.certain_sub ~pool:None db q)
            (Scheme_pm.certain_sub ~pool db q)
          && Relation.equal
               (Scheme_pm.possible_sup ~pool:None db q)
               (Scheme_pm.possible_sup ~pool db q)
          && Relation.equal
               (Scheme_tf.certain_sub ~pool:None db q)
               (Scheme_tf.certain_sub ~pool db q)
          && Relation.equal
               (Scheme_tf.certainly_false ~pool:None db q)
               (Scheme_tf.certainly_false ~pool db q))
        pools)

let prop_parallel_datalog =
  let open QCheck2 in
  Test.make ~count:60 ~name:"parallel = sequential (Datalog TC fixpoint)"
    ~print:(fun r -> Format.asprintf "%a" Relation.pp r)
    (gen_relation ~null_rate:0.2 ~max_size:8 2)
    (fun edges ->
      let schema = Schema.of_list [ ("edge", [ "s"; "d" ]) ] in
      let db = Database.of_list schema [ ("edge", Relation.to_list edges) ] in
      let tc = Incdb_datalog.Eval.transitive_closure ~edge:"edge" ~path:"path" in
      let reference = Incdb_datalog.Eval.run ~pool:None db tc "path" in
      List.for_all
        (fun (_, pool) ->
          Relation.equal reference (Incdb_datalog.Eval.run ~pool db tc "path"))
        pools)

let prop_parallel_certainty =
  QCheck2.Test.make ~count:50
    ~name:"parallel = sequential (canonical-world certainty)"
    ~print:(fun (db, q) -> db_print db ^ "\n" ^ query_print q)
    QCheck2.Gen.(pair (gen_db ~max_size:3 ()) (gen_query ()))
    (fun (db, q) ->
      let bot = Certainty.cert_with_nulls_ra ~pool:None db q in
      let direct =
        Certainty.cert_intersection_direct ~pool:None
          ~run:(fun d -> Eval.run ~pool:None d q)
          ~query_consts:(Algebra.consts q) db
      in
      List.for_all
        (fun (_, pool) ->
          Relation.equal bot (Certainty.cert_with_nulls_ra ~pool db q)
          && Relation.equal direct
               (Certainty.cert_intersection_direct ~pool
                  ~run:(fun d -> Eval.run ~pool d q)
                  ~query_consts:(Algebra.consts q) db))
        pools)

(* ------------------------------------------------------------------ *)
(* Differential properties: guarded ≡ unguarded                        *)
(* ------------------------------------------------------------------ *)

(* With a guard that never fires (no deadline, no budget), every
   guarded path must be bit-identical to the unguarded one — the
   governor only observes, it never perturbs results. *)

let prop_guarded_set =
  QCheck2.Test.make ~count:150 ~name:"guarded = unguarded (set semantics)"
    ~print:(fun (db, q) -> db_print db ^ "\n" ^ query_print q)
    QCheck2.Gen.(pair (gen_db ()) (gen_query ~allow_division:true ()))
    (fun (db, q) ->
      let reference = Eval.run ~pool:None db q in
      let free () = Guard.create () in
      Relation.equal reference (Eval.run ~pool:None ~guard:(free ()) db q)
      && Relation.equal reference
           (Eval.run ~planner:false ~guard:(free ()) db q)
      && List.for_all
           (fun (_, pool) ->
             Relation.equal reference (Eval.run ~pool ~guard:(free ()) db q))
           pools)

let prop_guarded_bag =
  QCheck2.Test.make ~count:100 ~name:"guarded = unguarded (bag semantics)"
    ~print:(fun (db, q) -> db_print db ^ "\n" ^ query_print q)
    QCheck2.Gen.(pair (gen_db ()) (gen_query ()))
    (fun (db, q) ->
      match Bag_eval.run ~pool:None db q with
      | reference ->
        List.for_all
          (fun (_, pool) ->
            Bag_relation.equal reference
              (Bag_eval.run ~pool ~guard:(Guard.create ()) db q))
          pools
      | exception Bag_eval.Unsupported _ -> true)

let prop_guarded_certainty =
  QCheck2.Test.make ~count:40 ~name:"guarded = unguarded (certainty)"
    ~print:(fun (db, q) -> db_print db ^ "\n" ^ query_print q)
    QCheck2.Gen.(pair (gen_db ~max_size:3 ()) (gen_query ()))
    (fun (db, q) ->
      let reference = Certainty.cert_with_nulls_ra ~pool:None db q in
      List.for_all
        (fun (_, pool) ->
          Relation.equal reference
            (Certainty.cert_with_nulls_ra ~pool ~guard:(Guard.create ()) db q)
          &&
          match Certainty.cert_with_fallback ~pool ~guard:(Guard.create ()) db q with
          | Certainty.Exact r -> Relation.equal reference r
          | Certainty.Approximate _ -> false)
        pools)

(* ------------------------------------------------------------------ *)
(* Shard routing: the scatter/gather split and monotonicity (§4k)      *)
(* ------------------------------------------------------------------ *)

(* Scatter is sound only for the UCQ fragment where naive evaluation
   distributes over a partition union: positive conditions, and ∩ only
   over alignment-preserving operands (π destroys alignment, so a
   shard could miss an intersection witness split across shards). *)
let test_shard_split () =
  let open Algebra in
  let check_route name expect q =
    Alcotest.(check string) name
      (match expect with Planner.Scatter -> "scatter" | Gather -> "gather")
      (match Planner.shard_split q with
       | Planner.Scatter -> "scatter"
       | Gather -> "gather")
  in
  let scatterable =
    [ ("base relation", Rel "R");
      ("positive select", Select (Condition.eq_const 0 (Value.Int 1), Rel "R"));
      ( "disjunctive positive select",
        Select
          ( Condition.Or (Condition.eq_const 0 (Value.Str "a"),
                          Condition.eq_col 0 1),
            Rel "R" ) );
      ("project", Project ([ 0 ], Rel "R"));
      ("union", Union (Rel "R", Rel "S"));
      ("select under union",
       Union (Select (Condition.True, Rel "R"), Rel "S"));
      ("aligned inter", Inter (Rel "R", Select (Condition.True, Rel "S"))) ]
  in
  List.iter (fun (n, q) -> check_route n Planner.Scatter q) scatterable;
  (* every scatterable query must also be monotone: the coordinator
     degrades a partial scatter to an under-approximation, which is
     only sound if missing tuples can only shrink the answer *)
  List.iter
    (fun (n, q) ->
      Alcotest.(check bool) (n ^ " is monotone") true (Planner.monotone q))
    scatterable;
  List.iter
    (fun (n, q) -> check_route n Planner.Gather q)
    [ ("product", Product (Rel "R", Rel "S"));
      ("difference", Diff (Rel "R", Rel "S"));
      ("division", Division (Rel "R", Rel "S"));
      ("anti-unify semijoin", Anti_unify_join (Rel "R", Rel "S"));
      ("dom", Dom 1);
      ( "inter over projections",
        Inter (Project ([ 0 ], Rel "R"), Project ([ 1 ], Rel "S")) );
      ( "disequality select",
        Select (Condition.neq_const 0 (Value.Int 1), Rel "R") );
      ("null test select", Select (Condition.Is_null 0, Rel "R"));
      ("const test select", Select (Condition.Is_const 0, Rel "R"));
      ( "order select",
        Select (Condition.Lt (Condition.Col 0, Condition.Lit (Value.Int 5)),
                Rel "R") );
      ( "negative condition below union",
        Union (Rel "R", Select (Condition.Is_null 0, Rel "S")) );
      ("product under project", Project ([ 0 ], Product (Rel "R", Rel "S")))
    ]

let test_shard_monotone () =
  let open Algebra in
  List.iter
    (fun (n, q) ->
      Alcotest.(check bool) n true (Planner.monotone q))
    [ ("base relation", Rel "R");
      ( "disequality select",
        Select (Condition.neq_const 0 (Value.Int 1), Rel "R") );
      ("product", Product (Rel "R", Rel "S"));
      ("inter", Inter (Rel "R", Rel "S"));
      ("dom", Dom 2);
      ("project over product", Project ([ 0 ], Product (Rel "R", Rel "S"))) ];
  List.iter
    (fun (n, q) ->
      Alcotest.(check bool) n false (Planner.monotone q))
    [ ("difference", Diff (Rel "R", Rel "S"));
      ("division", Division (Rel "R", Rel "S"));
      ("anti-unify semijoin", Anti_unify_join (Rel "R", Rel "S"));
      ( "difference below union",
        Union (Rel "R", Diff (Rel "S", Rel "T")) );
      ( "division below select",
        Select (Condition.True, Division (Rel "R", Rel "S")) ) ]

(* ------------------------------------------------------------------ *)
(* Suite                                                               *)
(* ------------------------------------------------------------------ *)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "planner"
    [ ( "operators",
        [ Alcotest.test_case "hash join with nulls" `Quick test_hash_join_nulls;
          Alcotest.test_case "residual conjuncts" `Quick
            test_hash_join_residual;
          Alcotest.test_case "hash division" `Quick test_hash_division;
          Alcotest.test_case "anti-unify semijoin" `Quick
            test_anti_unify_direct;
          Alcotest.test_case "shared subplans" `Quick test_shared_subplan;
          Alcotest.test_case "memoized Dom" `Quick test_dom_memoized ] );
      ( "shard-routing",
        [ Alcotest.test_case "scatter/gather split" `Quick test_shard_split;
          Alcotest.test_case "monotonicity" `Quick test_shard_monotone ] );
      ( "pool",
        [ Alcotest.test_case "basics" `Quick test_pool_basics;
          Alcotest.test_case "map and fold" `Quick test_pool_map_fold;
          Alcotest.test_case "chunked seq fold" `Quick test_pool_seq_chunked;
          Alcotest.test_case "exception propagation" `Quick
            test_pool_exceptions;
          Alcotest.test_case "join edge cases" `Quick test_parallel_join_edges;
          Alcotest.test_case "large join" `Quick test_parallel_join_large;
          Alcotest.test_case "canonical_seq = enumerate_canonical" `Quick
            test_canonical_seq ] );
      qsuite "differential"
        [ prop_set_differential; prop_bag_differential;
          prop_scheme_pm_differential; prop_scheme_tf_differential;
          prop_datalog_differential ];
      qsuite "parallel-differential"
        [ prop_parallel_set; prop_parallel_bag; prop_parallel_schemes;
          prop_parallel_datalog; prop_parallel_certainty ];
      qsuite "guarded-differential"
        [ prop_guarded_set; prop_guarded_bag; prop_guarded_certainty ] ]
