(* The pool scheduler (DESIGN.md §4c): statistics, the "pool.chunk"
   fault site on a lone chunk, shutdown ordering, the rule that a
   section nested inside a chunk runs sequentially — alone and with
   several plain domains submitting nested sections at once — and
   qcheck differential suites for the chase, c-table strategy
   evaluation and the □Q/◇Q multiplicity sweeps across pool sizes. *)

open Incdb_relational
open Incdb_prob
open Incdb_ctables
open Incdb_certain
open Helpers

let test_stats () =
  let p = Pool.create ~size:4 () in
  let xs = List.init 100 Fun.id in
  Alcotest.(check (list int))
    "computes" (List.map succ xs)
    (Pool.parallel_map ~cutoff:0 (Some p) succ xs);
  Alcotest.(check bool) "counts tasks" true ((Pool.stats p).Pool.tasks > 0);
  Alcotest.(check bool)
    "stats line" true
    (String.starts_with ~prefix:"pool backend=fifo size=4 tasks="
       (Pool.stats_line p));
  Pool.shutdown p

(* ------------------------------------------------------------------ *)
(* the pool.chunk fault site on a one-chunk section                    *)
(* ------------------------------------------------------------------ *)

(* A section of one chunk passes the same per-chunk wrapper as any
   other: a probability-1 raise fault at "pool.chunk" reaches it, both
   through [run_chunks] directly and through a two-element map (the
   seed element plus one chunk), and the pool stays usable. *)
let test_lone_chunk_fault () =
  let p = Pool.create ~size:2 () in
  Fun.protect
    ~finally:(fun () ->
      Guard.clear_faults ();
      Pool.shutdown p)
    (fun () ->
      Alcotest.(check bool) "faults armed" true
        (Guard.set_faults "pool.chunk:1.0:3");
      Alcotest.check_raises "run_chunks ~nchunks:1"
        (Guard.Injected "pool.chunk") (fun () ->
          Pool.run_chunks p ~nchunks:1 ignore);
      Alcotest.check_raises "two-element parallel_map"
        (Guard.Injected "pool.chunk") (fun () ->
          ignore (Pool.parallel_map ~cutoff:0 (Some p) succ [ 1; 2 ]));
      Guard.clear_faults ();
      Alcotest.(check (list int))
        "pool reusable after the fault" [ 2; 3 ]
        (Pool.parallel_map ~cutoff:0 (Some p) succ [ 1; 2 ]))

(* ------------------------------------------------------------------ *)
(* nested sections run sequentially                                    *)
(* ------------------------------------------------------------------ *)

(* Two outer items, each mapping 32 slow inner items with cutoff 0, on
   a size-4 pool: the inner combinator sees the worker flag and runs
   each outer item's inner work entirely on one domain. *)
let test_nested_degrades () =
  let p = Pool.create ~size:4 () in
  let lock = Mutex.create () in
  let seen = ref [] in
  let record outer =
    let d = (Domain.self () :> int) in
    Mutex.lock lock;
    seen := (outer, d) :: !seen;
    Mutex.unlock lock
  in
  let result =
    Pool.parallel_map ~cutoff:0 (Some p)
      (fun outer ->
        Pool.parallel_map ~cutoff:0 (Some p)
          (fun inner ->
            record outer;
            Unix.sleepf 0.001;
            inner + (100 * outer))
          (List.init 32 Fun.id))
      [ 0; 1 ]
  in
  Pool.shutdown p;
  Alcotest.(check (list (list int)))
    "nested results correct"
    [ List.init 32 Fun.id; List.init 32 (fun i -> i + 100) ]
    result;
  List.iter
    (fun outer ->
      Alcotest.(check int)
        "each outer item's inner work stays on one domain" 1
        (List.length
           (List.sort_uniq compare
              (List.filter_map
                 (fun (o, d) -> if o = outer then Some d else None)
                 !seen))))
    [ 0; 1 ]

(* Three plain domains submit nested map/fold sections into one size-2
   pool at once, while delay faults stretch a fifth of the chunks.
   Each submitter helps drain the shared queue, so its chunks also run
   other submitters' sections, and every nested section inside them
   must still finish.  A watchdog turns a hang into a failure; the
   results must equal the sequential reference. *)
let test_concurrent_nested_submitters () =
  let p = Pool.create ~size:2 () in
  let section pool k =
    Pool.parallel_map ~cutoff:0 pool
      (fun outer ->
        Pool.parallel_fold ~cutoff:0 pool
          ~map:(fun inner -> (outer * inner) + k)
          ~combine:( + ) ~init:0 (List.init 24 Fun.id))
      (List.init 16 Fun.id)
  in
  Alcotest.(check bool) "faults armed" true
    (Guard.set_faults "pool.chunk:0.2:5:delay=1");
  let finished = Atomic.make 0 in
  let submitters =
    List.init 3 (fun k ->
        Domain.spawn (fun () ->
            let rs = List.init 5 (fun _ -> section (Some p) k) in
            Atomic.incr finished;
            rs))
  in
  let deadline = Unix.gettimeofday () +. 60.0 in
  while Atomic.get finished < 3 && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  Guard.clear_faults ();
  (* on a hang, fail without joining: the stuck domains die with the
     process *)
  if Atomic.get finished < 3 then
    Alcotest.fail "nested submitters did not finish within 60 s";
  List.iteri
    (fun k d ->
      let expected = section None k in
      List.iter
        (Alcotest.(check (list int)) "equals ~pool:None" expected)
        (Domain.join d))
    submitters;
  Pool.shutdown p

(* ------------------------------------------------------------------ *)
(* differential pools: sizes 1 and 4                                  *)
(* ------------------------------------------------------------------ *)

let diff_pools =
  lazy (List.map (fun size -> (size, Pool.create ~size ())) [ 1; 4 ])

let against_pools ~name check_one =
  List.for_all
    (fun (size, p) ->
      check_one p
      ||
      (Printf.eprintf "%s: mismatch on pool size %d\n%!" name size;
       false))
    (Lazy.force diff_pools)

(* ------------------------------------------------------------------ *)
(* chase differential                                                  *)
(* ------------------------------------------------------------------ *)

let database_equal a b =
  let dump db =
    List.sort compare (Database.fold (fun n r acc -> (n, r) :: acc) db [])
  in
  List.length (dump a) = List.length (dump b)
  && List.for_all2
       (fun (n1, r1) (n2, r2) -> n1 = n2 && Relation.equal r1 r2)
       (dump a) (dump b)

let chase_result_equal a b =
  match (a, b) with
  | Chase.Failed, Chase.Failed -> true
  | Chase.Chased (db1, s1), Chase.Chased (db2, s2) ->
    s1 = s2 && database_equal db1 db2
  | _ -> false

let test_fds =
  [ { Constraints.fd_relation = "R"; lhs = [ 0 ]; rhs = [ 1 ] };
    { Constraints.fd_relation = "S"; lhs = [ 0 ]; rhs = [ 1 ] } ]

let prop_chase_differential =
  QCheck2.Test.make ~count:80
    ~name:"chase: every pool size bit-identical to sequential"
    ~print:db_print
    (gen_db ~null_rate:0.4 ~max_size:5 ())
    (fun db ->
      let reference = Chase.chase_fds ~pool:None db test_fds in
      against_pools ~name:"chase" (fun p ->
          chase_result_equal reference
            (Chase.chase_fds ~pool:(Some p) db test_fds)))

(* ------------------------------------------------------------------ *)
(* ceval differential                                                  *)
(* ------------------------------------------------------------------ *)

let eval_all_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (s1, c1) (s2, c2) ->
         s1 = s2
         && Ctable.arity c1 = Ctable.arity c2
         && Ctable.to_list c1 = Ctable.to_list c2)
       a b

let prop_ceval_differential =
  QCheck2.Test.make ~count:60
    ~name:"ceval: all four strategies bit-identical on every pool size"
    ~print:(fun (db, q) -> db_print db ^ "\n" ^ query_print q)
    QCheck2.Gen.(pair (gen_db ()) (gen_query ~allow_division:true ()))
    (fun (db, q) ->
      let reference = Ceval.eval_all ~pool:None ~cutoff:0 db q in
      against_pools ~name:"ceval" (fun p ->
          eval_all_equal reference
            (Ceval.eval_all ~pool:(Some p) ~cutoff:0 db q)))

(* ------------------------------------------------------------------ *)
(* bag_bounds differential                                             *)
(* ------------------------------------------------------------------ *)

let prop_bag_bounds_differential =
  QCheck2.Test.make ~count:30
    ~name:"box/diamond sweeps bit-identical on every pool size"
    ~print:(fun (db, q) -> db_print db ^ "\n" ^ query_print q)
    QCheck2.Gen.(pair (gen_db ~max_size:3 ()) (gen_query ~positive:true ()))
    (fun (db, q) ->
      let k = Algebra.arity test_schema q in
      (* candidate tuples: a constant probe plus (up to two) possible
         answers, to hit both zero and non-zero multiplicities *)
      let probes =
        Tuple.of_list (List.init k (fun _ -> Value.int 1))
        :: (List.filteri (fun i _ -> i < 2)
              (Relation.to_list (Eval.run ~pool:None db q)))
      in
      List.for_all
        (fun t ->
          let box_ref = Bag_bounds.box ~pool:None db q t in
          let dia_ref = Bag_bounds.diamond ~pool:None db q t in
          against_pools ~name:"bag_bounds" (fun p ->
              Bag_bounds.box ~pool:(Some p) db q t = box_ref
              && Bag_bounds.diamond ~pool:(Some p) db q t = dia_ref))
        probes)

(* ------------------------------------------------------------------ *)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "pool"
    [ ("stats", [ Alcotest.test_case "counters and stats line" `Quick test_stats ]);
      ( "faults",
        [ Alcotest.test_case "raise fault reaches a lone chunk" `Quick
            test_lone_chunk_fault ] );
      ( "shutdown-queued",
        [ Alcotest.test_case "fifo" `Quick test_shutdown_executes_queued ] );
      ("shutdown-race", [ Alcotest.test_case "fifo" `Quick test_shutdown_race ]);
      ( "shutdown-raises",
        [ Alcotest.test_case "fifo" `Quick test_post_shutdown_raises ] );
      ("churn", [ Alcotest.test_case "fifo" `Quick test_pool_churn ]);
      ( "nesting",
        [ Alcotest.test_case "fifo degrades nested sections" `Quick
            test_nested_degrades;
          Alcotest.test_case "concurrent nested submitters terminate" `Quick
            test_concurrent_nested_submitters ] );
      qsuite "chase-diff" [ prop_chase_differential ];
      qsuite "ceval-diff" [ prop_ceval_differential ];
      qsuite "bag-bounds-diff" [ prop_bag_bounds_differential ] ]
