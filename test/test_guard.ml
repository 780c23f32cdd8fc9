(* Robustness suite for the resource governor (DESIGN.md §4d): guard
   tokens (deadline / budget / cancellation), the fault-injection
   layer, pool shutdown semantics, the typed chase failure, and the
   graceful degradation of exact certain answers to the polynomial
   under-approximation. *)

open Incdb_relational
open Incdb_certain
open Helpers

(* cutoffs forced to zero so tiny relations exercise the parallel code
   paths (and therefore the guarded chunk boundaries) *)
let pool4 = Pool.create ~size:4 ()

let () =
  Pool.scan_cutoff := 0;
  Pool.join_cutoff := 0;
  at_exit (fun () -> Pool.shutdown pool4)

(* ------------------------------------------------------------------ *)
(* Guard tokens                                                        *)
(* ------------------------------------------------------------------ *)

let test_guard_create () =
  Alcotest.check_raises "negative deadline"
    (Invalid_argument "Guard.create: negative deadline_in") (fun () ->
      ignore (Guard.create ~deadline_in:(-1.0) ()));
  Alcotest.check_raises "negative budget"
    (Invalid_argument "Guard.create: negative budget") (fun () ->
      ignore (Guard.create ~budget:(-1) ()));
  let g = Guard.create () in
  Guard.check (Some g);
  Guard.check None;
  (* charging [None] is a no-op, not an accumulation *)
  Guard.charge None 1_000_000;
  Alcotest.(check int) "fresh token unused" 0 (Guard.tuples_used g)

let test_guard_budget () =
  let g = Guard.create ~budget:10 () in
  Guard.charge (Some g) 4;
  Guard.charge (Some g) 6;
  Alcotest.(check int) "accumulates" 10 (Guard.tuples_used g);
  match Guard.charge (Some g) 1 with
  | () -> Alcotest.fail "budget of 10 must not absorb an 11th tuple"
  | exception Guard.Interrupt (Guard.Budget { tuples }) ->
    Alcotest.(check int) "reports the total charged" 11 tuples

let test_guard_deadline () =
  let g = Guard.create ~deadline_in:0.005 () in
  Guard.check (Some g);
  Unix.sleepf 0.02;
  Alcotest.check_raises "past deadline" (Guard.Interrupt Guard.Deadline)
    (fun () -> Guard.check (Some g))

let test_guard_cancel () =
  let g = Guard.create ~deadline_in:3600.0 ~budget:max_int () in
  Alcotest.(check bool) "not cancelled" false (Guard.cancelled g);
  Guard.cancel g;
  Alcotest.(check bool) "cancelled" true (Guard.cancelled g);
  Alcotest.check_raises "cancellation beats the generous limits"
    (Guard.Interrupt Guard.Cancelled) (fun () -> Guard.check (Some g))

(* ------------------------------------------------------------------ *)
(* INCDB_DOMAINS parsing                                               *)
(* ------------------------------------------------------------------ *)

(* [Unix.putenv] cannot unset a variable; an empty value is unparseable
   for every consumer in this library, which matches absence up to the
   once-per-process stderr warning *)
let with_env var value f =
  let old = Sys.getenv_opt var in
  Unix.putenv var value;
  Fun.protect f ~finally:(fun () ->
      Unix.putenv var (Option.value old ~default:""))

let test_domains_of_string () =
  let check s expected =
    Alcotest.(check (option int))
      (Printf.sprintf "%S" s) expected (Pool.domains_of_string s)
  in
  check "1" (Some 1);
  check "4" (Some 4);
  check " 8 " (Some 8);
  check "500" (Some 128);
  (* clamped *)
  check "0" None;
  check "-3" None;
  check "" None;
  check "four" None;
  check "4.0" None

let test_default_size_env () =
  with_env "INCDB_DOMAINS" "3" (fun () ->
      Alcotest.(check int) "INCDB_DOMAINS=3" 3 (Pool.default_size ()));
  with_env "INCDB_DOMAINS" "999" (fun () ->
      Alcotest.(check int) "clamped to 128" 128 (Pool.default_size ()));
  with_env "INCDB_DOMAINS" "bogus" (fun () ->
      Alcotest.(check int) "unparseable falls back to recommended"
        (Domain.recommended_domain_count ())
        (Pool.default_size ()));
  with_env "INCDB_DOMAINS" "-2" (fun () ->
      Alcotest.(check int) "non-positive falls back to recommended"
        (Domain.recommended_domain_count ())
        (Pool.default_size ()))

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)
(* ------------------------------------------------------------------ *)

let with_faults spec f =
  Alcotest.(check bool)
    (Printf.sprintf "spec %S parses" spec)
    true (Guard.set_faults spec);
  Fun.protect f ~finally:Guard.clear_faults

let test_fault_parse () =
  List.iter
    (fun spec ->
      Alcotest.(check bool)
        (Printf.sprintf "accepts %S" spec)
        true (Guard.set_faults spec);
      Alcotest.(check bool) "active" true (Guard.fault_injection_active ());
      Guard.clear_faults ())
    [ "pool.chunk:1.0:42"; "pool.chunk:0.5:7:raise"; "*:0.25:3:delay=2";
      "a:0:1 , b:1:2"; "s:0.5:1:delay=0"; "shard.*:1.0:1";
      "wal.*:0.5:2:delay=1"; "shard.*:0.3:4:raise" ];
  List.iter
    (fun spec ->
      Alcotest.(check bool)
        (Printf.sprintf "rejects %S" spec)
        false (Guard.set_faults spec))
    [ ""; "pool.chunk"; "pool.chunk:0.5"; "pool.chunk:2.0:1";
      "pool.chunk:-0.1:1"; "pool.chunk:0.5:x"; ":0.5:1"; "s:0.5:1:delay=-3";
      "s:0.5:1:delay="; "s:0.5:1:explode"; "a:1.0:1,bogus";
      (* the only wildcards are "*" and a "prefix.*" suffix: a star in
         the middle, a bare ".*", or a star-bearing prefix is malformed
         and must fail the whole spec, never silently match nothing *)
      "sha*rd:1.0:1"; "*.rpc:1.0:1"; ".*:1.0:1"; "shard.*x:1.0:1";
      "sh*ard.*:1.0:1" ];
  Alcotest.(check bool) "inactive after clear" false
    (Guard.fault_injection_active ());
  (* no faults configured: inject is a no-op at any site *)
  Guard.inject "pool.chunk"

let test_fault_site_match () =
  with_faults "other.site:1.0:1" (fun () ->
      (* site mismatch: never fires even at probability 1 *)
      Guard.inject "pool.chunk");
  with_faults "*:1.0:1" (fun () ->
      Alcotest.check_raises "wildcard matches every site"
        (Guard.Injected "anywhere") (fun () -> Guard.inject "anywhere"));
  (* "prefix.*" covers every site under the prefix and nothing else *)
  with_faults "shard.*:1.0:1" (fun () ->
      Alcotest.check_raises "shard.* matches shard.rpc"
        (Guard.Injected "shard.rpc") (fun () -> Guard.inject "shard.rpc");
      Alcotest.check_raises "shard.* matches shard.connect"
        (Guard.Injected "shard.connect")
        (fun () -> Guard.inject "shard.connect");
      Alcotest.check_raises "shard.* matches shard.gather"
        (Guard.Injected "shard.gather")
        (fun () -> Guard.inject "shard.gather");
      (* sibling subsystems stay quiet, and the prefix must stop at
         the dot: "shardling.rpc" is not under "shard." *)
      Guard.inject "wal.append";
      Guard.inject "shardling.rpc");
  with_faults "wal.*:1.0:1" (fun () ->
      Alcotest.check_raises "wal.* matches wal.fsync"
        (Guard.Injected "wal.fsync") (fun () -> Guard.inject "wal.fsync");
      Guard.inject "shard.rpc");
  (* an exact site spec still matches only itself *)
  with_faults "shard.rpc:1.0:1" (fun () ->
      Alcotest.check_raises "exact site fires" (Guard.Injected "shard.rpc")
        (fun () -> Guard.inject "shard.rpc");
      Guard.inject "shard.gather")

let fire_pattern spec n =
  Alcotest.(check bool) "parses" true (Guard.set_faults spec);
  let pat =
    List.init n (fun _ ->
        match Guard.inject "s" with
        | () -> false
        | exception Guard.Injected _ -> true)
  in
  Guard.clear_faults ();
  pat

let test_fault_determinism () =
  let p1 = fire_pattern "s:0.5:7" 40 in
  let p2 = fire_pattern "s:0.5:7" 40 in
  Alcotest.(check (list bool)) "same seed replays the same schedule" p1 p2;
  Alcotest.(check bool) "some draws fire" true (List.mem true p1);
  Alcotest.(check bool) "some draws do not" true (List.mem false p1);
  let p3 = fire_pattern "s:0.5:8" 40 in
  Alcotest.(check bool) "a different seed gives a different schedule" true
    (p1 <> p3)

(* raise faults at every chunk: the first injected exception propagates
   out of the combinator after all chunks finish, and the pool stays
   fully reusable — no deadlock, no leaked worker *)
let test_pool_fault_raise () =
  with_faults "pool.chunk:1.0:42" (fun () ->
      for _ = 1 to 5 do
        match
          Pool.parallel_map ~cutoff:0 (Some pool4) Fun.id
            (List.init 64 Fun.id)
        with
        | _ -> Alcotest.fail "probability-1 fault must fire"
        | exception Guard.Injected "pool.chunk" -> ()
      done);
  Alcotest.(check (list int))
    "pool reusable after injected faults" [ 0; 1; 2; 3 ]
    (Pool.parallel_map ~cutoff:0 (Some pool4) Fun.id [ 0; 1; 2; 3 ])

(* the delay mode perturbs scheduling, never results: the satellite
   parallel-differential suite under INCDB_FAULT-style delays *)
let test_fault_delay_differential () =
  with_faults "pool.chunk:0.3:11:delay=1" (fun () ->
      let gen =
        QCheck2.Gen.pair (gen_db ()) (gen_query ~allow_division:true ())
      in
      let cases =
        QCheck2.Gen.generate ~rand:(Random.State.make [| 2024 |]) ~n:25 gen
      in
      List.iter
        (fun (db, q) ->
          let reference = Eval.run ~pool:None db q in
          check_rel "delay faults leave results bit-identical" reference
            (Eval.run ~pool:(Some pool4) db q);
          check_rel "certainty under delay faults"
            (Certainty.cert_with_nulls_ra ~pool:None db q)
            (Certainty.cert_with_nulls_ra ~pool:(Some pool4) db q))
        (List.filteri (fun i _ -> i < 8) cases);
      (* the plain evaluation differential gets the full case list *)
      List.iter
        (fun (db, q) ->
          check_rel "eval under delay faults" (Eval.run ~pool:None db q)
            (Eval.run ~pool:(Some pool4) db q))
        cases)

(* ------------------------------------------------------------------ *)
(* Pool shutdown                                                       *)
(* ------------------------------------------------------------------ *)

(* a guard cancelled mid-flight interrupts the combinator but leaves
   the pool reusable, like any other chunk exception *)
let test_pool_guard_interrupt () =
  let g = Guard.create () in
  Guard.cancel g;
  Alcotest.check_raises "cancelled guard interrupts run_chunks"
    (Guard.Interrupt Guard.Cancelled) (fun () ->
      ignore
        (Pool.parallel_map ~cutoff:0 ~guard:g (Some pool4) Fun.id
           (List.init 64 Fun.id)));
  Alcotest.(check (list int))
    "pool reusable after interrupt" [ 1; 2; 3 ]
    (Pool.parallel_map ~cutoff:0 (Some pool4) Fun.id [ 1; 2; 3 ]);
  (* budget counts tuples across chunks of a fold_seq_chunked stream;
     charges race in from several domains, so only a lower bound on the
     reported total is deterministic *)
  let g = Guard.create ~budget:10 () in
  match
    Pool.fold_seq_chunked ~chunk:8 ~guard:g (Some pool4)
      ~map:(fun x ->
        Guard.charge (Some g) 1;
        x)
      ~combine:( + ) ~init:0
      (Seq.init 1_000 Fun.id)
  with
  | _ -> Alcotest.fail "budget must interrupt the stream"
  | exception Guard.Interrupt (Guard.Budget { tuples }) ->
    Alcotest.(check bool) "interrupted past the budget" true (tuples > 10)

(* ------------------------------------------------------------------ *)
(* Guarded evaluation                                                  *)
(* ------------------------------------------------------------------ *)

let eval_db =
  Database.of_list test_schema
    [ ("R", [ tup [ i 1; i 2 ]; tup [ i 3; i 4 ]; tup [ i 5; i 6 ] ]);
      ("S", [ tup [ i 2; i 7 ] ]); ("T", []); ("U", []) ]

let test_eval_budget () =
  (match Eval.run ~pool:None ~guard:(Guard.create ~budget:2 ()) eval_db
           (Algebra.Rel "R")
   with
   | _ -> Alcotest.fail "a 3-tuple scan must blow a budget of 2"
   | exception Guard.Interrupt (Guard.Budget { tuples }) ->
     Alcotest.(check bool) "charged at least the scan" true (tuples >= 3));
  let g = Guard.create ~budget:100 () in
  ignore (Eval.run ~pool:None ~guard:g eval_db (Algebra.Rel "R"));
  Alcotest.(check bool) "usage recorded" true (Guard.tuples_used g >= 3);
  (* the nested-loop reference path charges the same way *)
  match
    Eval.run ~planner:false ~guard:(Guard.create ~budget:2 ()) eval_db
      (Algebra.Rel "R")
  with
  | _ -> Alcotest.fail "nested path must charge materialisations too"
  | exception Guard.Interrupt (Guard.Budget _) -> ()

let test_datalog_guarded () =
  let schema = Schema.of_list [ ("edge", [ "s"; "d" ]) ] in
  let db =
    Database.of_list schema
      [ ("edge", [ tup [ i 0; i 1 ]; tup [ i 1; i 2 ]; tup [ i 2; i 0 ] ]) ]
  in
  let tc = Incdb_datalog.Eval.transitive_closure ~edge:"edge" ~path:"path" in
  let reference = Incdb_datalog.Eval.run ~pool:None db tc "path" in
  check_rel "free guard leaves the fixpoint identical" reference
    (Incdb_datalog.Eval.run ~pool:None ~guard:(Guard.create ()) db tc "path");
  let g = Guard.create () in
  Guard.cancel g;
  Alcotest.check_raises "cancelled guard interrupts the fixpoint"
    (Guard.Interrupt Guard.Cancelled) (fun () ->
      ignore (Incdb_datalog.Eval.run ~pool:None ~guard:g db tc "path"))

(* ------------------------------------------------------------------ *)
(* Chase: typed unsatisfiability + guard                               *)
(* ------------------------------------------------------------------ *)

let prob_schema = Schema.of_list [ ("R", [ "a"; "b" ]) ]
let r_fd = { Incdb_prob.Constraints.fd_relation = "R"; lhs = [ 0 ]; rhs = [ 1 ] }

let test_chase_unsatisfiable () =
  (* two constants disagree on the FD's rhs for the same lhs: no
     possible world satisfies the FD *)
  let db =
    Database.of_list prob_schema
      [ ("R", [ tup [ i 1; i 2 ]; tup [ i 1; i 3 ] ]) ]
  in
  (match Incdb_prob.Chase.chase_fds db [ r_fd ] with
   | Incdb_prob.Chase.Failed -> ()
   | Incdb_prob.Chase.Chased _ ->
     Alcotest.fail "constant/constant clash must fail the chase");
  Alcotest.check_raises "chase_exn raises the typed exception"
    Incdb_prob.Chase.Unsatisfiable (fun () ->
      ignore (Incdb_prob.Chase.chase_exn db [ r_fd ]))

let test_chase_guarded () =
  let db =
    Database.of_list prob_schema
      [ ("R", [ tup [ i 1; nu 0 ]; tup [ i 1; i 3 ] ]) ]
  in
  (match Incdb_prob.Chase.chase_fds ~guard:(Guard.create ()) db [ r_fd ] with
   | Incdb_prob.Chase.Chased (chased, subst) ->
     check_rel "null equated to the constant"
       (rel 2 [ [ i 1; i 3 ] ])
       (Database.relation chased "R");
     Alcotest.(check bool) "substitution records the merge" true
       (List.mem_assoc 0 subst)
   | Incdb_prob.Chase.Failed -> Alcotest.fail "chase should succeed");
  let g = Guard.create () in
  Guard.cancel g;
  Alcotest.check_raises "cancelled guard interrupts the chase"
    (Guard.Interrupt Guard.Cancelled) (fun () ->
      ignore (Incdb_prob.Chase.chase_exn ~guard:g db [ r_fd ]))

(* ------------------------------------------------------------------ *)
(* Graceful degradation: cert_with_fallback                            *)
(* ------------------------------------------------------------------ *)

let fallback_db =
  Database.of_list test_schema
    [ ("R", [ tup [ i 1; nu 0 ]; tup [ i 2; nu 1 ]; tup [ nu 2; i 3 ] ]);
      ("S", [ tup [ nu 0; i 4 ]; tup [ i 3; nu 1 ] ]);
      ("T", [ tup [ i 1 ] ]); ("U", [ tup [ nu 2 ] ]) ]

let fallback_q =
  Algebra.Diff (Algebra.Rel "R", Algebra.Project ([ 1; 0 ], Algebra.Rel "S"))

let test_fallback_exact () =
  let exact = Certainty.cert_with_nulls_ra ~pool:None fallback_db fallback_q in
  (match
     Certainty.cert_with_fallback ~pool:None
       ~guard:(Guard.create ~deadline_in:3600.0 ~budget:max_int ())
       fallback_db fallback_q
   with
   | Certainty.Exact r -> check_rel "generous guard stays exact" exact r
   | Certainty.Approximate _ -> Alcotest.fail "generous guard must not fire");
  match Certainty.cert_with_fallback ~pool:None fallback_db fallback_q with
  | Certainty.Exact r ->
    check_rel "no guard is always exact" exact r;
    check_rel "answer_relation projects" exact (Certainty.answer_relation (Certainty.Exact r))
  | Certainty.Approximate _ -> Alcotest.fail "no guard can never fire"

let test_fallback_interrupted () =
  let exact = Certainty.cert_with_nulls_ra ~pool:None fallback_db fallback_q in
  let check_approx name answer =
    match answer with
    | Certainty.Exact _ -> Alcotest.fail (name ^ ": guard must interrupt")
    | Certainty.Approximate r ->
      Alcotest.(check bool)
        (name ^ ": approximate ⊆ exact cert⊥")
        true (Relation.subset r exact)
  in
  let cancelled = Guard.create () in
  Guard.cancel cancelled;
  check_approx "cancelled"
    (Certainty.cert_with_fallback ~pool:None ~guard:cancelled fallback_db
       fallback_q);
  let expired = Guard.create ~deadline_in:0.0 () in
  Unix.sleepf 0.002;
  check_approx "expired deadline, parallel pool"
    (Certainty.cert_with_fallback ~pool:(Some pool4) ~guard:expired
       fallback_db fallback_q);
  check_approx "tiny budget"
    (Certainty.cert_with_fallback ~pool:None
       ~guard:(Guard.create ~budget:1 ())
       fallback_db fallback_q)

(* [~allow_tests:false]: Theorem 4.7 soundness is for the fragment
   without Is_null/Is_const, same restriction as the Q⁺ ⊆ cert⊥
   properties in test_certain.ml *)
let prop_fallback_sound =
  QCheck2.Test.make ~count:40
    ~name:"interrupted fallback is a subset of exact cert⊥"
    ~print:(fun (db, q) -> db_print db ^ "\n" ^ query_print q)
    QCheck2.Gen.(pair (gen_db ~max_size:3 ()) (gen_query ~allow_tests:false ()))
    (fun (db, q) ->
      let g = Guard.create () in
      Guard.cancel g;
      match Certainty.cert_with_fallback ~pool:None ~guard:g db q with
      | Certainty.Exact _ -> false
      | Certainty.Approximate r ->
        Relation.subset r (Certainty.cert_with_nulls_ra ~pool:None db q))

(* ------------------------------------------------------------------ *)
(* Suite                                                               *)
(* ------------------------------------------------------------------ *)
(* env_knob: the one warn-once parser behind every INCDB_* variable    *)
(* ------------------------------------------------------------------ *)

let test_env_knob () =
  let knob () =
    Guard.env_knob ~name:"INCDB_TEST_KNOB" ~expected:"a positive integer"
      ~fallback:"7"
      ~parse:(fun s ->
        match int_of_string_opt s with
        | Some n when n > 0 -> Some n
        | _ -> None)
      ~default:(fun () -> 7)
      ()
  in
  let original = Sys.getenv_opt "INCDB_TEST_KNOB" in
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "INCDB_TEST_KNOB" (Option.value original ~default:""))
    (fun () ->
      Unix.putenv "INCDB_TEST_KNOB" "12";
      Alcotest.(check int) "parseable value wins" 12 (knob ());
      Unix.putenv "INCDB_TEST_KNOB" "banana";
      (* warns once on stderr (quoting the offending value), then the
         default; asserting the value here, the warn text in CI logs *)
      Alcotest.(check int) "unparseable falls back" 7 (knob ());
      Alcotest.(check int) "warn-once: second read is quiet" 7 (knob ());
      Unix.putenv "INCDB_TEST_KNOB" "";
      (* putenv cannot truly unset; an empty value is unparseable and
         also lands on the default *)
      Alcotest.(check int) "empty value falls back" 7 (knob ()))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "guard"
    [ ( "tokens",
        [ Alcotest.test_case "create and no-ops" `Quick test_guard_create;
          Alcotest.test_case "budget" `Quick test_guard_budget;
          Alcotest.test_case "deadline" `Quick test_guard_deadline;
          Alcotest.test_case "cancellation" `Quick test_guard_cancel ] );
      ( "domains-env",
        [ Alcotest.test_case "domains_of_string" `Quick
            test_domains_of_string;
          Alcotest.test_case "default_size fallbacks" `Quick
            test_default_size_env;
          Alcotest.test_case "env_knob warn-once parser" `Quick
            test_env_knob ] );
      ( "fault-injection",
        [ Alcotest.test_case "spec parsing" `Quick test_fault_parse;
          Alcotest.test_case "site matching" `Quick test_fault_site_match;
          Alcotest.test_case "seeded determinism" `Quick
            test_fault_determinism;
          Alcotest.test_case "raise faults in pool chunks" `Quick
            test_pool_fault_raise;
          Alcotest.test_case "delay faults are result-invisible" `Quick
            test_fault_delay_differential ] );
      ( "shutdown",
        [ Alcotest.test_case "queued tasks execute" `Quick
            test_shutdown_executes_queued;
          Alcotest.test_case "shutdown/submit race" `Quick
            test_shutdown_race;
          Alcotest.test_case "post-shutdown submission raises" `Quick
            test_post_shutdown_raises;
          Alcotest.test_case "pool churn leaks nothing" `Quick
            test_pool_churn;
          Alcotest.test_case "guard interrupts leave pool reusable" `Quick
            test_pool_guard_interrupt ] );
      ( "guarded-evaluation",
        [ Alcotest.test_case "budget interrupts evaluation" `Quick
            test_eval_budget;
          Alcotest.test_case "guarded Datalog fixpoint" `Quick
            test_datalog_guarded ] );
      ( "chase",
        [ Alcotest.test_case "typed unsatisfiability" `Quick
            test_chase_unsatisfiable;
          Alcotest.test_case "guarded chase" `Quick test_chase_guarded ] );
      ( "fallback",
        [ Alcotest.test_case "exact when unguarded or generous" `Quick
            test_fallback_exact;
          Alcotest.test_case "approximate when interrupted" `Quick
            test_fallback_interrupted ] );
      qsuite "fallback-soundness" [ prop_fallback_sound ] ]
