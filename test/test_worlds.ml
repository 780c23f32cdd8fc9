(* Differential suite for the possible-world loop of cert⊥: the library
   (one compiled plan per call, the valuation builder, world-invariant
   subplans, hashed c-table dedup) against the frozen implementations in
   oracle.ml.  Answers, ctuple lists (order included) and the tuples
   charged to a guard must all be identical, on every pool. *)

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

let gen_db : Database.t Gen.t =
  let open Gen in
  (* which relations may hold nulls: never all three *)
  let* with_nulls =
    oneofl [ []; [ "R" ]; [ "S" ]; [ "T" ]; [ "R"; "S" ]; [ "R"; "T" ]; [ "S"; "T" ] ]
  in
  let value name =
    if List.mem name with_nulls then
      frequency
        [ (2, map (fun c -> Value.Const c) gen_const);
          (1, map Value.null (int_range 0 3)) ]
    else map (fun c -> Value.Const c) gen_const
  in
  let rel name =
    let k = Schema.arity schema name in
    map
      (fun ts -> (name, ts))
      (list_size (int_range 0 3) (map Tuple.of_list (list_repeat k (value name))))
  in
  map (Database.of_list schema) (flatten_l (List.map rel names))

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

let same_answers ~what ~pool ~equal oracle fresh =
  let o, o_used = charged oracle and n, n_used = charged fresh in
  if not (agree ~equal o n) then
    QCheck2.Test.fail_reportf "%s on %s: answers differ" what pool;
  if o_used <> n_used then
    QCheck2.Test.fail_reportf "%s on %s: oracle charged %d tuples, library %d"
      what pool o_used n_used;
  true

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
      List.for_all
        (fun (name, pool) ->
          let rel what oracle fresh =
            same_answers ~what ~pool:name ~equal:Relation.equal oracle fresh
          in
          let eval g w = Eval.run ~pool ~guard:g w q in
          rel "cert_with_nulls_ra"
            (fun g -> Oracle.cert_with_nulls_ra ~pool ~guard:g db q)
            (fun g -> Certainty.cert_with_nulls_ra ~pool ~guard:g db q)
          && rel "cert_intersection_ra"
               (fun g -> Oracle.cert_intersection_ra ~pool ~guard:g db q)
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

(* A budget equal to the oracle's total charge lets it finish; one less
   interrupts it.  The library must return or raise exactly as the
   oracle does at both budgets, so no exact/degraded label can move. *)
let prop_budget_labels =
  QCheck2.Test.make ~count:300 ~name:"budget labels match the oracle"
    ~print:print_instance
    Gen.(pair gen_db (gen_query ~dom:false))
    (fun (db, q) ->
      List.for_all
        (fun (name, pool) ->
          let _, total =
            charged (fun g -> Oracle.cert_with_nulls_ra ~pool ~guard:g db q)
          in
          List.for_all
            (fun budget ->
              let check what ~equal oracle fresh =
                let o, _ = charged ~budget oracle
                and n, _ = charged ~budget fresh in
                if budget = total && Result.is_error o then
                  QCheck2.Test.fail_reportf
                    "%s on %s: the oracle overran its own total %d" what name
                    total;
                if not (agree ~equal o n) then
                  QCheck2.Test.fail_reportf "%s on %s, budget %d: oracle %s, library %s"
                    what name budget
                    (if Result.is_ok o then "returned" else "raised")
                    (if Result.is_ok n then "returned" else "raised");
                true
              in
              check "cert_with_nulls_ra" ~equal:Relation.equal
                (fun g -> Oracle.cert_with_nulls_ra ~pool ~guard:g db q)
                (fun g -> Certainty.cert_with_nulls_ra ~pool ~guard:g db q)
              && check "cert_with_fallback" ~equal:equal_answer
                   (fun g -> Oracle.cert_with_fallback ~pool ~guard:g db q)
                   (fun g -> Certainty.cert_with_fallback ~pool ~guard:g db q))
            (List.filter (fun b -> b >= 0) [ total; total - 1 ]))
        pools)

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

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "worlds"
    [ ( "builder",
        [ Alcotest.test_case "worlds share complete relations" `Quick test_builder;
          Alcotest.test_case "invariant subplan stored once" `Quick
            test_invariant_subplan ] );
      qsuite "differential"
        [ prop_ra_differential; prop_fo_differential; prop_budget_labels ];
      qsuite "ctables" [ prop_normalize; prop_ceval ] ]
