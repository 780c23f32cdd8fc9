(* Shared helpers and QCheck generators for the incdb test suites. *)

open Incdb_relational

let i n = Value.int n
let s x = Value.str x
let nu n = Value.null n

let tup vs = Tuple.of_list vs

(* The standard test schema used by random-query properties. *)
let test_schema =
  Schema.of_list
    [ ("R", [ "a"; "b" ]); ("S", [ "b"; "c" ]); ("T", [ "t" ]); ("U", [ "u" ]) ]

let relation_tc : Relation.t Alcotest.testable =
  Alcotest.testable Relation.pp Relation.equal

let tuple_tc : Tuple.t Alcotest.testable =
  Alcotest.testable Tuple.pp Tuple.equal

let check_rel msg expected actual = Alcotest.check relation_tc msg expected actual

let rel k tuples = Relation.of_list k (List.map tup tuples)

(* ------------------------------------------------------------------ *)
(* Pool shutdown, shared by the guard and pool suites                  *)
(* ------------------------------------------------------------------ *)

let test_shutdown_executes_queued () =
  let p = Pool.create ~size:4 () in
  let started = Atomic.make 0 in
  let d =
    Domain.spawn (fun () ->
        Pool.parallel_map ~cutoff:0 (Some p)
          (fun x ->
            Atomic.incr started;
            Unix.sleepf 0.002;
            x * 2)
          (List.init 64 Fun.id))
  in
  (* wait until the section is visibly executing (chunks enqueued),
     then shut down underneath it: every queued chunk must still
     execute — by an exiting worker or by the shutdown caller — so the
     section completes with full results *)
  while Atomic.get started < 3 do
    Domain.cpu_relax ()
  done;
  Pool.shutdown p;
  Alcotest.(check (list int))
    "concurrent section completed despite shutdown"
    (List.init 64 (fun x -> x * 2))
    (Domain.join d)

let test_shutdown_race () =
  (* race submission against shutdown repeatedly: the section either
     completes with correct results or is rejected with
     Invalid_argument — it never hangs and never returns wrong data *)
  for _ = 1 to 10 do
    let p = Pool.create ~size:3 () in
    let xs = List.init 32 Fun.id in
    let d =
      Domain.spawn (fun () ->
          match Pool.parallel_map ~cutoff:0 (Some p) succ xs with
          | ys -> ys = List.map succ xs
          | exception Invalid_argument _ -> true)
    in
    Pool.shutdown p;
    Alcotest.(check bool) "completed or rejected, never hung" true
      (Domain.join d)
  done

let test_post_shutdown_raises () =
  let p = Pool.create ~size:2 () in
  Pool.shutdown p;
  Alcotest.check_raises "submission after shutdown"
    (Invalid_argument "Pool.run_chunks: pool is shut down") (fun () ->
      ignore
        (Pool.parallel_map ~cutoff:0 (Some p) Fun.id (List.init 8 Fun.id)))

let test_pool_churn () =
  (* create/use/shutdown many pools: leaked worker domains would
     accumulate and deadlock or exhaust the runtime long before 10
     iterations complete *)
  let xs = List.init 40 Fun.id in
  for _ = 1 to 10 do
    let p = Pool.create ~size:3 () in
    Alcotest.(check (list int))
      "fresh pool computes" (List.map succ xs)
      (Pool.parallel_map ~cutoff:0 (Some p) succ xs);
    Pool.shutdown p
  done

(* ------------------------------------------------------------------ *)
(* QCheck generators                                                   *)
(* ------------------------------------------------------------------ *)

open QCheck2

(* QCheck2 exposes its own [Tuple]; keep ours in scope *)
module Tuple = Incdb_relational.Tuple

(* a small pool of constants so that collisions with nulls are likely *)
let gen_const : Value.const Gen.t =
  Gen.map (fun n -> Value.Int n) (Gen.int_range 0 4)

(* null labels 0..2: at most 3 distinct nulls per database keeps exact
   certain-answer enumeration fast *)
let gen_null_label : int Gen.t = Gen.int_range 0 2

let gen_value ~null_rate : Value.t Gen.t =
  Gen.bind (Gen.float_range 0.0 1.0) (fun x ->
      if x < null_rate then Gen.map Value.null gen_null_label
      else Gen.map (fun c -> Value.Const c) gen_const)

let gen_tuple ~null_rate k : Tuple.t Gen.t =
  Gen.map Tuple.of_list (Gen.list_size (Gen.return k) (gen_value ~null_rate))

let gen_relation ~null_rate ~max_size k : Relation.t Gen.t =
  Gen.map
    (Relation.of_list k)
    (Gen.list_size (Gen.int_range 0 max_size) (gen_tuple ~null_rate k))

(* databases over [test_schema] *)
let gen_db ?(null_rate = 0.3) ?(max_size = 4) () : Database.t Gen.t =
  let open Gen in
  let* r = gen_relation ~null_rate ~max_size 2 in
  let* s_ = gen_relation ~null_rate ~max_size 2 in
  let* t = gen_relation ~null_rate ~max_size 1 in
  let* u = gen_relation ~null_rate ~max_size 1 in
  return
    (Database.of_list test_schema
       [ ("R", Relation.to_list r); ("S", Relation.to_list s_);
         ("T", Relation.to_list t); ("U", Relation.to_list u) ])

(* conditions over a given arity *)
let gen_condition ?(allow_neq = true) ?(allow_tests = true) arity :
    Condition.t Gen.t =
  let open Gen in
  let col = int_range 0 (arity - 1) in
  let operand =
    oneof
      [ map (fun c -> Condition.Col c) col;
        map (fun c -> Condition.Lit c) gen_const ]
  in
  let atom =
    let eq = map2 (fun x y -> Condition.Eq (x, y)) operand operand in
    let neq = map2 (fun x y -> Condition.Neq (x, y)) operand operand in
    let lt = map2 (fun x y -> Condition.Lt (x, y)) operand operand in
    let le = map2 (fun x y -> Condition.Le (x, y)) operand operand in
    let isc = map (fun c -> Condition.Is_const c) col in
    let isn = map (fun c -> Condition.Is_null c) col in
    let choices =
      [ eq ]
      @ (if allow_neq then [ neq; lt; le ] else [])
      @ (if allow_tests then [ isc; isn ] else [])
    in
    oneof choices
  in
  sized_size (int_range 0 2) (fix (fun self n ->
      if n = 0 then atom
      else
        oneof
          [ atom;
            map2 (fun a b -> Condition.And (a, b)) (self (n - 1)) (self (n - 1));
            map2 (fun a b -> Condition.Or (a, b)) (self (n - 1)) (self (n - 1))
          ]))

(* random relational algebra queries over [test_schema].
   [positive]: no Diff, no ≠/const/null in selections.
   Arities are tracked so queries are always well-typed; arity ≤ 3. *)
let gen_query ?(positive = false) ?(allow_division = false)
    ?(allow_tests = true) () : Algebra.t Gen.t =
  let allow_tests = allow_tests && not positive in
  let open Gen in
  let open Algebra in
  let base =
    oneofl [ Rel "R"; Rel "S"; Rel "T"; Rel "U" ]
  in
  let rec build n =
    if n <= 0 then base
    else
      let sub = build (n - 1) in
      let select =
        let* q = sub in
        let k = arity test_schema q in
        if k = 0 then return q
        else
          let* c =
            gen_condition ~allow_neq:(not positive) ~allow_tests k
          in
          return (Select (c, q))
      in
      let project =
        let* q = sub in
        let k = arity test_schema q in
        if k = 0 then return q
        else
          let* idxs =
            list_size (int_range 1 (min 2 k)) (int_range 0 (k - 1))
          in
          return (Project (idxs, q))
      in
      let product =
        let* q1 = sub in
        let* q2 = sub in
        let k1 = arity test_schema q1
        and k2 = arity test_schema q2 in
        if k1 + k2 > 3 then return q1 else return (Product (q1, q2))
      in
      let same_arity_pair op =
        let* q1 = sub in
        let* q2 = sub in
        let k1 = arity test_schema q1
        and k2 = arity test_schema q2 in
        if k1 = k2 then return (op q1 q2)
        else
          (* fall back to projecting both to their first column *)
          let p q k = if k = 1 then q else Project ([ 0 ], q) in
          return (op (p q1 k1) (p q2 k2))
      in
      let union = same_arity_pair (fun a b -> Union (a, b)) in
      let inter = same_arity_pair (fun a b -> Inter (a, b)) in
      let diff = same_arity_pair (fun a b -> Diff (a, b)) in
      let division =
        let* q1 = sub in
        let k1 = arity test_schema q1 in
        if k1 < 2 then return q1
        else
          let* q2 =
            oneofl [ Rel "T"; Rel "U" ]
          in
          return (Division (q1, q2))
      in
      let choices =
        [ base; select; project; product; union; inter ]
        @ (if positive then [] else [ diff ])
        @ (if allow_division then [ division ] else [])
      in
      oneof choices
  in
  sized_size (int_range 0 3) build

let query_print q = Algebra.to_string q

let db_print db = Format.asprintf "%a" Database.pp db

(* random FO formulas over [test_schema]; variable pool x, y, z.
   [max_quant] bounds quantifier nesting to keep evaluation cheap. *)
let gen_fo ?(allow_assert = false) () : Incdb_logic.Fo.t Gen.t =
  let open Gen in
  let open Incdb_logic.Fo in
  let var = oneofl [ "x"; "y"; "z" ] in
  let term =
    oneof [ map (fun v -> Var v) var; map (fun c -> Cst c) gen_const ]
  in
  let atom =
    oneof
      [ map2 (fun t1 t2 -> Atom ("R", [ t1; t2 ])) term term;
        map2 (fun t1 t2 -> Atom ("S", [ t1; t2 ])) term term;
        map (fun t -> Atom ("T", [ t ])) term;
        map (fun t -> Atom ("U", [ t ])) term;
        map2 (fun t1 t2 -> Eq (t1, t2)) term term;
        map2 (fun t1 t2 -> Lt (t1, t2)) term term;
        map (fun t -> Is_const t) term;
        map (fun t -> Is_null t) term ]
  in
  let rec build n =
    if n <= 0 then atom
    else
      let sub = build (n - 1) in
      let cases =
        [ atom;
          map (fun f -> Not f) sub;
          map2 (fun f g -> And (f, g)) sub sub;
          map2 (fun f g -> Or (f, g)) sub sub;
          map2 (fun x f -> Exists (x, f)) var sub;
          map2 (fun x f -> Forall (x, f)) var sub ]
        @ (if allow_assert then [ map (fun f -> Assert f) sub ] else [])
      in
      oneof cases
  in
  sized_size (int_range 0 3) build

(* positive formulas only: atoms, ∧, ∨, ∃, ∀ — the fragment preserved
   under onto homomorphisms (Section 4.1) *)
let gen_fo_positive () : Incdb_logic.Fo.t Gen.t =
  let open Gen in
  let open Incdb_logic.Fo in
  let var = oneofl [ "x"; "y"; "z" ] in
  let term =
    oneof [ map (fun v -> Var v) var; map (fun c -> Cst c) gen_const ]
  in
  let atom =
    oneof
      [ map2 (fun t1 t2 -> Atom ("R", [ t1; t2 ])) term term;
        map2 (fun t1 t2 -> Atom ("S", [ t1; t2 ])) term term;
        map (fun t -> Atom ("T", [ t ])) term;
        map (fun t -> Atom ("U", [ t ])) term;
        map2 (fun t1 t2 -> Eq (t1, t2)) term term ]
  in
  let rec build n =
    if n <= 0 then atom
    else
      let sub = build (n - 1) in
      oneof
        [ atom;
          map2 (fun f g -> And (f, g)) sub sub;
          map2 (fun f g -> Or (f, g)) sub sub;
          map2 (fun x f -> Exists (x, f)) var sub;
          map2 (fun x f -> Forall (x, f)) var sub ]
  in
  sized_size (int_range 0 3) build

let fo_print f = Incdb_logic.Fo.to_string f

(* all assignments of the free variables of a formula over the active
   domain of a database *)
let fo_assignments db phi =
  let vars = Incdb_logic.Fo.free_vars phi in
  let domain = Database.active_domain db in
  let rec go = function
    | [] -> [ [] ]
    | x :: rest ->
      let tails = go rest in
      List.concat_map (fun d -> List.map (fun tl -> (x, d) :: tl) tails) domain
  in
  go vars
