(* Frozen reference implementations for differential tests.

   These are the world loop and the c-table dedup as they stood before
   possible worlds were made cheap (compile-once, the valuation builder,
   world-invariant subplans, hashed dedup) and before cert⊥ was decided
   on the relations the query reads.  They are kept verbatim, and
   nothing in the library calls them: each world is built by valuing
   every tuple of every relation, over every null of the database, each
   world recompiles the query through [Eval.run], and [normalize] dedups
   with a quadratic [List.exists] scan.  test_worlds.ml checks that the
   library returns the same answers, the same ctuple lists and, on the
   relations the query reads, the same guard charges.

   [brute_force_cert] is independent of all of them: it tries every
   valuation and every candidate tuple, with no canonical enumeration. *)

open Incdb_relational
open Incdb_certain
open Incdb_ctables

(* ------------------------------------------------------------------ *)
(* c-tables                                                            *)
(* ------------------------------------------------------------------ *)

let normalize ct =
  let open Ctable in
  let not_false c = Cond.ground c.cond <> Incdb_logic.Kleene.F in
  let rec dedup seen = function
    | [] -> List.rev seen
    | c :: rest ->
      if List.exists (fun c' -> c = c') seen then dedup seen rest
      else dedup (c :: seen) rest
  in
  of_list (arity ct) (dedup [] (List.filter not_false (to_list ct)))

(* Ceval's strategies, sequential, over the frozen [normalize] *)
let propagate (c : Ctable.ctuple) =
  match Cond.forced_equalities c.cond with
  | [] -> c
  | subst -> { c with tuple = Cond.substitute_tuple subst c.tuple }

let ground_ctuple (c : Ctable.ctuple) =
  { c with cond = Cond.of_kleene (Cond.ground c.cond) }

let aware_finalize (c : Ctable.ctuple) =
  let simplified = Cond.simplify c.cond in
  let c = propagate { c with cond = simplified } in
  { c with cond = Cond.of_kleene (Cond.ground simplified) }

let post_each_op strategy ct =
  let app f = normalize (Ctable.map ~arity:(Ctable.arity ct) f ct) in
  match (strategy : Ceval.strategy) with
  | Eager -> app ground_ctuple
  | Semi_eager -> app (fun c -> ground_ctuple (propagate c))
  | Lazy | Aware -> normalize ct

let post_diff strategy ct =
  let app f = normalize (Ctable.map ~arity:(Ctable.arity ct) f ct) in
  match (strategy : Ceval.strategy) with
  | Eager -> app ground_ctuple
  | Semi_eager | Lazy -> app (fun c -> ground_ctuple (propagate c))
  | Aware -> normalize ct

let post_final strategy ct =
  let app f = normalize (Ctable.map ~arity:(Ctable.arity ct) f ct) in
  match (strategy : Ceval.strategy) with
  | Eager -> app ground_ctuple
  | Semi_eager | Lazy -> app (fun c -> ground_ctuple (propagate c))
  | Aware -> app aware_finalize

let ceval strategy db q =
  let post = post_each_op strategy in
  let schema = Database.schema db in
  ignore (Algebra.arity schema q);
  let q = Classes.expand_division schema q in
  let rec go q =
    match q with
    | Algebra.Rel name -> Ctable.of_relation (Database.relation db name)
    | Algebra.Lit (k, tuples) -> Ctable.of_relation (Relation.of_list k tuples)
    | Algebra.Select (theta, q1) ->
      let ct = go q1 in
      post
        (Ctable.map ~arity:(Ctable.arity ct)
           (fun c ->
             { c with
               cond = Cond.And (c.cond, Cond.of_selection theta c.tuple) })
           ct)
    | Algebra.Project (idxs, q1) ->
      let ct = go q1 in
      post
        (Ctable.map ~arity:(List.length idxs)
           (fun c -> { c with tuple = Tuple.project idxs c.tuple })
           ct)
    | Algebra.Product (q1, q2) ->
      let ct1 = go q1 and ct2 = go q2 in
      let k = Ctable.arity ct1 + Ctable.arity ct2 in
      let rows2 = Ctable.to_list ct2 in
      let pairs =
        List.concat_map
          (fun (c1 : Ctable.ctuple) ->
            List.map
              (fun (c2 : Ctable.ctuple) ->
                {
                  Ctable.tuple = Tuple.concat c1.tuple c2.tuple;
                  cond = Cond.And (c1.cond, c2.cond);
                })
              rows2)
          (Ctable.to_list ct1)
      in
      post (Ctable.of_list k pairs)
    | Algebra.Union (q1, q2) -> post (Ctable.append (go q1) (go q2))
    | Algebra.Inter (q1, q2) ->
      let ct1 = go q1 and ct2 = go q2 in
      let k = Ctable.arity ct1 in
      let rows2 = Ctable.to_list ct2 in
      let pairs =
        List.concat_map
          (fun (c1 : Ctable.ctuple) ->
            List.filter_map
              (fun (c2 : Ctable.ctuple) ->
                if Tuple.unifiable c1.tuple c2.tuple then
                  Some
                    {
                      Ctable.tuple = c1.tuple;
                      cond =
                        Cond.And
                          ( Cond.And (c1.cond, c2.cond),
                            Cond.tuple_eq c1.tuple c2.tuple );
                    }
                else None)
              rows2)
          (Ctable.to_list ct1)
      in
      post (Ctable.of_list k pairs)
    | Algebra.Diff (q1, q2) ->
      let ct1 = go q1 and ct2 = go q2 in
      let k = Ctable.arity ct1 in
      let rows2 = Ctable.to_list ct2 in
      let subtracted =
        List.map
          (fun (c1 : Ctable.ctuple) ->
            let guards =
              List.filter_map
                (fun (c2 : Ctable.ctuple) ->
                  if Tuple.unifiable c1.tuple c2.tuple then
                    Some
                      (Cond.Not
                         (Cond.And (c2.cond, Cond.tuple_eq c1.tuple c2.tuple)))
                  else None)
                rows2
            in
            let cond =
              List.fold_left (fun acc g -> Cond.And (acc, g)) c1.cond guards
            in
            { c1 with cond })
          (Ctable.to_list ct1)
      in
      post_diff strategy (Ctable.of_list k subtracted)
    | Algebra.Division _ | Algebra.Dom _ | Algebra.Anti_unify_join _ ->
      invalid_arg "Oracle.ceval: outside the c-table fragment"
  in
  post_final strategy (go q)

(* ------------------------------------------------------------------ *)
(* cert⊥ by one full valuation and one Eval.run per world              *)
(* ------------------------------------------------------------------ *)

let apply_db v db =
  Database.map_relations (fun _ r -> Valuation.apply_relation v r) db

let naive_run_with ~run db =
  let nulls = Database.nulls db in
  let v = Valuation.bijective_fresh ~nulls in
  let answers = run (apply_db v db) in
  Relation.map ~arity:(Relation.arity answers)
    (Array.map (Valuation.inverse_fresh ~nulls))
    answers

let pattern_consts ~query_consts db =
  let db_consts = Database.consts db in
  let extra =
    List.filter
      (fun c -> not (List.exists (Value.equal_const c) db_consts))
      query_consts
  in
  db_consts @ extra

let canonical_valuations ~query_consts db =
  let consts = pattern_consts ~query_consts db in
  let nulls = Database.nulls db in
  Valuation.canonical_seq ~nulls ~consts

let world_chunk = 32

let world_stop stop acc =
  Guard.inject "world.chunk";
  stop acc

let cert_with_nulls ?(pool = Pool.auto ()) ?guard ~run ~query_consts db =
  let candidates = naive_run_with ~run db in
  Pool.fold_seq_chunked pool ~chunk:world_chunk ?guard
    ~map:(fun v -> (v, run (apply_db v db)))
    ~combine:(fun cand (v, answer) ->
      Relation.filter
        (fun t -> Relation.mem (Valuation.apply_tuple v t) answer)
        cand)
    ~stop:(world_stop Relation.is_empty) ~init:candidates
    (canonical_valuations ~query_consts db)

let keep_complete r = Relation.filter Tuple.is_complete r

let cert_intersection_direct ?(pool = Pool.auto ()) ?guard ~run ~query_consts
    db =
  let allowed = pattern_consts ~query_consts db in
  let over_allowed t =
    List.for_all
      (fun c -> List.exists (Value.equal_const c) allowed)
      (Tuple.consts t)
  in
  let world_answer v =
    Relation.filter over_allowed (keep_complete (run (apply_db v db)))
  in
  match canonical_valuations ~query_consts db () with
  | Seq.Nil -> assert false
  | Seq.Cons (first, rest) ->
    Pool.fold_seq_chunked pool ~chunk:world_chunk ?guard ~map:world_answer
      ~combine:Relation.inter ~stop:(world_stop Relation.is_empty)
      ~init:(world_answer first) rest

let ra_run ?pool ?guard q db = Eval.run ?pool ?guard db q

let cert_with_nulls_ra ?pool ?guard db q =
  cert_with_nulls ?pool ?guard ~run:(ra_run ?pool ?guard q)
    ~query_consts:(Algebra.consts q) db

let cert_intersection_ra ?pool ?guard db q =
  keep_complete (cert_with_nulls_ra ?pool ?guard db q)

let cert_with_nulls_fo ?pool ?guard db phi =
  cert_with_nulls ?pool ?guard
    ~run:(fun db ->
      Incdb_logic.Semantics.certain_true Incdb_logic.Semantics.all_bool db phi)
    ~query_consts:(Incdb_logic.Fo.consts phi) db

(* Q⁺ as translated, every null test kept *)
let certain_sub ?(planner = true) ?(pool = Pool.auto ()) db q =
  Eval.run ~planner ~pool db (Scheme_pm.translate_plus (Database.schema db) q)

let cert_with_fallback ?(planner = true) ?(pool = Pool.auto ()) ?guard db q =
  match
    cert_with_nulls ~pool ?guard
      ~run:(fun w -> Eval.run ~planner ~pool ?guard w q)
      ~query_consts:(Algebra.consts q) db
  with
  | exact -> Certainty.Exact exact
  | exception Guard.Interrupt _ ->
    Certainty.Approximate (certain_sub ~planner ~pool db q)

(* ------------------------------------------------------------------ *)
(* Classify.classify_exact and Aggregate's world loop, one Eval.run    *)
(* per world                                                           *)
(* ------------------------------------------------------------------ *)

let classify_exact db q tuple =
  let query_consts = Algebra.consts q in
  let worlds = Certainty.canonical_worlds ~query_consts db in
  let hits =
    List.map
      (fun (v, world) ->
        Relation.mem (Valuation.apply_tuple v tuple) (Eval.run world q))
      worlds
  in
  if List.for_all Fun.id hits then Classify.Certain
  else if List.exists Fun.id hits then Classify.Possible
  else Classify.Impossible

let world_answers db q =
  let query_consts = Algebra.consts q in
  List.map
    (fun (_, world) -> Eval.run world q)
    (Certainty.canonical_worlds ~query_consts db)

let count_range db q =
  match List.map Relation.cardinal (world_answers db q) with
  | [] -> assert false
  | c :: cs ->
    (List.fold_left min c cs, List.fold_left max c cs)

let column_int t col =
  match t.(col) with
  | Value.Const (Value.Int n) -> Some n
  | Value.Const (Value.Str _) | Value.Const (Value.Gen _) ->
    raise (Aggregate.Unsupported "Aggregate: non-integer constant in column")
  | Value.Null _ -> None

let range db q ~col (op : Aggregate.op) : Aggregate.range =
  let k = Algebra.arity (Database.schema db) q in
  if col < 0 || col >= k then
    raise
      (Aggregate.Unsupported
         (Printf.sprintf "Aggregate: column %d of arity %d" col k));
  let possible = Scheme_pm.possible_sup db q in
  let has_null =
    Relation.exists (fun t -> Value.is_null t.(col)) possible
  in
  Relation.iter (fun t -> ignore (column_int t col)) possible;
  if has_null then begin
    let certain = Scheme_pm.certain_sub db q in
    let certain_values =
      Relation.fold
        (fun t acc ->
          match column_int t col with Some n -> n :: acc | None -> acc)
        certain []
    in
    let empty_possible = Relation.is_empty certain in
    match op with
    | Sum -> { lo = Neg_inf; hi = Pos_inf; empty_possible = false }
    | Min ->
      let hi =
        match certain_values with
        | [] -> Aggregate.Pos_inf
        | v :: vs -> Fin (List.fold_left min v vs)
      in
      { lo = Neg_inf; hi; empty_possible }
    | Max ->
      let lo =
        match certain_values with
        | [] -> Aggregate.Neg_inf
        | v :: vs -> Fin (List.fold_left max v vs)
      in
      { lo; hi = Pos_inf; empty_possible }
  end
  else begin
    let answers = world_answers db q in
    let aggregate_world r =
      let values =
        Relation.fold
          (fun t acc ->
            match column_int t col with
            | Some n -> n :: acc
            | None -> acc)
          r []
      in
      match op, values with
      | Sum, vs -> Some (List.fold_left ( + ) 0 vs)
      | (Min | Max), [] -> None
      | Min, v :: vs -> Some (List.fold_left min v vs)
      | Max, v :: vs -> Some (List.fold_left max v vs)
    in
    let results = List.map aggregate_world answers in
    let empty_possible = List.exists (fun r -> r = None) results in
    let values = List.filter_map Fun.id results in
    match values with
    | [] ->
      (match op with
       | Sum -> { lo = Fin 0; hi = Fin 0; empty_possible = false }
       | Min | Max -> { lo = Pos_inf; hi = Neg_inf; empty_possible = true })
    | v :: vs ->
      {
        lo = Fin (List.fold_left min v vs);
        hi = Fin (List.fold_left max v vs);
        empty_possible;
      }
  end

(* ------------------------------------------------------------------ *)
(* cert⊥ by brute force                                                *)
(* ------------------------------------------------------------------ *)

(* every map from [nulls] into [values] *)
let rec all_valuations nulls values =
  match nulls with
  | [] -> [ [] ]
  | n :: rest ->
    List.concat_map
      (fun v -> List.map (fun tail -> (n, v) :: tail) (all_valuations rest values))
      values

(* every tuple of arity [k] over [values] *)
let rec all_tuples k values =
  if k = 0 then [ [] ]
  else
    List.concat_map
      (fun v -> List.map (fun tail -> v :: tail) (all_tuples (k - 1) values))
      values

(* [k] constants in every gap of the sorted [consts], as many as fit:
   [k] below the least, up to [k] after each constant before the next,
   [k] above the greatest *)
let order_witnesses k consts =
  let sorted = List.sort_uniq Value.compare_const consts in
  let next = function
    | Value.Int n -> Value.Int (n + 1)
    | Value.Str s -> Value.Str (s ^ "\000")
    | Value.Gen _ -> invalid_arg "order_witnesses"
  in
  let rec chain c n =
    let w = next c in
    if n = 0 || List.exists (Value.equal_const w) sorted then []
    else w :: chain w (n - 1)
  in
  let below =
    match sorted with
    | Value.Int n :: _ -> List.init k (fun i -> Value.Int (n - 1 - i))
    | _ -> List.init k (fun i -> Value.Int i)
  in
  below @ List.concat_map (fun c -> chain c k) sorted

(* cert⊥(Q, D) from Definition 3.9, over the whole database: t̄ is
   certain iff v(t̄) ∈ Q(v(D)) for every valuation v.  By genericity it
   suffices to let each null range over the constants of D and of the
   query plus one fresh constant per null; every such valuation is
   tried, not one per collision pattern.  A query that compares with
   [<]/[≤] ([~order:true]) is not generic: it tells apart values by
   where they fall between the constants, so each null ranges over the
   constants and [order_witnesses], one per null in every gap, instead
   (those above the greatest constant serve as the fresh ones).
   Candidates are every tuple over the constants of D and the query and
   the nulls of D.  [run] is the query in one world. *)
let brute_force_cert ?(order = false) ~run ~query_consts db =
  let nulls = Database.nulls db in
  let consts = pattern_consts ~query_consts db in
  let fresh =
    if order then order_witnesses (List.length nulls) consts
    else List.mapi (fun i _ -> Value.Str (Printf.sprintf "fresh%d" i)) nulls
  in
  assert (
    List.for_all (fun f -> not (List.exists (Value.equal_const f) consts)) fresh);
  let worlds =
    List.map
      (fun pairs ->
        let v = Valuation.of_list pairs in
        (v, run (apply_db v db)))
      (all_valuations nulls (consts @ fresh))
  in
  let k = Relation.arity (snd (List.hd worlds)) in
  let values =
    List.map (fun c -> Value.Const c) consts @ List.map Value.null nulls
  in
  Relation.of_list k
    (List.filter
       (fun t ->
         List.for_all
           (fun (v, answer) -> Relation.mem (Valuation.apply_tuple v t) answer)
           worlds)
       (List.map Tuple.of_list (all_tuples k values)))

(* whether some selection of [q] compares with [<] or [≤] *)
let rec has_order (q : Algebra.t) =
  let rec in_condition = function
    | Condition.Lt _ | Condition.Le _ -> true
    | Condition.And (a, b) | Condition.Or (a, b) ->
      in_condition a || in_condition b
    | Condition.True | Condition.False | Condition.Is_const _ | Condition.Is_null _
    | Condition.Eq _ | Condition.Neq _ ->
      false
  in
  match q with
  | Rel _ | Lit _ | Dom _ -> false
  | Select (c, q1) -> in_condition c || has_order q1
  | Project (_, q1) -> has_order q1
  | Product (a, b) | Union (a, b) | Inter (a, b) | Diff (a, b) | Division (a, b)
  | Anti_unify_join (a, b) ->
    has_order a || has_order b
