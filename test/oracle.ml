(* Frozen reference implementations for differential tests.

   These are the world loop and the c-table dedup as they stood before
   possible worlds were made cheap (compile-once, the valuation builder,
   world-invariant subplans, hashed dedup).  They are kept verbatim, and
   nothing in the library calls them: each world is built by valuing
   every tuple of every relation, each world recompiles the query
   through [Eval.run], and [normalize] dedups with a quadratic
   [List.exists] scan.  test_worlds.ml checks that the library returns
   the same answers, the same ctuple lists and the same guard charges. *)

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

let cert_with_fallback ?(planner = true) ?(pool = Pool.auto ()) ?guard db q =
  match
    cert_with_nulls ~pool ?guard
      ~run:(fun w -> Eval.run ~planner ~pool ?guard w q)
      ~query_consts:(Algebra.consts q) db
  with
  | exact -> Certainty.Exact exact
  | exception Guard.Interrupt _ ->
    Certainty.Approximate (Scheme_pm.certain_sub ~planner ~pool db q)
