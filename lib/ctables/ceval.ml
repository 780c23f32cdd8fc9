type strategy =
  | Eager
  | Semi_eager
  | Lazy
  | Aware

let all_strategies = [ Eager; Semi_eager; Lazy; Aware ]

let strategy_name = function
  | Eager -> "eager"
  | Semi_eager -> "semi-eager"
  | Lazy -> "lazy"
  | Aware -> "aware"

exception Unsupported of string

(* propagate the equalities forced by the condition into the tuple;
   the condition itself is kept (its truth is unchanged, and grounding
   it must still see the original unknowns) *)
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

(* per-strategy post-processing *)
let post_each_op strategy ct =
  let app f = Ctable.normalize (Ctable.map ~arity:(Ctable.arity ct) f ct) in
  match strategy with
  | Eager -> app ground_ctuple
  | Semi_eager -> app (fun c -> ground_ctuple (propagate c))
  | Lazy | Aware -> Ctable.normalize ct

let post_diff strategy ct =
  let app f = Ctable.normalize (Ctable.map ~arity:(Ctable.arity ct) f ct) in
  match strategy with
  | Eager -> app ground_ctuple
  | Semi_eager | Lazy -> app (fun c -> ground_ctuple (propagate c))
  | Aware -> Ctable.normalize ct

let post_final strategy ct =
  let app f = Ctable.normalize (Ctable.map ~arity:(Ctable.arity ct) f ct) in
  match strategy with
  | Eager -> app ground_ctuple
  | Semi_eager | Lazy -> app (fun c -> ground_ctuple (propagate c))
  | Aware -> app aware_finalize

(* The Product/Inter/Diff cases below chunk their outer loop over the
   left operand's ctuples across the pool; inner loops stay sequential
   inside a chunk.  [Pool.parallel_map] preserves input order, so the
   list handed to [Ctable.of_list] is exactly the sequential one and
   results are bit-identical on every pool size.  Inside a strategy
   task of {!eval_all} these loops run sequentially. *)
let eval_gen ?(pool = Pool.auto ()) ?cutoff ?guard ~post ~post_diff
    ~post_final ~schema ~base q =
  ignore (Algebra.arity schema q);
  let q = Incdb_certain.Classes.expand_division schema q in
  let rec go q =
    match q with
    | Algebra.Rel name -> base name
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
        List.concat
          (Pool.parallel_map ?cutoff ?guard pool
             (fun (c1 : Ctable.ctuple) ->
               List.map
                 (fun (c2 : Ctable.ctuple) ->
                   {
                     Ctable.tuple = Tuple.concat c1.tuple c2.tuple;
                     cond = Cond.And (c1.cond, c2.cond);
                   })
                 rows2)
             (Ctable.to_list ct1))
      in
      post (Ctable.of_list k pairs)
    | Algebra.Union (q1, q2) -> post (Ctable.append (go q1) (go q2))
    | Algebra.Inter (q1, q2) ->
      let ct1 = go q1 and ct2 = go q2 in
      let k = Ctable.arity ct1 in
      let rows2 = Ctable.to_list ct2 in
      let pairs =
        List.concat
          (Pool.parallel_map ?cutoff ?guard pool
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
             (Ctable.to_list ct1))
      in
      post (Ctable.of_list k pairs)
    | Algebra.Diff (q1, q2) ->
      let ct1 = go q1 and ct2 = go q2 in
      let k = Ctable.arity ct1 in
      let rows2 = Ctable.to_list ct2 in
      let subtracted =
        Pool.parallel_map ?cutoff ?guard pool
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
      post_diff (Ctable.of_list k subtracted)
    | Algebra.Division _ ->
      (* unreachable: divisions were expanded above *)
      raise (Unsupported "Ceval: division should have been expanded")
    | Algebra.Dom _ | Algebra.Anti_unify_join _ ->
      raise (Unsupported "Ceval: Dom/⋉⇑̸ are not part of the input fragment")
  in
  post_final (go q)

let db_base db name = Ctable.of_relation (Database.relation db name)

let eval ?pool ?cutoff ?guard strategy db q =
  eval_gen ?pool ?cutoff ?guard ~post:(post_each_op strategy)
    ~post_diff:(post_diff strategy) ~post_final:(post_final strategy)
    ~schema:(Database.schema db) ~base:(db_base db) q

let eval_cdb ?pool ?cutoff ?guard strategy cdb q =
  eval_gen ?pool ?cutoff ?guard ~post:(post_each_op strategy)
    ~post_diff:(post_diff strategy) ~post_final:(post_final strategy)
    ~schema:(Cdb.schema cdb) ~base:(Cdb.ctable cdb) q

let eval_symbolic ?pool ?cutoff ?guard db q =
  let id ct = Ctable.normalize ct in
  eval_gen ?pool ?cutoff ?guard ~post:id ~post_diff:id ~post_final:id
    ~schema:(Database.schema db) ~base:(db_base db) q

let eval_symbolic_cdb ?pool ?cutoff ?guard cdb q =
  let id ct = Ctable.normalize ct in
  eval_gen ?pool ?cutoff ?guard ~post:id ~post_diff:id ~post_final:id
    ~schema:(Cdb.schema cdb) ~base:(Cdb.ctable cdb) q

let certain ?pool ?cutoff ?guard strategy db q =
  Ctable.certain (eval ?pool ?cutoff ?guard strategy db q)

let possible ?pool ?cutoff ?guard strategy db q =
  Ctable.possible (eval ?pool ?cutoff ?guard strategy db q)

(* All four strategies on one query: one parallel task per strategy.
   The inner per-operator loops of each [eval] run sequentially inside
   their strategy task.  Strategy order is preserved. *)
let eval_all ?(pool = Pool.auto ()) ?cutoff ?guard db q =
  Pool.parallel_map ~cutoff:1 ?guard pool
    (fun strategy -> (strategy, eval ~pool ?cutoff ?guard strategy db q))
    all_strategies
