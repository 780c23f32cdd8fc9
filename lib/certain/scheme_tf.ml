exception Unsupported of string

(* The two translations are mutually recursive, following Figure 2(a)
   literally.  [ar] computes arities of subqueries of the *original*
   query, which is well-typed whenever the caller's query is. *)
let rec t_of schema q =
  match q with
  | Algebra.Rel _ | Algebra.Lit _ -> q
  | Algebra.Union (q1, q2) -> Algebra.Union (t_of schema q1, t_of schema q2)
  | Algebra.Inter (q1, q2) -> Algebra.Inter (t_of schema q1, t_of schema q2)
  | Algebra.Diff (q1, q2) -> Algebra.Inter (t_of schema q1, f_of schema q2)
  | Algebra.Select (theta, q1) ->
    Algebra.Select (Condition.star theta, t_of schema q1)
  | Algebra.Product (q1, q2) ->
    Algebra.Product (t_of schema q1, t_of schema q2)
  | Algebra.Project (alpha, q1) -> Algebra.Project (alpha, t_of schema q1)
  | Algebra.Division _ -> t_of schema (Classes.expand_division schema q)
  | Algebra.Dom _ | Algebra.Anti_unify_join _ ->
    raise (Unsupported "Scheme_tf: Dom/⋉⇑̸ are not part of the input fragment")

and f_of schema q =
  let ar q = Algebra.arity schema q in
  match q with
  | Algebra.Rel _ | Algebra.Lit _ ->
    Algebra.Anti_unify_join (Algebra.Dom (ar q), q)
  | Algebra.Union (q1, q2) -> Algebra.Inter (f_of schema q1, f_of schema q2)
  | Algebra.Inter (q1, q2) -> Algebra.Union (f_of schema q1, f_of schema q2)
  | Algebra.Diff (q1, q2) -> Algebra.Union (f_of schema q1, t_of schema q2)
  | Algebra.Select (theta, q1) ->
    Algebra.Union
      ( f_of schema q1,
        Algebra.Select (Condition.star (Condition.negate theta),
                        Algebra.Dom (ar q1)) )
  | Algebra.Product (q1, q2) ->
    Algebra.Union
      ( Algebra.Product (f_of schema q1, Algebra.Dom (ar q2)),
        Algebra.Product (Algebra.Dom (ar q1), f_of schema q2) )
  | Algebra.Project (alpha, q1) ->
    let k = ar q1 in
    Algebra.Diff
      ( Algebra.Project (alpha, f_of schema q1),
        Algebra.Project (alpha, Algebra.Diff (Algebra.Dom k, f_of schema q1)) )
  | Algebra.Division _ -> f_of schema (Classes.expand_division schema q)
  | Algebra.Dom _ | Algebra.Anti_unify_join _ ->
    raise (Unsupported "Scheme_tf: Dom/⋉⇑̸ are not part of the input fragment")

(* the projection rule of Qᶠ is only complete for duplicate-free
   projection lists (it reasons about tuple extensions), so normalise
   the input first; division is handled inside the recursion *)
let translate_t schema q = t_of schema (Classes.dedup_projections schema q)

let translate_f schema q = f_of schema (Classes.dedup_projections schema q)

(* null tests on columns that hold no null on [db] are constant there,
   so they are pruned before the plan is built *)
let run ?planner ?pool db q translated =
  Eval.run ?planner ?pool ~extra_consts:(Algebra.consts q) db
    (Nullable.prune_on db translated)

let certain_sub ?planner ?pool db q =
  run ?planner ?pool db q (translate_t (Database.schema db) q)

let certainly_false ?planner ?pool db q =
  run ?planner ?pool db q (translate_f (Database.schema db) q)
