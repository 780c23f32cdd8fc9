exception Unsupported of string

let rec plus_of schema q =
  match q with
  | Algebra.Rel _ | Algebra.Lit _ -> q
  | Algebra.Union (q1, q2) ->
    Algebra.Union (plus_of schema q1, plus_of schema q2)
  | Algebra.Inter (q1, q2) ->
    Algebra.Inter (plus_of schema q1, plus_of schema q2)
  | Algebra.Diff (q1, q2) ->
    Algebra.Anti_unify_join (plus_of schema q1, maybe_of schema q2)
  | Algebra.Select (theta, q1) ->
    Algebra.Select (Condition.star theta, plus_of schema q1)
  | Algebra.Product (q1, q2) ->
    Algebra.Product (plus_of schema q1, plus_of schema q2)
  | Algebra.Project (alpha, q1) -> Algebra.Project (alpha, plus_of schema q1)
  | Algebra.Division _ -> plus_of schema (Classes.expand_division schema q)
  | Algebra.Dom _ | Algebra.Anti_unify_join _ ->
    raise (Unsupported "Scheme_pm: Dom/⋉⇑̸ are not part of the input fragment")

and maybe_of schema q =
  match q with
  | Algebra.Rel _ | Algebra.Lit _ -> q
  | Algebra.Union (q1, q2) ->
    Algebra.Union (maybe_of schema q1, maybe_of schema q2)
  | Algebra.Inter (q1, q2) ->
    (* a tuple can be an intersection answer in some world only if it
       unifies with a possible answer of both sides: keep the tuples of
       Q₁? that unify with some tuple of Q₂? *)
    let m1 = maybe_of schema q1 and m2 = maybe_of schema q2 in
    Algebra.Diff (m1, Algebra.Anti_unify_join (m1, m2))
  | Algebra.Diff (q1, q2) ->
    Algebra.Diff (maybe_of schema q1, plus_of schema q2)
  | Algebra.Select (theta, q1) ->
    (* the condition ¬(star(¬θ)) keeps every tuple that could satisfy θ
       in some world *)
    Algebra.Select
      (Condition.negate (Condition.star (Condition.negate theta)),
       maybe_of schema q1)
  | Algebra.Product (q1, q2) ->
    Algebra.Product (maybe_of schema q1, maybe_of schema q2)
  | Algebra.Project (alpha, q1) -> Algebra.Project (alpha, maybe_of schema q1)
  | Algebra.Division _ -> maybe_of schema (Classes.expand_division schema q)
  | Algebra.Dom _ | Algebra.Anti_unify_join _ ->
    raise (Unsupported "Scheme_pm: Dom/⋉⇑̸ are not part of the input fragment")

let translate_plus = plus_of
let translate_maybe = maybe_of

(* the translations guard every comparison with null tests; on the
   database at hand those on null-free columns are constant, and
   dropping them gives the planner back its hash equi-joins *)
let run ?planner ?pool db q =
  Eval.run ?planner ?pool db (Nullable.prune_on db q)

let certain_sub ?planner ?pool db q =
  run ?planner ?pool db (translate_plus (Database.schema db) q)

let possible_sup ?planner ?pool db q =
  run ?planner ?pool db (translate_maybe (Database.schema db) q)
