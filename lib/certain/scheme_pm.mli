(** The approximation scheme of [37] (Guagliardo & Libkin, PODS 2016) —
    Figure 2(b).

    A relational algebra query [Q] is translated into a pair
    [(Q⁺, Q?)] where Q⁺ under-approximates certain answers and Q?
    over-approximates possible answers (Theorem 4.7):

    Q⁺(D) ⊆ cert⊥(Q, D)   and   v(Q⁺(D)) ⊆ Q(v(D)) ⊆ v(Q?(D))

    for every valuation [v].  Unlike the scheme of Figure 2(a), no
    Cartesian powers of the domain are materialised: the only new
    operator is the unification anti-semijoin in the rule for
    difference, so Q⁺ runs with a 1–4% overhead over plain evaluation
    on benchmark workloads (reproduced in benchmark E2).

    Under bag semantics the same translation bounds the minimal
    multiplicity: #(ā, Q⁺(D)) ≤ □Q(D, ā) ≤ #(ā, Q?(D)) (Theorem 4.8);
    see {!Bag_bounds}.

    Intersections use the sound rules (Q₁∩Q₂)⁺ = Q₁⁺ ∩ Q₂⁺ and
    (Q₁∩Q₂)? = Q₁? (any upper bound of Q₁ works); division is handled
    by pre-expansion. *)

exception Unsupported of string

(** [translate_plus schema q] is Q⁺.
    @raise Unsupported on [Dom]/[Anti_unify_join] in the input. *)
val translate_plus : Schema.t -> Algebra.t -> Algebra.t

(** [translate_maybe schema q] is Q?. *)
val translate_maybe : Schema.t -> Algebra.t -> Algebra.t

(** [certain_sub ?planner ?pool db q] evaluates Q⁺ on [D].  [planner]
    (default [true]) and [pool] are forwarded to {!Eval.run}: the
    physical planner turns the translation's anti-semijoins and
    equi-joins into hash operators, and the pool runs them
    partition-parallel.  The translation's [null]/[const] tests on
    columns that hold no null on [D] are pruned first
    ({!Nullable.prune_on}): the answer is the same, and a guarded
    equi-join is a hash join again. *)
val certain_sub :
  ?planner:bool -> ?pool:Pool.t option -> Database.t -> Algebra.t -> Relation.t

(** [possible_sup ?planner ?pool db q] evaluates Q? on [D], pruned
    like {!certain_sub}. *)
val possible_sup :
  ?planner:bool -> ?pool:Pool.t option -> Database.t -> Algebra.t -> Relation.t
