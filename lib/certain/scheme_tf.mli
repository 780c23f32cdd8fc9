(** The approximation scheme of [51] (Libkin, TODS 2016) — Figure 2(a).

    A relational algebra query [Q] is translated into a pair
    [(Qᵗ, Qᶠ)] with correctness guarantees (Theorem 4.6):

    - Qᵗ(D) ⊆ cert⊥(Q, D) — tuples certainly in the answer;
    - Qᶠ(D) ⊆ cert⊥(¬Q, D) — tuples certainly {e not} in the answer.

    Both have AC⁰ data complexity and Qᵗ coincides with Q on complete
    databases, but the Qᶠ side materialises Cartesian powers of the
    active domain ([Dom]), which makes the scheme prohibitively
    expensive in practice — simple queries run out of memory on
    instances with fewer than 10³ tuples.  Benchmark E2 reproduces this
    blow-up against the scheme of Figure 2(b) ({!Scheme_pm}).

    Supported input fragment: σ, π, ×, ∪, ∩, − and literals; division
    is handled by pre-expansion ({!Classes.expand_division}). *)

exception Unsupported of string

(** [translate_t schema q] is Qᵗ.
    @raise Unsupported on [Dom] or [Anti_unify_join] in the input. *)
val translate_t : Schema.t -> Algebra.t -> Algebra.t

(** [translate_f schema q] is Qᶠ. *)
val translate_f : Schema.t -> Algebra.t -> Algebra.t

(** [certain_sub ?planner ?pool db q] evaluates Qᵗ on [D] (with the
    constants of [q] included in [Dom]): a sound under-approximation of
    cert⊥(Q, D).  [planner] (default [true]) and [pool] are forwarded
    to {!Eval.run}; the planner's subplan memoization pays off here
    because the translation duplicates subqueries.  Null tests on
    columns that hold no null on [D] are pruned first
    ({!Nullable.prune_on}); the answer is the same. *)
val certain_sub :
  ?planner:bool -> ?pool:Pool.t option -> Database.t -> Algebra.t -> Relation.t

(** [certainly_false ?planner ?pool db q] evaluates Qᶠ on [D]: tuples
    that are not answers in any possible world, pruned like
    {!certain_sub}. *)
val certainly_false :
  ?planner:bool -> ?pool:Pool.t option -> Database.t -> Algebra.t -> Relation.t
