(** Conditional evaluation of relational algebra on c-tables, and the
    four approximation strategies of Greco, Molinaro & Trubitsyna [36]
    (Theorem 4.9).

    The database is first converted to a conditional database where all
    conditions are [True]; relational algebra operators then combine
    conditions (e.g. Cartesian product conjoins them; difference
    subtracts by negated matching conditions).  The strategies differ in
    {e when} conditions are grounded to t/f/u and when equalities forced
    by a condition are propagated into the tuple:

    - {b Eager}: ground immediately after every operator;
    - {b Semi_eager}: like eager, but first propagate equalities
      (⟨⊥₂, ⊥₁=c ∧ ⊥₁=⊥₂⟩ becomes ⟨c, u⟩ rather than ⟨⊥₂, u⟩);
    - {b Lazy}: propagate and ground only at difference operators and at
      the end;
    - {b Aware}: keep conditions fully symbolic and ground only at the
      very end, after the minimal rewriting {!Cond.simplify} — this lets
      tautologies like [A = 2 ∨ A ≠ 2] be recognised as certain.

    All four have polynomial data complexity and correctness guarantees:
    Evalₜ(Q, D) ⊆ cert⊥(Q, D).  The eager strategy coincides with the
    scheme of Figure 2(b): Evalᵉₜ = Q⁺ and Evalᵉₚ = Q?. *)

type strategy =
  | Eager
  | Semi_eager
  | Lazy
  | Aware

val all_strategies : strategy list
val strategy_name : strategy -> string

exception Unsupported of string

(** [eval strategy db q] evaluates [q] conditionally.  Division is
    pre-expanded; [Dom]/[Anti_unify_join] are rejected.

    [pool] (default {!Pool.auto}) chunks the outer ctuple loop of
    every Product/Inter/Diff operator across the pool; chunk results
    are recombined in input order, so evaluation is bit-identical to
    [~pool:None] on every pool size.  [cutoff] is the operand size at
    or below which an operator stays sequential; [guard] is checked at
    every chunk boundary.
    @raise Algebra.Type_error if [q] is ill-typed. *)
val eval :
  ?pool:Pool.t option ->
  ?cutoff:int ->
  ?guard:Guard.t ->
  strategy ->
  Database.t ->
  Algebra.t ->
  Ctable.t

(** [eval_cdb strategy cdb q] evaluates directly on a {e conditional}
    database — the native setting of [36]; input conditions are
    conjoined into the derived ones. *)
val eval_cdb :
  ?pool:Pool.t option ->
  ?cutoff:int ->
  ?guard:Guard.t ->
  strategy ->
  Cdb.t ->
  Algebra.t ->
  Ctable.t

(** [eval_all db q] evaluates [q] under all four strategies — one
    parallel task per strategy, in [all_strategies] order.  The
    per-operator loops of each strategy's evaluation run sequentially
    inside its strategy task.  Results are bit-identical to four
    sequential {!eval} calls. *)
val eval_all :
  ?pool:Pool.t option ->
  ?cutoff:int ->
  ?guard:Guard.t ->
  Database.t ->
  Algebra.t ->
  (strategy * Ctable.t) list

(** [eval_symbolic db q] performs conditional evaluation with no
    grounding at all: the resulting c-table is an {e exact}
    representation of the query's answers — c-tables are a strong
    representation system for relational algebra (Imieliński & Lipski),
    i.e. the c-table denotes Q(v(D)) in every world v.  Used as the
    reference point for the four approximating strategies. *)
val eval_symbolic :
  ?pool:Pool.t option -> ?cutoff:int -> ?guard:Guard.t ->
  Database.t -> Algebra.t -> Ctable.t

(** [eval_symbolic_cdb cdb q] — symbolic (exact) evaluation on a
    conditional database: the result c-table denotes Q of the
    instantiated database in every world of [cdb]. *)
val eval_symbolic_cdb :
  ?pool:Pool.t option -> ?cutoff:int -> ?guard:Guard.t ->
  Cdb.t -> Algebra.t -> Ctable.t

(** [certain strategy db q] is Eval⋆ₜ(Q, D): a sound under-approximation
    of cert⊥(Q, D). *)
val certain :
  ?pool:Pool.t option -> ?cutoff:int -> ?guard:Guard.t ->
  strategy -> Database.t -> Algebra.t -> Relation.t

(** [possible strategy db q] is Eval⋆ₚ(Q, D). *)
val possible :
  ?pool:Pool.t option -> ?cutoff:int -> ?guard:Guard.t ->
  strategy -> Database.t -> Algebra.t -> Relation.t
