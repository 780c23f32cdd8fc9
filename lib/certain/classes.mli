(** Syntactic query classes for which naive evaluation is exact
    (Section 4.1, Theorem 4.4).

    - {b positive} relational algebra: σ, π, ×, ∪ with selection
      conditions free of ≠ (and of null-tests): equivalent to unions of
      conjunctive queries; naive evaluation computes cert⊥ under both
      CWA and OWA.
    - {b Pos∀G}: positive relational algebra extended with division by
      a base relation (or by a subquery that is itself positive — we
      accept the more liberal variant and record it); corresponds to
      positive formulae with universal guards; naive evaluation
      computes cert⊥ under CWA. *)

(** [is_positive q] — positive RA (UCQ-equivalent). *)
val is_positive : Algebra.t -> bool

(** [is_ucq q] — synonym of {!is_positive}. *)
val is_ucq : Algebra.t -> bool

(** [naive_exact facts q] — the instance-aware positive class: [q] is
    built from σ, π, ×, ∪, ∩, base relations and null-free literals, and
    every [≠], [<], [≤], [null]/[const] atom of its selections reads
    only columns that {!Nullable.columns} marks null-free on the
    database of [facts].  On that database naive evaluation is exact:
    cert⊥(Q, D) = Qnaive(D) (Theorem 4.4).  The homomorphism argument
    still holds, because those atoms read only constants and every
    valuation keeps constants; and with injective fresh constants the
    naive world answers exactly the naive tuples.  It accepts every
    {!is_positive} query whose literals are complete. *)
val naive_exact : Nullable.t -> Algebra.t -> bool

(** [is_pos_forall_g q] — positive RA + division with positive divisor. *)
val is_pos_forall_g : Algebra.t -> bool

(** [condition_is_positive θ] — no ≠, no null(·) test.  [const]
    tests are harmless (they cannot distinguish possible worlds on
    complete databases) but excluded for strictness. *)
val condition_is_positive : Condition.t -> bool

(** [dedup_projections schema q] rewrites every projection whose index
    list repeats a column — e.g. π\[0,0\] — into an equivalent query
    whose projections are duplicate-free: the repeated slots are
    re-derived by crossing with single-column projections of the same
    subquery and equating them.  The translation Qᶠ of Figure 2(a) is
    complete on complete databases only for duplicate-free projections
    (its projection rule reasons about tuple {e extensions}), so
    {!Scheme_tf} normalises its input with this pass. *)
val dedup_projections : Schema.t -> Algebra.t -> Algebra.t

(** [expand_division schema q] rewrites every division node into the
    classical σπ×− form:
    R ÷ S  =  π_head(R) − π_head( (π_head(R) × S) − R ),
    yielding a query in the fragment handled by the approximation
    schemes of Figure 2.  The schema is needed to compute arities.
    @raise Algebra.Type_error if [q] is ill-typed. *)
val expand_division : Schema.t -> Algebra.t -> Algebra.t
