(** Certainty under bag semantics (Section 4.2, "Bag semantics").

    Under bags a tuple is not simply certain or not: it has a range of
    multiplicities across possible worlds,

    □Q(D, ā) = min over valuations v of #(v(ā), Q(v(D)))
    ◇Q(D, ā) = max over valuations v of #(v(ā), Q(v(D)))

    (equations (6a)/(6b)).  Both are computed exactly here by canonical
    valuation enumeration (exponential — ◇Q is intractable already for
    base relations under the scheme of Figure 2(a), see [20]), and
    approximated in polynomial time by the bag evaluation of the
    (Q⁺, Q?) translations, which satisfies

    #(ā, Q⁺(D)) ≤ □Q(D, ā) ≤ #(ā, Q?(D))      (Theorem 4.8). *)

(** How a valuation turns a bag instance into a possible world: [`Sum]
    adds the multiplicities of merged tuples (the default); [`Collapse]
    keeps their maximum — the two readings Section 6 contrasts. *)
type merge = [ `Sum | `Collapse ]

(** [box db q tuple] is □Q(D, ā): the guaranteed multiplicity.

    [pool] (default {!Pool.auto}) spreads the per-world multiplicity
    sweep across the pool — one task per canonical valuation, results
    recombined in enumeration order, so the bounds are bit-identical to
    [~pool:None] on every pool size.  [guard] is checked at every chunk
    boundary and inside each world's bag evaluation.
    @raise Bag_eval.Unsupported on division. *)
val box :
  ?pool:Pool.t option -> ?guard:Guard.t -> ?merge:merge ->
  Database.t -> Algebra.t -> Tuple.t -> int

(** [diamond db q tuple] is ◇Q(D, ā): the maximal possible
    multiplicity.  Parallelised like {!box}. *)
val diamond :
  ?pool:Pool.t option -> ?guard:Guard.t -> ?merge:merge ->
  Database.t -> Algebra.t -> Tuple.t -> int

(** [lower_bound db q] is the bag Q⁺(D): for every ā,
    #(ā, Q⁺(D)) ≤ □Q(D, ā). *)
val lower_bound : Database.t -> Algebra.t -> Bag_relation.t

(** [upper_bound db q] is the bag Q?(D): for every ā,
    □Q(D, ā) ≤ #(ā, Q?(D)). *)
val upper_bound : Database.t -> Algebra.t -> Bag_relation.t

(** [certain_multiplicity_one db q tuple] holds iff □Q(D, ā) ≥ 1; under
    set semantics this says ā ∈ cert⊥(Q, D). *)
val certain_multiplicity_one :
  ?pool:Pool.t option -> ?guard:Guard.t ->
  Database.t -> Algebra.t -> Tuple.t -> bool
