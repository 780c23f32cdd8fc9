(** Naive evaluation (Section 4.1).

    Nulls are treated as fresh constants: pick a bijective valuation [v]
    sending the nulls of [D] to invented constants disjoint from
    [dom(D)] and from the constants of the query, evaluate the query on
    the complete database [v(D)], and map the answers back through
    [v⁻¹]:

    Qnaive(D) = v⁻¹( Q(v(D)) ).

    For generic queries the result does not depend on the choice of
    [v].  Naive evaluation computes certain answers with nulls exactly
    for unions of conjunctive queries under OWA and for Pos∀G under CWA
    (Theorem 4.4), and more generally for queries preserved under the
    homomorphisms defining the semantics (Theorem 4.3). *)

(** [run_with ?builder ~run db] applies naive evaluation to the abstract
    query executor [run] (any function evaluating a query on a
    database).  [builder], when given, must be
    [Valuation.builder db]; callers that value [db] again pass the one
    they hold. *)
val run_with :
  ?builder:Valuation.builder ->
  run:(Database.t -> Relation.t) ->
  Database.t ->
  Relation.t

(** [run db q] is naive evaluation of a relational algebra query. *)
val run : Database.t -> Algebra.t -> Relation.t

(** [run_fo db φ] is naive evaluation of an FO formula: the Boolean
    two-valued semantics on [v(D)], answers mapped back.  The answer
    relation has one column per free variable of [φ], in the order of
    {!Fo.free_vars}. *)
val run_fo : Database.t -> Fo.t -> Relation.t

(** [boolean db q] for 0-ary queries. *)
val boolean : Database.t -> Algebra.t -> bool
