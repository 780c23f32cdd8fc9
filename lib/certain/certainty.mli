(** Exact certain answers (Section 3.2): certain answers with nulls
    cert⊥ and intersection-based certain answers cert∩, both under the
    closed-world semantics of the source database.

    Both are computed by enumerating {e canonical} valuations
    ({!Valuation.enumerate_canonical}): by genericity, whether
    [v(t̄) ∈ Q(v(D))] depends only on which nulls collide with each
    other and with which constants of [D] and of the query, so it
    suffices to check one valuation per collision pattern.  This is
    exponential in the number of nulls — cert⊥ is coNP-complete in data
    complexity (Theorem 3.12) — and serves as the ground truth against
    which the polynomial approximation schemes are measured. *)

(** [cert_with_nulls ?pool ~run ~query_consts db] is cert⊥(Q, D) for
    the generic query executed by [run]; [query_consts] must list the
    constants mentioned by the query (they take part in collision
    patterns).  The answer may contain nulls of [D] (Definition 3.9).

    On a complete [D] the only possible world is [D] itself, so the
    answer is one [run D]: no naive pass and no enumeration.

    Every world, the naive one included, comes from one
    {!Valuation.builder}: null-free relations are shared and only the
    null-bearing tuples are valued.

    Canonical worlds are {e streamed} ({!Valuation.canonical_seq}):
    the candidate set only shrinks as worlds are checked, so the
    enumeration stops as soon as it empties.  With [pool] (default
    {!Pool.auto}; [~pool:None] for the sequential reference) each chunk
    of worlds is built and queried on separate domains; the narrowing
    fold stays in enumeration order, so the result is identical.

    [guard] (default: none) is re-checked at every chunk boundary of
    the world enumeration, so a deadline, budget, or cancellation
    interrupts the exponential enumeration between batches with
    [Guard.Interrupt]; see {!cert_with_fallback} for recovering a sound
    approximate answer instead of an exception. *)
val cert_with_nulls :
  ?pool:Pool.t option ->
  ?guard:Guard.t ->
  run:(Database.t -> Relation.t) ->
  query_consts:Value.const list ->
  Database.t ->
  Relation.t

(** [cert_intersection ?pool ~run ~query_consts db] is cert∩(Q, D):
    the null-free certain answers (Definition 3.7), computed as
    cert⊥ ∩ Const^m (Proposition 3.10). *)
val cert_intersection :
  ?pool:Pool.t option ->
  ?guard:Guard.t ->
  run:(Database.t -> Relation.t) ->
  query_consts:Value.const list ->
  Database.t ->
  Relation.t

(** [cert_intersection_direct] computes cert∩ from its definition, as
    the intersection of the query answers over one representative
    possible world per collision pattern (streamed and chunk-parallel
    like {!cert_with_nulls}, stopping once the running intersection is
    empty); used to cross-validate Proposition 3.10 in the tests. *)
val cert_intersection_direct :
  ?pool:Pool.t option ->
  ?guard:Guard.t ->
  run:(Database.t -> Relation.t) ->
  query_consts:Value.const list ->
  Database.t ->
  Relation.t

(** [relevant db q] is [db] with every relation that [q] does not read
    emptied (schema and arities kept); it is [db] itself when
    [Algebra.uses_dom q].

    {b The relevance rule.}  Without [Dom] an algebra query reads only
    its own relations, so by genericity cert⊥(Q, D) = cert⊥(Q,
    [relevant D Q]): a null or constant of a relation [Q] never reads
    changes no world's answer to [Q].  The rule does not hold where the
    query ranges over the active domain of the whole database: [Dom]
    and FO formulas, whose quantifiers range over adom(D)
    (with R = \{1\} and T = \{2\}, ∀x R(x) is false on D and true on
    D with T emptied).  So the RA front ends below enumerate
    [relevant db q] and the FO front ends enumerate [db]. *)
val relevant : Database.t -> Algebra.t -> Database.t

(** [ra_run ?pool ?guard db q] type-checks and compiles [q] once and
    returns its per-world runner: applied to a possible world of [db]
    (a valuation of [db], so with the same null-free relations) it
    returns [Eval.run world q] and charges [guard] the same tuples.
    Subplans that read only null-free relations are evaluated in the
    first world it is applied to and kept ({!Plan.hoist_invariant}). *)
val ra_run :
  ?pool:Pool.t option ->
  ?guard:Guard.t ->
  Database.t ->
  Algebra.t ->
  Database.t ->
  Relation.t

(** How the RA front ends decide cert⊥ on [read = relevant db q], from
    the {!Nullable} analysis of [read] (DESIGN.md §4):
    - [One_run]: [read] holds no null, so cert⊥ = Q(read), one run;
    - [Naive_exact]: {!Classes.naive_exact} holds, so cert⊥ is the
      naive answer, one run in the naive world and no other;
    - [Enumerate]: the canonical worlds of [read], streamed.  When an
      order atom of [q] can read a null ({!Nullable.order_sees_null}),
      the pattern constants gain a witness for every gap between them:
      one below the least, one between two neighbours wherever a value
      fits, one above the greatest. *)
type route = One_run | Naive_exact | Enumerate

(** [route db q] is the route the RA front ends take for [q] on [db].
    @raise Algebra.Type_error if [q] is ill typed. *)
val route : Database.t -> Algebra.t -> route

(** Relational algebra front ends.  [pool] is used both for the world
    enumeration and inside each world's query evaluation (nested
    parallel sections degrade to sequential on worker domains);
    [guard] likewise governs both the enumeration (chunk boundaries)
    and each per-world evaluation (materialisation points).

    They decide cert⊥ on [relevant db q]: only the nulls and constants
    of the relations the query reads take part, and {!route} picks the
    way.  The query is compiled once per call and every world runs that
    plan.  Answers are cert⊥(Q, D) of the full database.  The tuples
    charged to [guard] are those of one {!Eval.run} on
    [relevant db q] on the [One_run] route, of one {!Eval.run} in its
    naive world on the [Naive_exact] route, and of one {!Eval.run} per
    world of the naive pass and the enumeration on the [Enumerate]
    route (DESIGN.md §4). *)

val cert_with_nulls_ra :
  ?pool:Pool.t option -> ?guard:Guard.t -> Database.t -> Algebra.t ->
  Relation.t

val cert_intersection_ra :
  ?pool:Pool.t option -> ?guard:Guard.t -> Database.t -> Algebra.t ->
  Relation.t

(** FO front ends (free variables in {!Fo.free_vars} order).  They
    enumerate the worlds of the full [db]: quantifiers range over the
    active domain of every relation, so {!relevant} does not apply.
    [guard] governs the world enumeration only — per-world FO
    evaluation does not thread the token. *)

val cert_with_nulls_fo :
  ?pool:Pool.t option -> ?guard:Guard.t -> Database.t -> Fo.t -> Relation.t

val cert_intersection_fo :
  ?pool:Pool.t option -> ?guard:Guard.t -> Database.t -> Fo.t -> Relation.t

(** [certain_boolean db q] for Boolean (0-ary) algebra queries: [true]
    iff the query holds in every possible world. *)
val certain_boolean :
  ?pool:Pool.t option -> ?guard:Guard.t -> Database.t -> Algebra.t -> bool

(** Graceful degradation (governor tentpole): an exact certain answer
    when resources allow, a sound polynomial under-approximation when
    they do not. *)
type answer =
  | Exact of Relation.t  (** cert⊥(Q, D), world enumeration completed *)
  | Approximate of Relation.t
      (** Q⁺(D) of {!Scheme_pm} — a subset of cert⊥(Q, D) by
          Theorem 4.7, produced after the guard interrupted the
          exponential enumeration *)

(** [answer_relation a] projects out the relation of either variant. *)
val answer_relation : answer -> Relation.t

(** [cert_with_fallback ?planner ?pool ?guard db q] computes
    cert⊥(Q, D) under [guard].  If the guard interrupts the canonical
    world enumeration (deadline, tuple budget, or cancellation), the
    partial exact computation is abandoned and the polynomial scheme
    of Figure 2(b) is run {e without} the guard — it is a single
    relational-algebra pass, so it terminates promptly — yielding
    [Approximate r] with [r ⊆ cert⊥(Q, D)] on the scheme's sound
    fragment (queries without [Is_null]/[Is_const] tests — the
    Theorem 4.7 hypothesis).  With no guard (or a guard that never
    fires) the result is [Exact (cert⊥(Q, D))], bit-identical to
    {!cert_with_nulls_ra}.  The exact leg takes the {!route} of
    [q] on [relevant db q], with or without [planner]; the Q⁺ fallback
    runs on the full [db].

    @raise Scheme_pm.Unsupported if the fallback is needed but [q]
    mentions [Dom]/[Anti_unify_join] (outside the translatable
    fragment). *)
val cert_with_fallback :
  ?planner:bool ->
  ?pool:Pool.t option ->
  ?guard:Guard.t ->
  Database.t ->
  Algebra.t ->
  answer

(** [certain_object_ucq db q] — the {e information-based certain answer
    as an object} (Definition 3.3, Proposition 3.6(b)): for a union of
    conjunctive queries under OWA, the greatest lower bound of the
    query's answers in the information order exists and is realised by
    the naive-evaluation table read as an incomplete relation; we
    return its {e core}, the canonical minimal representative (the
    object is unique up to hom-equivalence, cf. the Theorem 3.11
    discussion of cores).  The result may keep nulls — unlike cert∩ —
    and is ⪯-below the answer in every possible world, which the tests
    verify by exhibiting homomorphisms.
    @raise Invalid_argument if [q] is not positive. *)
val certain_object_ucq : Database.t -> Algebra.t -> Relation.t

(** [canonical_worlds ~query_consts db] lists one [(v, v(D))] pair per
    collision pattern — the finite set of representative possible
    worlds used throughout; exposed for tests and for the probabilistic
    module. *)
val canonical_worlds :
  query_consts:Value.const list ->
  Database.t ->
  (Valuation.t * Database.t) list

(** [canonical_world_seq ~query_consts db] is {!canonical_worlds} as a
    lazy sequence in the same order; worlds are only instantiated as
    the sequence is forced. *)
val canonical_world_seq :
  query_consts:Value.const list ->
  Database.t ->
  (Valuation.t * Database.t) Seq.t
