(** Physical query plans.

    {!Algebra.t} is a logical language: [Select]/[Product] pairs say
    {e what} join to compute, not {e how}.  This module is the physical
    layer: an IR of executable operators ([Hash_join], hash-based
    division, the hash anti-unification semijoin, memoized subplans)
    produced by {!Planner.compile} and interpreted under set semantics
    ([run_set]) or bag semantics ([run_bag]).

    Base relations are resolved through a [base] callback rather than a
    {!Database.t}, so the same executor serves database queries, the
    per-iteration rule bodies of Datalog evaluation, and bag overrides. *)

exception Unsupported of string

type t =
  | Scan of string  (** base relation, resolved via [base] *)
  | Lit of int * Tuple.t list
  | Filter of Condition.t * t
  | Project of int list * t
  | Hash_join of {
      left : t;
      right : t;
      keys : (int * int) list;
          (** equi-join key: left column = right column (right-local) *)
      residual : Condition.t;
          (** remaining conjuncts, over the concatenated tuple *)
    }  (** build a hash index on the right input, probe with the left *)
  | Product of t * t  (** fallback nested-loop cross product *)
  | Union of t * t
  | Inter of t * t
  | Diff of t * t
  | Division of t * t  (** hash-grouped division (tail sets per head) *)
  | Anti_unify of t * t  (** hash anti-unification semijoin r ⋉⇑̸ s *)
  | Dom of int  (** k-fold product of the domain; powers are memoized *)
  | Shared of int * t
      (** memoized subplan: evaluated once per run, keyed by [id].
          Emitted by the planner for algebra subtrees occurring more
          than once (the Figure-2 translations duplicate Q⁺ inside Q?) *)
  | Invariant of t * (Relation.t * int) option Atomic.t
      (** subplan whose result is the same in every run of this plan
          value: the first run under {!run_set} evaluates it and keeps
          the result with the tuples its operators charged; later runs
          return the kept result and charge the same count again, so
          the guard sees exactly what evaluating it would charge.
          Emitted only by {!hoist_invariant}; {!run_bag} evaluates the
          subplan every time *)

(** [run_set ?pool ~base ~dom1 p] executes [p] under set semantics.
    [dom1] is the unary domain relation backing [Dom 1]; higher powers
    are built by product and cached per run, as are [Shared] subplans.

    With [~pool:(Some p)], selections, projections and hash joins whose
    inputs exceed {!Pool.scan_cutoff} / {!Pool.join_cutoff} run
    partition-parallel on the pool: slices are evaluated on separate
    domains and merged with a parallel [Tuple_set] union tree.  The
    result is identical to the sequential path (the default,
    [~pool:None]) because relations are immutable sets and every merge
    is associative and commutative.

    [guard] (default: none) is a {!Guard.t} resource token: every
    operator output is a materialisation point that charges its
    cardinality against the token's tuple budget and re-checks the
    deadline/cancellation flag, so a runaway plan raises
    [Guard.Interrupt] instead of pinning the pool.  Memoized [Shared]
    and [Dom] cache hits charge nothing.  With no guard the checks
    compile to a single [None] match per node, and results are
    bit-identical to the unguarded path.
    @raise Not_found if [base] does not know a scanned relation. *)
val run_set :
  ?pool:Pool.t option ->
  ?guard:Guard.t ->
  base:(string -> Relation.t) ->
  dom1:Relation.t Lazy.t ->
  t ->
  Relation.t

(** [run_bag ?pool ~base ~dom1 p] executes [p] under bag semantics:
    multiplicities multiply through joins and products, and project
    sums them.  [?pool] parallelises scans and hash joins exactly as in
    {!run_set}; chunk merges add multiplicities, so results again match
    the sequential path.  [?guard] follows {!run_set}, charging support
    sizes (distinct tuples) at every materialisation point.
    @raise Unsupported on [Division], which is
    not part of the bag fragment. *)
val run_bag :
  ?pool:Pool.t option ->
  ?guard:Guard.t ->
  base:(string -> Bag_relation.t) ->
  dom1:Bag_relation.t Lazy.t ->
  t ->
  Bag_relation.t

(** [hoist_invariant ~unchanged p] wraps each maximal subplan of [p]
    that scans only relations satisfying [unchanged] and holds no
    [Dom], [Shared] or [Invariant] node in a fresh {!Invariant} node.
    Running the result over a series of databases that agree on the
    [unchanged] relations (the possible worlds of one incomplete
    database, whose complete relations no valuation touches) gives the
    same answers and the same guard charges as running [p], while each
    invariant subplan is evaluated only once. *)
val hoist_invariant : unchanged:(string -> bool) -> t -> t

val pp : Format.formatter -> t -> unit
val to_string : t -> string
