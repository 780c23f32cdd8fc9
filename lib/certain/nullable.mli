(** Which output columns of a query can hold a null, on one database.

    Per-column completeness is the simplest of the completeness
    statements that sound answers can rest on: a column that holds no
    null on the database at hand makes every [null(x)] test on it false,
    every [const(x)] test true, and every [≠]/[<]/[≤] atom on it a
    comparison of constants, which no valuation changes.  The analysis
    is computed once per call, for the database the call evaluates on;
    it is not shared between domains (its per-relation scans are
    lazy). *)

type t

(** [of_database db] prepares the analysis; each relation is scanned at
    most once, when a query first reads it. *)
val of_database : Database.t -> t

(** [has_null facts] holds iff some relation of the database holds a
    null. *)
val has_null : t -> bool

(** [columns facts q] marks the output columns of [q] that can hold a
    null under naive evaluation of [q] on the database: [false] at [i]
    means that no tuple of the answer holds a null at [i].  Sound (never
    [false] where a null can appear) for every algebra query, [Dom] and
    [⋉⇑̸] included, so it also holds for the Figure-2 translations.
    @raise Algebra.Type_error on a relation the database lacks. *)
val columns : t -> Algebra.t -> bool array

(** [prune_on db q] type-checks [q] on [db] and rewrites every
    selection with the marks of its input: [null(i)] becomes [False] and
    [const(i)] [True] wherever column [i] is null-free, the
    [True]/[False] units are simplified away, a selection left with
    [True] is dropped and one left with [False] becomes an empty
    literal.  On [db], [Eval.run (prune_on db q)] equals [Eval.run q].
    @raise Algebra.Type_error if [q] is ill typed. *)
val prune_on : Database.t -> Algebra.t -> Algebra.t

(** [order_sees_null facts q] holds iff some [<]/[≤] atom of [q] reads
    a column its selection's input marks as nullable. *)
val order_sees_null : t -> Algebra.t -> bool

(** [null_free nullable o] holds iff operand [o] is a literal or a
    column [nullable] does not mark. *)
val null_free : bool array -> Condition.operand -> bool
