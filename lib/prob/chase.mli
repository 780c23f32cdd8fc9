(** The chase with functional dependencies on incomplete databases
    (Section 4.3): when Σ contains only FDs, µ(Q | Σ, D, ā) equals
    µ(Q, D_Σ, ā) on the chased database, so conditional probabilities
    reduce to the 0–1 law.

    Chasing repeatedly finds two tuples agreeing on an FD's left-hand
    side but disagreeing on the right, and equates the offending
    values: null/constant pairs substitute the constant for the null
    everywhere, null/null pairs merge the nulls.  A constant/constant
    disagreement means the FDs cannot hold (given the lhs collision) in
    any world, and the chase fails. *)

type result =
  | Chased of Database.t * (int * Value.t) list
      (** the chased database and the accumulated substitution of
          equated-away nulls (fully resolved: images contain no
          equated-away nulls) *)
  | Failed  (** Σ cannot hold in any world reachable by equating *)

(** Raised by {!chase_exn} when the chase fails: the constraints are
    unsatisfiable on the instance (a constant/constant FD violation),
    so no possible world satisfies Σ.  A typed exception — unlike a
    bare [Failure] — lets callers distinguish "Σ is inconsistent with
    D" from genuine programming errors and handle it as a structured
    outcome alongside {!Guard.Interrupt}. *)
exception Unsatisfiable

(** [chase_fds ?pool ?guard db fds] runs the chase to completion or
    failure.  [pool] (default {!Pool.auto}) chunks each round's
    quadratic violation scan across the pool by outer-tuple range; work
    items stay ordered and the first violation in order is taken, so
    the chase is bit-identical to [~pool:None] on every pool size.
    [guard] (default: none) is re-checked before every chase round and
    at every chunk boundary of the scan, raising [Guard.Interrupt] on a
    violated deadline/budget/cancellation. *)
val chase_fds :
  ?pool:Pool.t option ->
  ?guard:Guard.t ->
  Database.t ->
  Constraints.fd list ->
  result

(** [apply_subst subst tuple] rewrites a tuple through the chase
    substitution. *)
val apply_subst : (int * Value.t) list -> Tuple.t -> Tuple.t

(** [chase_exn db fds] is the chased database.
    @raise Unsatisfiable on chase failure. *)
val chase_exn :
  ?pool:Pool.t option ->
  ?guard:Guard.t ->
  Database.t ->
  Constraints.fd list ->
  Database.t
