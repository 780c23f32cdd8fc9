(** Valuations: assignments of constants to nulls (Section 2).

    A valuation [v] maps every null of a database to a constant; [v(D)]
    replaces each null with its image and is one possible world of [D]
    under the closed-world semantics. *)

type t

(** The empty valuation. *)
val empty : t

(** [of_list pairs] builds a valuation from [(null label, constant)]
    pairs.  @raise Invalid_argument on duplicate labels. *)
val of_list : (int * Value.const) list -> t

val to_list : t -> (int * Value.const) list

(** [find v n] is the image of null [n], if assigned. *)
val find : t -> int -> Value.const option

(** [add v n c] extends [v]; replaces any previous image of [n]. *)
val add : t -> int -> Value.const -> t

(** [apply_value v x] replaces [x] by its image when [x] is an assigned
    null; unassigned nulls are left untouched (partial application). *)
val apply_value : t -> Value.t -> Value.t

val apply_tuple : t -> Tuple.t -> Tuple.t
val apply_relation : t -> Relation.t -> Relation.t

(** [apply_db v db] is the possible world [v(D)]; it is
    [world (builder db) v]. *)
val apply_db : t -> Database.t -> Database.t

(** {1 Many worlds of one database} *)

(** A database prepared for valuation under many [v]: the complete
    tuples are sorted into sets once, and relations without a null are
    shared physically by every world. *)
type builder

val builder : Database.t -> builder

(** [world b v] is [v(D)] for the database [D] of [b], equal to
    [apply_db v D]; only the tuples of [D] that hold a null are valued. *)
val world : builder -> t -> Database.t

(** [is_total_for v nulls] holds iff every label in [nulls] is assigned. *)
val is_total_for : t -> int list -> bool

(** [enumerate ~nulls ~range] lists all [|range|^|nulls|] valuations of
    the given nulls into the given constants.  Used to materialise the
    finite valuation sets V_k(D) of Section 4.3. *)
val enumerate : nulls:int list -> range:Value.const list -> t list

(** [enumerate_canonical ~nulls ~consts] lists valuations covering every
    {e pattern} of null instantiation up to renaming of invented
    constants: each null is sent either to a constant in [consts] or to
    one of canonical fresh [Gen] constants, enumerated as restricted
    growth strings so that no two valuations in the output differ only
    by a bijective renaming of fresh constants.  For a generic query
    [Q], a tuple is in cert⊥(Q, D) under CWA iff it is witnessed by all
    valuations in [enumerate_canonical ~nulls:(Database.nulls D)
    ~consts:(constants of D and Q)] — see DESIGN.md §4. *)
val enumerate_canonical : nulls:int list -> consts:Value.const list -> t list

(** [canonical_seq ~nulls ~consts] is {!enumerate_canonical} as a lazy
    sequence, in the same order.  The enumeration tree is only explored
    as the sequence is forced, so consumers that stop early (e.g. a
    certain-answer check whose candidate set empties) pay only for the
    worlds they actually inspect. *)
val canonical_seq : nulls:int list -> consts:Value.const list -> t Seq.t

(** [bijective_fresh ~nulls] sends the i-th null to the invented constant
    [Gen i]: the bijective valuation used by naive evaluation. *)
val bijective_fresh : nulls:int list -> t

(** [inverse_fresh ~nulls] maps back: [Gen i ↦ Null n_i].  Applied to a
    query answer it undoes {!bijective_fresh}. *)
val inverse_fresh : nulls:int list -> Value.t -> Value.t

val pp : Format.formatter -> t -> unit
