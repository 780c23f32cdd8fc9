(** Incomplete relational databases.

    A database interprets each relation name of a {!Schema.t} as a finite
    relation over [Const ∪ Null].  The database is {e complete} when no
    null occurs (Section 2 of the paper). *)

type t

(** [create schema] is the database over [schema] with every relation
    empty. *)
val create : Schema.t -> t

val schema : t -> Schema.t

(** [relation db name] is the current instance of [name].
    @raise Not_found if [name] is not in the schema. *)
val relation : t -> string -> Relation.t

(** [set_relation db name r] replaces the instance of [name].
    @raise Not_found if [name] is not in the schema.
    @raise Invalid_argument on arity mismatch with the schema. *)
val set_relation : t -> string -> Relation.t -> t

(** [add_tuple db name t] inserts [t] into [name]. *)
val add_tuple : t -> string -> Tuple.t -> t

(** [of_list schema bindings] builds a database from
    [(relation name, tuples)] pairs; unlisted relations are empty. *)
val of_list : Schema.t -> (string * Tuple.t list) list -> t

(** [map_relations f db] applies [f] to every relation instance. *)
val map_relations : (string -> Relation.t -> Relation.t) -> t -> t

val fold : (string -> Relation.t -> 'a -> 'a) -> t -> 'a -> 'a

(** Distinct null labels occurring anywhere in the database, in
    increasing order. *)
val nulls : t -> int list

(** Distinct constants occurring anywhere in the database, in
    {!Value.compare_const} order. *)
val consts : t -> Value.const list

(** [nulls_and_consts db] is [(nulls db, consts db)], from one pass
    over the tuples. *)
val nulls_and_consts : t -> int list * Value.const list

(** Active domain: all constants and nulls occurring in the database. *)
val active_domain : t -> Value.t list

val is_complete : t -> bool

(** A null label strictly greater than every label in the database
    (useful for generating fresh nulls). *)
val fresh_null : t -> int

val equal : t -> t -> bool

(** Total number of tuples across all relations. *)
val size : t -> int

val pp : Format.formatter -> t -> unit
