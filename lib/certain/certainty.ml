module Const_set = Set.Make (struct
  type t = Value.const

  let compare = Value.compare_const
end)

(* the constants of D, then the query's constants that D lacks, in the
   query's order *)
let pattern_consts ~query_consts db =
  let db_consts = Database.consts db in
  let in_db = Const_set.of_list db_consts in
  db_consts @ List.filter (fun c -> not (Const_set.mem c in_db)) query_consts

let canonical_valuations ~consts db =
  Valuation.canonical_seq ~nulls:(Database.nulls db) ~consts

let canonical_world_seq ~query_consts db =
  let builder = Valuation.builder db in
  Seq.map
    (fun v -> (v, Valuation.world builder v))
    (canonical_valuations ~consts:(pattern_consts ~query_consts db) db)

let canonical_worlds ~query_consts db =
  List.of_seq (canonical_world_seq ~query_consts db)

(* worlds per parallel batch; each batch's worlds are built and queried
   on separate domains, then folded in enumeration order *)
let world_chunk = 32

(* fault-injection site fired at every chunk boundary of the canonical
   world enumeration (the [stop] hook of [Pool.fold_seq_chunked] runs
   between chunks on every configuration, including [~pool:None]), so
   robustness tests can kill or stall the exponential streaming phase
   itself rather than only the per-world evaluation inside it *)
let world_stop stop acc =
  Guard.inject "world.chunk";
  stop acc

let cert_with_nulls ?(pool = Pool.auto ()) ?guard ~run ~query_consts db =
  (* one builder serves every world of this call, the naive one included:
     only null-bearing tuples are valued per world *)
  let builder = Valuation.builder db in
  (* candidates: cert⊥(Q,D) ⊆ Qnaive(D) because a bijective valuation
     into fresh constants is itself a valuation *)
  let candidates = Naive.run_with ~builder ~run db in
  (* stream the canonical worlds instead of materialising them: the
     candidate set only shrinks, so once it is empty no further world
     needs to be built, and each chunk's worlds are evaluated in
     parallel while the narrowing fold stays in enumeration order;
     the guard is re-checked at every chunk boundary, so a deadline
     interrupts the exponential enumeration between batches *)
  Pool.fold_seq_chunked pool ~chunk:world_chunk ?guard
    ~map:(fun v -> (v, run (Valuation.world builder v)))
    ~combine:(fun cand (v, answer) ->
      Relation.filter
        (fun t -> Relation.mem (Valuation.apply_tuple v t) answer)
        cand)
    ~stop:(world_stop Relation.is_empty) ~init:candidates
    (canonical_valuations ~consts:(pattern_consts ~query_consts db) db)

let keep_complete r = Relation.filter Tuple.is_complete r

let cert_intersection ?pool ?guard ~run ~query_consts db =
  keep_complete (cert_with_nulls ?pool ?guard ~run ~query_consts db)

let cert_intersection_direct ?(pool = Pool.auto ()) ?guard ~run ~query_consts
    db =
  (* A tuple mentioning an invented (fresh) constant cannot be in the
     intersection: by genericity some possible world avoids that
     constant altogether.  So restrict each world's answer to tuples
     over the constants of D and of the query before intersecting. *)
  let consts = pattern_consts ~query_consts db in
  let allowed = Const_set.of_list consts in
  let over_allowed =
    Array.for_all (function
      | Value.Const c -> Const_set.mem c allowed
      | Value.Null _ -> true)
  in
  let builder = Valuation.builder db in
  let world_answer v =
    Relation.filter over_allowed
      (keep_complete (run (Valuation.world builder v)))
  in
  match canonical_valuations ~consts db () with
  | Seq.Nil -> assert false (* there is always at least the empty valuation *)
  | Seq.Cons (first, rest) ->
    Pool.fold_seq_chunked pool ~chunk:world_chunk ?guard ~map:world_answer
      ~combine:Relation.inter ~stop:(world_stop Relation.is_empty)
      ~init:(world_answer first) rest

(* [q] is type-checked and compiled once per call, and every world runs
   that one plan.  Its subplans over complete relations give the same
   result in every world, so they are evaluated in the first world only
   (the naive one) and charged again from the kept count in the others:
   answers and guard charges are those of [Eval.run] per world. *)
let ra_run ?(pool = Pool.auto ()) ?guard db q =
  let schema = Database.schema db in
  ignore (Algebra.arity schema q);
  let plan =
    Plan.hoist_invariant
      ~unchanged:(fun name -> Relation.is_complete (Database.relation db name))
      (Planner.compile ~rel_arity:(Schema.arity schema) q)
  in
  fun world ->
    Plan.run_set ~pool ?guard ~base:(Database.relation world)
      ~dom1:(lazy (Eval.domain_relation ~extra_consts:[] world))
      plan

let cert_with_nulls_ra ?pool ?guard db q =
  cert_with_nulls ?pool ?guard ~run:(ra_run ?pool ?guard db q)
    ~query_consts:(Algebra.consts q) db

let cert_intersection_ra ?pool ?guard db q =
  cert_intersection ?pool ?guard ~run:(ra_run ?pool ?guard db q)
    ~query_consts:(Algebra.consts q) db

let fo_run phi db =
  Incdb_logic.Semantics.certain_true Incdb_logic.Semantics.all_bool db phi

let cert_with_nulls_fo ?pool ?guard db phi =
  cert_with_nulls ?pool ?guard ~run:(fo_run phi)
    ~query_consts:(Fo.consts phi) db

let cert_intersection_fo ?pool ?guard db phi =
  cert_intersection ?pool ?guard ~run:(fo_run phi)
    ~query_consts:(Fo.consts phi) db

let certain_boolean ?pool ?guard db q =
  Eval.boolean (cert_with_nulls_ra ?pool ?guard db q)

type answer = Exact of Relation.t | Approximate of Relation.t

let answer_relation = function Exact r | Approximate r -> r

let cert_with_fallback ?(planner = true) ?(pool = Pool.auto ()) ?guard db q =
  let run =
    if planner then ra_run ~pool ?guard db q
    else fun w -> Eval.run ~planner ~pool ?guard w q
  in
  match cert_with_nulls ~pool ?guard ~run ~query_consts:(Algebra.consts q) db with
  | exact -> Exact exact
  | exception Guard.Interrupt _ ->
    (* graceful degradation: the polynomial scheme of Figure 2(b) is a
       sound under-approximation (Q⁺ ⊆ cert⊥, Theorem 4.7) and runs
       without the guard — a single pass over Q⁺, never interrupted *)
    Approximate (Scheme_pm.certain_sub ~planner ~pool db q)

let certain_object_ucq db q =
  if not (Classes.is_positive q) then
    invalid_arg
      "Certainty.certain_object_ucq: the certain-answer object is computed \
       for unions of conjunctive queries only";
  let answer = Naive.run db q in
  (* wrap the answer as a one-relation database and take its core *)
  let k = Relation.arity answer in
  let schema = Schema.of_list [ ("ans", List.init k (Printf.sprintf "c%d")) ] in
  let as_db =
    Database.set_relation (Database.create schema) "ans" answer
  in
  Database.relation (Homomorphism.core as_db) "ans"
