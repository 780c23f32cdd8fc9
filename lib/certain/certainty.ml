module Const_set = Set.Make (struct
  type t = Value.const

  let compare = Value.compare_const
end)

(* the constants of D, then the query's constants that D lacks, in the
   query's order *)
let pattern_consts ~query_consts db_consts =
  let in_db = Const_set.of_list db_consts in
  db_consts @ List.filter (fun c -> not (Const_set.mem c in_db)) query_consts

(* the least constant above [c], if [c] has one *)
let successor = function
  | Value.Int n when n < max_int -> Some (Value.Int (n + 1))
  | Value.Int _ -> Some (Value.Str "")
  | Value.Str s -> Some (Value.Str (s ^ "\000"))
  | Value.Gen _ -> None

(* Canonical valuations send a null to a pattern constant or to a fresh
   [Gen] constant, and [Gen] sorts after every [Int] and [Str] (fresh
   classes in order of first use): so no null ever lies below the least
   constant or strictly between two of them, and fresh nulls never fall
   in decreasing order.  An order atom that reads a null tells those
   worlds apart.  So for such a query the pattern constants gain
   witnesses in every gap of the sorted constants: below the least,
   between two neighbours wherever a value fits, above the greatest.
   Each gap gets [per_gap] of them (as many as fit), one per null, so
   every order of the nulls among themselves and the constants is some
   canonical world up to an order-preserving renaming, which no query
   answer can tell apart. *)
let gap_witnesses ~per_gap consts =
  let sorted =
    List.sort_uniq Value.compare_const
      (List.filter (function Value.Gen _ -> false | _ -> true) consts)
  in
  (* up to [per_gap] constants above [c], all below [bound] if any *)
  let rec above c bound n =
    match successor c with
    | Some w
      when n > 0
           && Option.fold ~none:true
                ~some:(fun b -> Value.compare_const w b < 0)
                bound ->
      w :: above w bound (n - 1)
    | _ -> []
  in
  let rec gaps = function
    | a :: (b :: _ as rest) -> above a (Some b) per_gap @ gaps rest
    | [ greatest ] -> above greatest None per_gap
    | [] -> []
  in
  let below =
    match sorted with
    | Value.Int n :: _ ->
      List.filter_map
        (fun i -> if n - i < n then Some (Value.Int (n - i)) else None)
        (List.init per_gap succ)
    | _ ->
      (* no integer: every integer sorts below every string *)
      List.init per_gap (fun i -> Value.Int i)
  in
  below @ gaps sorted

let canonical_world_seq ~query_consts db =
  let nulls, db_consts = Database.nulls_and_consts db in
  let builder = Valuation.builder db in
  Seq.map
    (fun v -> (v, Valuation.world builder v))
    (Valuation.canonical_seq ~nulls
       ~consts:(pattern_consts ~query_consts db_consts))

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

(* cert⊥ by canonical enumeration of the worlds of [db], which holds a
   null; [gaps] adds the {!gap_witnesses} to the pattern constants *)
let enumerate ?(pool = Pool.auto ()) ?guard ~gaps ~run ~query_consts db =
  (* one pass finds the nulls and constants; one builder serves every
     world of this call, the naive one included: only null-bearing
     tuples are valued per world *)
  let nulls, db_consts = Database.nulls_and_consts db in
  let consts = pattern_consts ~query_consts db_consts in
  let consts =
    if gaps then consts @ gap_witnesses ~per_gap:(List.length nulls) consts
    else consts
  in
  let builder = Valuation.builder db in
  (* candidates: cert⊥(Q,D) ⊆ Qnaive(D) because a bijective valuation
     into fresh constants is itself a valuation *)
  let candidates = Naive.run_with ~builder ~nulls ~run db in
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
    (Valuation.canonical_seq ~nulls ~consts)

(* On a complete database the only possible world is D itself, so
   cert⊥(Q, D) = Q(D): one run, no naive pass, no enumeration. *)
let one_run ?guard ~run db =
  Guard.check guard;
  run db

let cert_with_nulls ?pool ?guard ~run ~query_consts db =
  if Database.is_complete db then one_run ?guard ~run db
  else enumerate ?pool ?guard ~gaps:false ~run ~query_consts db

let keep_complete r = Relation.filter Tuple.is_complete r

let cert_intersection ?pool ?guard ~run ~query_consts db =
  keep_complete (cert_with_nulls ?pool ?guard ~run ~query_consts db)

let cert_intersection_direct ?(pool = Pool.auto ()) ?guard ~run ~query_consts
    db =
  (* A tuple mentioning an invented (fresh) constant cannot be in the
     intersection: by genericity some possible world avoids that
     constant altogether.  So restrict each world's answer to tuples
     over the constants of D and of the query before intersecting. *)
  let nulls, db_consts = Database.nulls_and_consts db in
  let consts = pattern_consts ~query_consts db_consts in
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
  match Valuation.canonical_seq ~nulls ~consts () with
  | Seq.Nil -> assert false (* there is always at least the empty valuation *)
  | Seq.Cons (first, rest) ->
    Pool.fold_seq_chunked pool ~chunk:world_chunk ?guard ~map:world_answer
      ~combine:Relation.inter ~stop:(world_stop Relation.is_empty)
      ~init:(world_answer first) rest

(* [q] compiled once per call, and its runner: applied to a world of
   the database [q] was compiled for, it runs that one plan.  With
   [unchanged], subplans over the relations it names give the same
   result in every world, so they are evaluated in the first world only
   and charged again from the kept count in the others: answers and
   guard charges are those of [Eval.run] per world. *)
let plan_runner ?(pool = Pool.auto ()) ?guard ?unchanged db q =
  let plan =
    Planner.compile ~rel_arity:(Schema.arity (Database.schema db)) q
  in
  let plan =
    match unchanged with
    | None -> plan
    | Some unchanged -> Plan.hoist_invariant ~unchanged plan
  in
  fun world ->
    Plan.run_set ~pool ?guard ~base:(Database.relation world)
      ~dom1:(lazy (Eval.domain_relation ~extra_consts:[] world))
      plan

let complete_relation facts name =
  not (Array.exists Fun.id (Nullable.columns facts (Algebra.Rel name)))

(* the analysis of [db], once [q] is known to be well typed on it *)
let analyse db q =
  ignore (Algebra.arity (Database.schema db) q);
  Nullable.of_database db

let ra_run ?pool ?guard db q =
  plan_runner ?pool ?guard ~unchanged:(complete_relation (analyse db q)) db q

(* By genericity only the relations [q] reads, with their nulls and
   constants, decide its answer, so the others are emptied and take no
   part in the canonical enumeration.  [Dom] ranges over the whole
   active domain: a query that uses it keeps every relation. *)
let relevant db q =
  if Algebra.uses_dom q then db
  else
    let reads = Algebra.relations q in
    Database.map_relations
      (fun name r ->
        if List.mem name reads then r else Relation.empty (Relation.arity r))
      db

type route = One_run | Naive_exact | Enumerate

let route_of facts q =
  if not (Nullable.has_null facts) then One_run
  else if Classes.naive_exact facts q then Naive_exact
  else Enumerate

(* cert⊥ of [q] on [read] = [relevant db q], by the cheapest route the
   nullable-column analysis of [read] allows.  [run ~unchanged] is [q]
   in one world of [read]; the enumeration passes the relations no
   valuation changes, so the runner may keep their subplans. *)
let cert_on_read ?pool ?guard ~run read q =
  let facts = analyse read q in
  match route_of facts q with
  | One_run -> one_run ?guard ~run:(run ~unchanged:None) read
  | Naive_exact ->
    Guard.check guard;
    Naive.run_with ~run:(run ~unchanged:None) read
  | Enumerate ->
    enumerate ?pool ?guard
      ~gaps:(Nullable.order_sees_null facts q)
      ~run:(run ~unchanged:(Some (complete_relation facts)))
      ~query_consts:(Algebra.consts q) read

let route db q =
  let read = relevant db q in
  route_of (analyse read q) q

let cert_with_nulls_ra ?pool ?guard db q =
  let read = relevant db q in
  cert_on_read ?pool ?guard read q ~run:(fun ~unchanged ->
      plan_runner ?pool ?guard ?unchanged read q)

let cert_intersection_ra ?pool ?guard db q =
  keep_complete (cert_with_nulls_ra ?pool ?guard db q)

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
  let read = relevant db q in
  let run ~unchanged =
    if planner then plan_runner ~pool ?guard ?unchanged read q
    else fun w -> Eval.run ~planner ~pool ?guard w q
  in
  match cert_on_read ~pool ?guard ~run read q with
  | exact -> Exact exact
  | exception Guard.Interrupt _ ->
    (* graceful degradation: the polynomial scheme of Figure 2(b) is a
       sound under-approximation (Q⁺ ⊆ cert⊥, Theorem 4.7) and runs
       without the guard — a single pass over Q⁺, never interrupted;
       it runs on the full database *)
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
