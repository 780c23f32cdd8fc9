exception Eval_error of string

let eval_error fmt = Format.kasprintf (fun s -> raise (Eval_error s)) fmt

type env = (string * Value.t) list

(* extend [env] so that the atom's arguments match the tuple literally
   (nulls are values: marked nulls only match themselves) *)
let match_tuple env (args : Syntax.term list) (t : Tuple.t) : env option =
  let rec go env i = function
    | [] -> Some env
    | Syntax.Val v :: rest ->
      if Value.equal v t.(i) then go env (i + 1) rest else None
    | Syntax.Var x :: rest ->
      (match List.assoc_opt x env with
       | Some v -> if Value.equal v t.(i) then go env (i + 1) rest else None
       | None -> go ((x, t.(i)) :: env) (i + 1) rest)
  in
  if List.length args <> Tuple.arity t then None else go env 0 args

let instantiate_head env (head : Syntax.atom) : Tuple.t =
  Array.of_list
    (List.map
       (function
         | Syntax.Val v -> v
         | Syntax.Var x ->
           (match List.assoc_opt x env with
            | Some v -> v
            | None -> assert false (* ruled out by safety *)))
       head.args)

(* ------------------------------------------------------------------ *)
(* planner-backed rule bodies                                          *)
(* ------------------------------------------------------------------ *)

(* A rule body compiles once into a left-deep join tree over synthetic
   base names "$0".."$n-1" (one per body atom occurrence):

     plan_0 = $0
     plan_i = σ[shared-variable equalities]( plan_{i-1} × $i )

   so the planner turns every level into a hash equi-join on the
   variables the new atom shares with the prefix.  Value literals in
   atom arguments (constants or marked nulls) are enforced by a
   prefilter applied when the base name is resolved, which keeps the
   algebra free of null literals that [Condition] cannot express.  Head
   literals become an appended [Lit] column; the head itself is a final
   projection.  The same compiled plan serves every semi-naive firing:
   only the resolver changes which atom occurrence reads the delta. *)
type compiled_rule = {
  atoms : Syntax.atom array;
  atom_lits : (int * Value.t) list array;
      (* per atom: positions pinned to a value literal *)
  plan : Plan.t;
}

let base_name i = Printf.sprintf "$%d" i

let base_index name = int_of_string (String.sub name 1 (String.length name - 1))

let compile_rule (r : Syntax.rule) : compiled_rule =
  let atoms = Array.of_list r.body in
  let n = Array.length atoms in
  let arities = Array.map (fun (a : Syntax.atom) -> List.length a.args) atoms in
  let offsets = Array.make (max n 1) 0 in
  for i = 1 to n - 1 do
    offsets.(i) <- offsets.(i - 1) + arities.(i - 1)
  done;
  let total = if n = 0 then 0 else offsets.(n - 1) + arities.(n - 1) in
  let atom_lits =
    Array.map
      (fun (a : Syntax.atom) ->
        List.mapi (fun j arg -> (j, arg)) a.args
        |> List.filter_map (function
             | j, Syntax.Val v -> Some (j, v)
             | _, Syntax.Var _ -> None))
      atoms
  in
  let first_occ : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let body_alg = ref None in
  for i = 0 to n - 1 do
    let a = atoms.(i) in
    let conds = ref [] in
    List.iteri
      (fun j arg ->
        match arg with
        | Syntax.Val _ -> ()
        | Syntax.Var x ->
          let pos = offsets.(i) + j in
          (match Hashtbl.find_opt first_occ x with
           | Some p -> conds := Condition.eq_col p pos :: !conds
           | None -> Hashtbl.add first_occ x pos))
      a.args;
    let atom_alg = Algebra.Rel (base_name i) in
    let combined =
      match !body_alg with
      | None -> atom_alg
      | Some prev -> Algebra.Product (prev, atom_alg)
    in
    let combined =
      match !conds with
      | [] -> combined
      | c :: rest ->
        Algebra.Select
          (List.fold_left (fun acc c -> Condition.And (acc, c)) c rest,
           combined)
    in
    body_alg := Some combined
  done;
  let body_alg =
    match !body_alg with
    | Some a -> a
    | None -> Algebra.Lit (0, [ Tuple.empty ])
  in
  let lit_vals = ref [] and lit_count = ref 0 in
  let proj =
    List.map
      (function
        | Syntax.Var x ->
          (match Hashtbl.find_opt first_occ x with
           | Some p -> p
           | None -> assert false (* ruled out by safety *))
        | Syntax.Val v ->
          let idx = total + !lit_count in
          incr lit_count;
          lit_vals := v :: !lit_vals;
          idx)
      r.head.args
  in
  let body_alg =
    if !lit_count = 0 then body_alg
    else
      Algebra.Product
        ( body_alg,
          Algebra.Lit (!lit_count, [ Array.of_list (List.rev !lit_vals) ]) )
  in
  let algebra = Algebra.Project (proj, body_alg) in
  let rel_arity name = arities.(base_index name) in
  { atoms; atom_lits; plan = Planner.compile ~rel_arity algebra }

let fire_planned ?(pool = None) ?guard compiled ~relation_of ~delta ~delta_at
    =
  let base name =
    let i = base_index name in
    let a = compiled.atoms.(i) in
    let rel =
      if Some i = delta_at then
        match Hashtbl.find_opt delta a.Syntax.pred with
        | Some d -> d
        | None -> Relation.empty (List.length a.Syntax.args)
      else relation_of a.Syntax.pred
    in
    match compiled.atom_lits.(i) with
    | [] -> rel
    | lits ->
      Relation.filter
        (fun t -> List.for_all (fun (j, v) -> Value.equal t.(j) v) lits)
        rel
  in
  Plan.run_set ~pool ?guard ~base ~dom1:(lazy (Relation.empty 1))
    compiled.plan

(* match the body left to right; [delta_at] forces one designated body
   position to range over the delta instead of the full instance *)
let fire_nested ~relation_of (r : Syntax.rule) ~delta ~delta_at =
  let rec go envs i = function
    | [] -> envs
    | (a : Syntax.atom) :: rest ->
      let rel =
        if Some i = delta_at then
          match Hashtbl.find_opt delta a.pred with
          | Some d -> d
          | None -> Relation.empty (List.length a.args)
        else relation_of a.pred
      in
      let envs' =
        List.concat_map
          (fun env ->
            Relation.fold
              (fun t acc ->
                match match_tuple env a.args t with
                | Some env' -> env' :: acc
                | None -> acc)
              rel [])
          envs
      in
      go envs' (i + 1) rest
  in
  List.map (fun env -> instantiate_head env r.head) (go [ [] ] 0 r.body)

(* one-step derivability of a single tuple with the head pre-bound:
   unify the head with [t], then backtrack through the body left to
   right.  The bound head variables make the body matches selective, so
   probing one overdeleted tuple costs a filtered scan instead of the
   full-instance join a whole re-derivation round would pay. *)
let rederives ~relation_of (r : Syntax.rule) (t : Tuple.t) =
  match match_tuple [] r.head.args t with
  | None -> false
  | Some env0 ->
    let ground env (args : Syntax.term list) =
      let rec go acc = function
        | [] -> Some (Array.of_list (List.rev acc))
        | Syntax.Val v :: rest -> go (v :: acc) rest
        | Syntax.Var x :: rest ->
          (match List.assoc_opt x env with
           | Some v -> go (v :: acc) rest
           | None -> None)
      in
      go [] args
    in
    let rec sat env = function
      | [] -> true
      | (a : Syntax.atom) :: rest -> (
        (* a fully bound atom is a membership probe, not a scan *)
        match ground env a.args with
        | Some t -> Relation.mem t (relation_of a.pred) && sat env rest
        | None ->
          Relation.fold
            (fun tu found ->
              found
              ||
              match match_tuple env a.args tu with
              | Some env' -> sat env' rest
              | None -> false)
            (relation_of a.pred) false)
    in
    sat env0 r.body

let make_rules ~planner program =
  List.map
    (fun (r : Syntax.rule) ->
      (r, if planner then Some (compile_rule r) else None))
    program

let fire ~pool ?guard ~relation_of (r, compiled) ~delta ~delta_at =
  match compiled with
  | Some c ->
    Relation.to_list
      (fire_planned ~pool ?guard c ~relation_of ~delta ~delta_at)
  | None -> fire_nested ~relation_of r ~delta ~delta_at

(* stage head tuples not yet in the fixpoint table into [acc_tbl] *)
let add_new ~full acc_tbl p tuples =
  let known = Hashtbl.find full p in
  let fresh =
    List.filter (fun t -> not (Relation.mem t known)) tuples
  in
  if fresh <> [] then begin
    let current =
      match Hashtbl.find_opt acc_tbl p with
      | Some r -> r
      | None -> Relation.empty (Relation.arity known)
    in
    Hashtbl.replace acc_tbl p
      (List.fold_left (fun r t -> Relation.add t r) current fresh)
  end

(* merge a staged delta into the fixpoint table, recording which
   predicates actually gained tuples *)
let commit ~full ~changed delta =
  Hashtbl.iter
    (fun p d ->
      if not (Relation.is_empty d) then Hashtbl.replace changed p ();
      Hashtbl.replace full p (Relation.union (Hashtbl.find full p) d))
    delta

(* Semi-naive propagation: repeatedly fire every (rule, body position)
   whose predicate has a pending delta, merging genuinely new head
   tuples into [full], until no new tuples appear.  [delta0] must
   already be reflected in the instance the firings read — committed
   into [full] for IDB deltas (from-scratch evaluation), or applied to
   the base database for EDB deltas (incremental insert).

   Within one round all firings read the same snapshot: [full] and the
   incoming delta are only written between rounds, so the firings are
   independent and run in parallel; derived tuples are then merged
   sequentially in rule order, which makes the round deterministic.
   Each firing runs a planned query with the same pool; those inner
   joins run sequentially inside a firing's chunk. *)
let saturate ~pool ?guard ~rules ~relation_of ~full ~changed delta0 =
  let rec loop delta rounds =
    if rounds > 100_000 then eval_error "fixpoint did not converge";
    (* one guard check per semi-naive round: recursive programs on
       cyclic data can run many rounds, so the deadline is re-examined
       between fixpoint iterations; the round is also a fault-injection
       site, so the robustness tests can kill or stall any iteration *)
    Guard.check guard;
    Guard.inject "datalog.round";
    if Hashtbl.length delta = 0 then ()
    else begin
      let firings =
        List.concat_map
          (fun ((r : Syntax.rule), _ as rule) ->
            List.concat
              (List.mapi
                 (fun i (a : Syntax.atom) ->
                   if Hashtbl.mem delta a.pred then [ (rule, r.head.pred, i) ]
                   else [])
                 r.body))
          rules
      in
      let results =
        Pool.parallel_map ~cutoff:1 ?guard pool
          (fun (rule, p, i) ->
            (p, fire ~pool ?guard ~relation_of rule ~delta ~delta_at:(Some i)))
          firings
      in
      let next = Hashtbl.create 8 in
      List.iter (fun (p, tuples) -> add_new ~full next p tuples) results;
      commit ~full ~changed next;
      loop next (rounds + 1)
    end
  in
  loop delta0 0

(* from-scratch evaluation into a fresh fixpoint table; shared by
   [run_all] and [materialize] *)
let eval_into ~planner ~pool ?guard db program =
  let schema = Database.schema db in
  let edb =
    List.map
      (fun (d : Schema.relation_decl) -> (d.name, List.length d.attributes))
      (Schema.relations schema)
  in
  let idb = Syntax.validate ~edb program in
  let full : (string, Relation.t) Hashtbl.t = Hashtbl.create 8 in
  List.iter (fun (p, k) -> Hashtbl.replace full p (Relation.empty k)) idb;
  let relation_of p =
    match Hashtbl.find_opt full p with
    | Some r -> r
    | None -> Database.relation db p
  in
  let rules = make_rules ~planner program in
  (* first round: fire every rule against the EDB (IDB still empty) *)
  let initial_delta = Hashtbl.create 8 in
  Guard.check guard;
  Guard.inject "datalog.round";
  let initial_results =
    Pool.parallel_map ~cutoff:1 ?guard pool
      (fun ((r : Syntax.rule), _ as rule) ->
        (r.head.pred,
         fire ~pool ?guard ~relation_of rule ~delta:initial_delta
           ~delta_at:None))
      rules
  in
  List.iter
    (fun (p, tuples) -> add_new ~full initial_delta p tuples)
    initial_results;
  let changed = Hashtbl.create 8 in
  commit ~full ~changed initial_delta;
  (* semi-naive iterations: every firing must read at least one delta *)
  saturate ~pool ?guard ~rules ~relation_of ~full ~changed initial_delta;
  (rules, idb, full)

let run_all ?(planner = true) ?(pool = Pool.auto ()) ?guard db program =
  let _, idb, full = eval_into ~planner ~pool ?guard db program in
  List.map (fun (p, _) -> (p, Hashtbl.find full p)) idb

let all_idb ?planner ?pool ?guard db program =
  run_all ?planner ?pool ?guard db program

let run ?planner ?pool ?guard db program pred =
  match List.assoc_opt pred (run_all ?planner ?pool ?guard db program) with
  | Some r -> r
  | None -> eval_error "%s is not an IDB predicate of the program" pred

(* ------------------------------------------------------------------ *)
(* incremental maintenance                                             *)
(* ------------------------------------------------------------------ *)

type materialized = {
  rules : (Syntax.rule * compiled_rule option) list;
  idb_arities : (string * int) list;
  mutable db : Database.t;
  full : (string, Relation.t) Hashtbl.t;
  pool : Pool.t option;
}

let materialize ?(planner = true) ?(pool = Pool.auto ()) ?guard db program =
  let rules, idb, full = eval_into ~planner ~pool ?guard db program in
  { rules; idb_arities = idb; db; full; pool }

let database m = m.db

let idb m = List.map (fun (p, _) -> (p, Hashtbl.find m.full p)) m.idb_arities

let idb_relation m pred =
  match List.assoc_opt pred m.idb_arities with
  | Some _ -> Hashtbl.find m.full pred
  | None -> eval_error "%s is not an IDB predicate of the program" pred

let is_idb m pred = List.mem_assoc pred m.idb_arities

(* reads the CURRENT state on every call — [m.db] is reassigned by
   updates, so this must not capture the database value *)
let live_relation m p =
  match Hashtbl.find_opt m.full p with
  | Some r -> r
  | None -> Database.relation m.db p

let checked_base m op pred tuples =
  if List.mem_assoc pred m.idb_arities then
    eval_error "%s %s: cannot update an IDB predicate" op pred;
  let current =
    try Database.relation m.db pred
    with Not_found -> eval_error "%s %s: unknown relation" op pred
  in
  let k = Relation.arity current in
  List.iter
    (fun t ->
      if Tuple.arity t <> k then
        eval_error "%s %s: arity mismatch (expected %d, got %d)" op pred k
          (Tuple.arity t))
    tuples;
  current

let changed_list changed = List.sort_uniq compare (Hashtbl.fold (fun p () acc -> p :: acc) changed [])

let insert ?guard m pred tuples =
  let current = checked_base m "insert" pred tuples in
  let fresh = List.filter (fun t -> not (Relation.mem t current)) tuples in
  if fresh = [] then []
  else begin
    let delta_rel =
      List.fold_left
        (fun r t -> Relation.add t r)
        (Relation.empty (Relation.arity current))
        fresh
    in
    (* commit the EDB delta first: semi-naive firings read the updated
       base at non-delta positions, so Δ×Δ derivations are covered *)
    m.db <- Database.set_relation m.db pred (Relation.union current delta_rel);
    let delta0 = Hashtbl.create 1 in
    Hashtbl.replace delta0 pred delta_rel;
    let changed = Hashtbl.create 8 in
    Hashtbl.replace changed pred ();
    saturate ~pool:m.pool ?guard ~rules:m.rules ~relation_of:(live_relation m)
      ~full:m.full ~changed delta0;
    changed_list changed
  end

(* DRed-style deletion in three phases:

   1. {e overdeletion}: close the deleted set under rule firing over
      the ORIGINAL instance — when a tuple enters the deleted set, every
      rule position mentioning its predicate fires with the new
      arrivals as the delta, and derived head tuples currently in the
      fixpoint join the set.  By induction on derivation trees this
      reaches every IDB tuple with at least one derivation using a
      deleted tuple;
   2. {e removal}: subtract the deleted sets from the base relation and
      the fixpoint table.  What remains is exactly the tuples all of
      whose derivations avoid deleted tuples, hence a subset of the new
      fixpoint;
   3. {e re-derivation}: one full round over the reduced instance —
      restricted to rules whose head lost tuples, the only ones that
      can produce anything new — seeds ordinary semi-naive propagation,
      which resumes the from-scratch evaluation from the reduced
      instance and therefore converges to the new fixpoint. *)
let delete ?guard m pred tuples =
  let current = checked_base m "delete" pred tuples in
  let removed = List.filter (fun t -> Relation.mem t current) tuples in
  if removed = [] then []
  else begin
    let removed_rel =
      List.fold_left
        (fun r t -> Relation.add t r)
        (Relation.empty (Relation.arity current))
        removed
    in
    (* phase 1: overdeletion over the original (not yet reduced)
       instance *)
    let orig_relation_of = live_relation m in
    let deleted : (string, Relation.t) Hashtbl.t = Hashtbl.create 8 in
    let frontier0 = Hashtbl.create 1 in
    Hashtbl.replace frontier0 pred removed_rel;
    let rec over_loop frontier rounds =
      if rounds > 100_000 then eval_error "fixpoint did not converge";
      Guard.check guard;
      Guard.inject "datalog.round";
      if Hashtbl.length frontier = 0 then ()
      else begin
        let firings =
          List.concat_map
            (fun ((r : Syntax.rule), _ as rule) ->
              List.concat
                (List.mapi
                   (fun i (a : Syntax.atom) ->
                     if Hashtbl.mem frontier a.pred then
                       [ (rule, r.head.pred, i) ]
                     else [])
                   r.body))
            m.rules
        in
        let results =
          Pool.parallel_map ~cutoff:1 ?guard m.pool
            (fun (rule, p, i) ->
              (p,
               fire ~pool:m.pool ?guard ~relation_of:orig_relation_of rule
                 ~delta:frontier ~delta_at:(Some i)))
            firings
        in
        let next = Hashtbl.create 8 in
        List.iter
          (fun (p, ts) ->
            let live = Hashtbl.find m.full p in
            let already =
              match Hashtbl.find_opt deleted p with
              | Some r -> r
              | None -> Relation.empty (Relation.arity live)
            in
            let fresh =
              List.filter
                (fun t -> Relation.mem t live && not (Relation.mem t already))
                ts
            in
            if fresh <> [] then begin
              let grown =
                List.fold_left (fun r t -> Relation.add t r) already fresh
              in
              Hashtbl.replace deleted p grown;
              let staged =
                match Hashtbl.find_opt next p with
                | Some r -> r
                | None -> Relation.empty (Relation.arity live)
              in
              Hashtbl.replace next p
                (List.fold_left (fun r t -> Relation.add t r) staged fresh)
            end)
          results;
        over_loop next (rounds + 1)
      end
    in
    over_loop frontier0 0;
    (* phase 2: apply the removals *)
    m.db <- Database.set_relation m.db pred (Relation.diff current removed_rel);
    Hashtbl.iter
      (fun p d ->
        Hashtbl.replace m.full p (Relation.diff (Hashtbl.find m.full p) d))
      deleted;
    (* phase 3: re-derive and propagate over the reduced instance.
       Only overdeleted tuples can be re-derivable one step from the
       survivors (the survivors were closed before the deletion), so
       for small overdeletions we probe each overdeleted tuple with
       the rule head pre-bound — cost proportional to the delta — and
       only fall back to a full firing round (restricted to rules
       whose head lost tuples, cost proportional to the instance)
       when the overdeletion is a large fraction of the fixpoint. *)
    let relation_of = live_relation m in
    let rederive_rules =
      List.filter
        (fun ((r : Syntax.rule), _) -> Hashtbl.mem deleted r.head.pred)
        m.rules
    in
    if rederive_rules <> [] then begin
      Guard.check guard;
      Guard.inject "datalog.round";
      let deleted_total =
        Hashtbl.fold (fun _ r acc -> acc + Relation.cardinal r) deleted 0
      in
      let full_total =
        Hashtbl.fold (fun _ r acc -> acc + Relation.cardinal r) m.full 0
      in
      let seed = Hashtbl.create 8 in
      if deleted_total * 8 <= full_total then
        Hashtbl.iter
          (fun p dels ->
            let rules_for_p =
              List.filter
                (fun ((r : Syntax.rule), _) -> r.head.pred = p)
                m.rules
            in
            let restored =
              Relation.filter
                (fun t ->
                  List.exists
                    (fun ((r : Syntax.rule), _) -> rederives ~relation_of r t)
                    rules_for_p)
                dels
            in
            if not (Relation.is_empty restored) then
              Hashtbl.replace seed p restored)
          deleted
      else begin
        let no_delta = Hashtbl.create 1 in
        let results =
          Pool.parallel_map ~cutoff:1 ?guard m.pool
            (fun ((r : Syntax.rule), _ as rule) ->
              (r.head.pred,
               fire ~pool:m.pool ?guard ~relation_of rule ~delta:no_delta
                 ~delta_at:None))
            rederive_rules
        in
        List.iter (fun (p, ts) -> add_new ~full:m.full seed p ts) results
      end;
      let rederived = Hashtbl.create 8 in
      commit ~full:m.full ~changed:rederived seed;
      saturate ~pool:m.pool ?guard ~rules:m.rules ~relation_of ~full:m.full
        ~changed:rederived seed
    end;
    (* a predicate changed iff some overdeleted tuple was not
       re-derived (re-derivation can only restore previously present
       tuples, so gains never offset elsewhere) *)
    let changed = Hashtbl.create 8 in
    Hashtbl.replace changed pred ();
    Hashtbl.iter
      (fun p d ->
        if not (Relation.subset d (Hashtbl.find m.full p)) then
          Hashtbl.replace changed p ())
      deleted;
    changed_list changed
  end

let program_consts (program : Syntax.program) =
  let add c acc =
    if List.exists (Value.equal_const c) acc then acc else c :: acc
  in
  let term_consts acc = function
    | Syntax.Val (Value.Const c) -> add c acc
    | Syntax.Val (Value.Null _) | Syntax.Var _ -> acc
  in
  List.fold_left
    (fun acc (r : Syntax.rule) ->
      List.fold_left term_consts
        (List.fold_left term_consts acc r.head.args)
        (List.concat_map (fun (a : Syntax.atom) -> a.args) r.body))
    [] program

let certain_exact db program pred =
  Incdb_certain.Certainty.cert_with_nulls
    ~run:(fun d -> run d program pred)
    ~query_consts:(program_consts program) db

let transitive_closure ~edge ~path =
  let x = Syntax.Var "x" and y = Syntax.Var "y" and z = Syntax.Var "z" in
  [ Syntax.rule (Syntax.atom path [ x; y ]) [ Syntax.atom edge [ x; y ] ];
    Syntax.rule
      (Syntax.atom path [ x; z ])
      [ Syntax.atom edge [ x; y ]; Syntax.atom path [ y; z ] ] ]
