module String_map = Map.Make (String)

type t = {
  rels : bool array Lazy.t String_map.t;
  any_null : bool Lazy.t;
}

let relation_columns r =
  let cols = Array.make (Relation.arity r) false in
  Relation.iter
    (fun t ->
      Array.iteri (fun i v -> if Value.is_null v then cols.(i) <- true) t)
    r;
  cols

let of_database db =
  let rels =
    Database.fold
      (fun name r acc -> String_map.add name (lazy (relation_columns r)) acc)
      db String_map.empty
  in
  let any_null =
    lazy (String_map.exists (fun _ c -> Array.exists Fun.id (Lazy.force c)) rels)
  in
  { rels; any_null }

let has_null facts = Lazy.force facts.any_null

let rel facts name =
  match String_map.find_opt name facts.rels with
  | Some c -> Lazy.force c
  | None -> raise (Algebra.Type_error ("unknown relation " ^ name))

(* Sound for naive evaluation on the database of [facts], and so for
   the Q⁺/Q?/Qᵗ/Qᶠ translations, which are evaluated naively: a column
   is marked whenever some tuple of the subquery's answer can hold a
   null there.  Selections keep their input's marks; an intersection
   holds a null only where both sides can; a difference, a division and
   an anti-semijoin answer only tuples of their left input. *)
let rec columns facts q =
  match q with
  | Algebra.Rel name -> rel facts name
  | Algebra.Lit (k, ts) ->
    Array.init k (fun i -> List.exists (fun t -> Value.is_null t.(i)) ts)
  | Algebra.Select (_, q1) -> columns facts q1
  | Algebra.Project (idxs, q1) ->
    let c = columns facts q1 in
    Array.of_list (List.map (fun i -> c.(i)) idxs)
  | Algebra.Product (q1, q2) -> Array.append (columns facts q1) (columns facts q2)
  | Algebra.Union (q1, q2) ->
    Array.map2 ( || ) (columns facts q1) (columns facts q2)
  | Algebra.Inter (q1, q2) ->
    Array.map2 ( && ) (columns facts q1) (columns facts q2)
  | Algebra.Diff (q1, _) | Algebra.Anti_unify_join (q1, _) -> columns facts q1
  | Algebra.Division (q1, q2) ->
    let c1 = columns facts q1 in
    Array.sub c1 0 (Array.length c1 - Array.length (columns facts q2))
  | Algebra.Dom k -> Array.make k (has_null facts)

let null_free nullable = function
  | Condition.Col i -> not nullable.(i)
  | Condition.Lit _ -> true

let rec prune_condition nullable c =
  match c with
  | Condition.Is_null i when not nullable.(i) -> Condition.False
  | Condition.Is_const i when not nullable.(i) -> Condition.True
  | Condition.And (a, b) ->
    (match (prune_condition nullable a, prune_condition nullable b) with
     | Condition.False, _ | _, Condition.False -> Condition.False
     | Condition.True, c | c, Condition.True -> c
     | a, b -> Condition.And (a, b))
  | Condition.Or (a, b) ->
    (match (prune_condition nullable a, prune_condition nullable b) with
     | Condition.True, _ | _, Condition.True -> Condition.True
     | Condition.False, c | c, Condition.False -> c
     | a, b -> Condition.Or (a, b))
  | c -> c

let rec prune facts q =
  let go = prune facts in
  match q with
  | Algebra.Rel _ | Algebra.Lit _ | Algebra.Dom _ -> q
  | Algebra.Select (c, q1) ->
    let q1 = go q1 in
    let nullable = columns facts q1 in
    (match prune_condition nullable c with
     | Condition.True -> q1
     | Condition.False -> Algebra.Lit (Array.length nullable, [])
     | c -> Algebra.Select (c, q1))
  | Algebra.Project (idxs, q1) -> Algebra.Project (idxs, go q1)
  | Algebra.Product (q1, q2) -> Algebra.Product (go q1, go q2)
  | Algebra.Union (q1, q2) -> Algebra.Union (go q1, go q2)
  | Algebra.Inter (q1, q2) -> Algebra.Inter (go q1, go q2)
  | Algebra.Diff (q1, q2) -> Algebra.Diff (go q1, go q2)
  | Algebra.Division (q1, q2) -> Algebra.Division (go q1, go q2)
  | Algebra.Anti_unify_join (q1, q2) -> Algebra.Anti_unify_join (go q1, go q2)

let prune_on db q =
  ignore (Algebra.arity (Database.schema db) q);
  prune (of_database db) q

let rec order_sees_null_in nullable = function
  | Condition.Lt (x, y) | Condition.Le (x, y) ->
    not (null_free nullable x && null_free nullable y)
  | Condition.And (a, b) | Condition.Or (a, b) ->
    order_sees_null_in nullable a || order_sees_null_in nullable b
  | Condition.True | Condition.False | Condition.Is_const _
  | Condition.Is_null _ | Condition.Eq _ | Condition.Neq _ ->
    false

let rec order_sees_null facts q =
  let go = order_sees_null facts in
  match q with
  | Algebra.Rel _ | Algebra.Lit _ | Algebra.Dom _ -> false
  | Algebra.Select (c, q1) ->
    order_sees_null_in (columns facts q1) c || go q1
  | Algebra.Project (_, q1) -> go q1
  | Algebra.Product (q1, q2) | Algebra.Union (q1, q2) | Algebra.Inter (q1, q2)
  | Algebra.Diff (q1, q2) | Algebra.Division (q1, q2)
  | Algebra.Anti_unify_join (q1, q2) ->
    go q1 || go q2
