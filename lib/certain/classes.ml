let rec condition_is_positive = function
  | Condition.True | Condition.False -> true
  | Condition.Is_const _ | Condition.Is_null _ -> false
  | Condition.Eq _ -> true
  | Condition.Neq _ | Condition.Lt _ | Condition.Le _ -> false
  | Condition.And (a, b) | Condition.Or (a, b) ->
    condition_is_positive a && condition_is_positive b

let rec is_positive = function
  | Algebra.Rel _ | Algebra.Lit _ -> true
  | Algebra.Select (cond, q) -> condition_is_positive cond && is_positive q
  | Algebra.Project (_, q) -> is_positive q
  | Algebra.Product (q1, q2) | Algebra.Union (q1, q2)
  | Algebra.Inter (q1, q2) ->
    is_positive q1 && is_positive q2
  | Algebra.Diff _ | Algebra.Division _ | Algebra.Anti_unify_join _
  | Algebra.Dom _ ->
    false

let is_ucq = is_positive

(* every atom but an equality reads only constants: a valuation keeps
   constants, so it cannot change the atom's truth *)
let rec condition_reads_constants nullable = function
  | Condition.True | Condition.False | Condition.Eq _ -> true
  | Condition.Neq (x, y) | Condition.Lt (x, y) | Condition.Le (x, y) ->
    Nullable.null_free nullable x && Nullable.null_free nullable y
  | Condition.Is_const i | Condition.Is_null i -> not nullable.(i)
  | Condition.And (a, b) | Condition.Or (a, b) ->
    condition_reads_constants nullable a && condition_reads_constants nullable b

let rec naive_exact facts q =
  match q with
  | Algebra.Rel _ -> true
  | Algebra.Lit (_, ts) -> List.for_all Tuple.is_complete ts
  | Algebra.Select (cond, q1) ->
    naive_exact facts q1
    && condition_reads_constants (Nullable.columns facts q1) cond
  | Algebra.Project (_, q1) -> naive_exact facts q1
  | Algebra.Product (q1, q2) | Algebra.Union (q1, q2)
  | Algebra.Inter (q1, q2) ->
    naive_exact facts q1 && naive_exact facts q2
  | Algebra.Diff _ | Algebra.Division _ | Algebra.Anti_unify_join _
  | Algebra.Dom _ ->
    false

let rec is_pos_forall_g = function
  | Algebra.Rel _ | Algebra.Lit _ -> true
  | Algebra.Select (cond, q) ->
    condition_is_positive cond && is_pos_forall_g q
  | Algebra.Project (_, q) -> is_pos_forall_g q
  | Algebra.Product (q1, q2) | Algebra.Union (q1, q2)
  | Algebra.Inter (q1, q2) ->
    is_pos_forall_g q1 && is_pos_forall_g q2
  | Algebra.Division (q1, q2) -> is_pos_forall_g q1 && is_positive q2
  | Algebra.Diff _ | Algebra.Anti_unify_join _ | Algebra.Dom _ -> false

let rec has_dup = function
  | [] -> false
  | x :: rest -> List.mem x rest || has_dup rest

let dedup_projections schema q =
  let rec go q =
    match q with
    | Algebra.Rel _ | Algebra.Lit _ | Algebra.Dom _ -> q
    | Algebra.Select (cond, q1) -> Algebra.Select (cond, go q1)
    | Algebra.Product (q1, q2) -> Algebra.Product (go q1, go q2)
    | Algebra.Union (q1, q2) -> Algebra.Union (go q1, go q2)
    | Algebra.Inter (q1, q2) -> Algebra.Inter (go q1, go q2)
    | Algebra.Diff (q1, q2) -> Algebra.Diff (go q1, go q2)
    | Algebra.Division (q1, q2) -> Algebra.Division (go q1, go q2)
    | Algebra.Anti_unify_join (q1, q2) ->
      Algebra.Anti_unify_join (go q1, go q2)
    | Algebra.Project (idxs, q1) ->
      let q1 = go q1 in
      if not (has_dup idxs) then Algebra.Project (idxs, q1)
      else begin
        (* β: the distinct columns, in order of first occurrence *)
        let beta =
          List.fold_left
            (fun acc i -> if List.mem i acc then acc else acc @ [ i ])
            [] idxs
        in
        let beta_pos i =
          let rec find j = function
            | [] -> assert false
            | x :: rest -> if x = i then j else find (j + 1) rest
          in
          find 0 beta
        in
        (* duplicate slots, each re-derived from a single-column copy of
           q1 crossed in and equated with its β column *)
        let duplicates =
          (* positions in idxs beyond the first occurrence of a column *)
          let seen = ref [] in
          List.filter_map
            (fun i ->
              if List.mem i !seen then Some i
              else begin
                seen := i :: !seen;
                None
              end)
            idxs
        in
        let width = List.length beta in
        let base = Algebra.Project (beta, q1) in
        let crossed, _ =
          List.fold_left
            (fun (acc, col) i ->
              let extended =
                Algebra.Select
                  ( Condition.eq_col (beta_pos i) col,
                    Algebra.Product (acc, Algebra.Project ([ i ], q1)) )
              in
              (extended, col + 1))
            (base, width) duplicates
        in
        (* final rearrangement, duplicate-free by construction: the
           j-th output slot takes its β column on first occurrence and
           its dedicated extra column afterwards *)
        let final =
          let seen = ref [] in
          let next_extra = ref width in
          List.map
            (fun i ->
              if List.mem i !seen then begin
                let c = !next_extra in
                incr next_extra;
                c
              end
              else begin
                seen := i :: !seen;
                beta_pos i
              end)
            idxs
        in
        ignore schema;
        Algebra.Project (final, crossed)
      end
  in
  go q

let expand_division schema q =
  let rec go q =
    match q with
    | Algebra.Rel _ | Algebra.Lit _ | Algebra.Dom _ -> q
    | Algebra.Select (cond, q1) -> Algebra.Select (cond, go q1)
    | Algebra.Project (idxs, q1) -> Algebra.Project (idxs, go q1)
    | Algebra.Product (q1, q2) -> Algebra.Product (go q1, go q2)
    | Algebra.Union (q1, q2) -> Algebra.Union (go q1, go q2)
    | Algebra.Inter (q1, q2) -> Algebra.Inter (go q1, go q2)
    | Algebra.Diff (q1, q2) -> Algebra.Diff (go q1, go q2)
    | Algebra.Anti_unify_join (q1, q2) -> Algebra.Anti_unify_join (go q1, go q2)
    | Algebra.Division (q1, q2) ->
      let r = go q1 and s = go q2 in
      let kr = Algebra.arity schema r and ks = Algebra.arity schema s in
      let n = kr - ks in
      let head = List.init n (fun i -> i) in
      let candidates = Algebra.Project (head, r) in
      (* tuples ā with some b̄ ∈ s such that (ā,b̄) ∉ r *)
      let missing =
        Algebra.Project
          (head, Algebra.Diff (Algebra.Product (candidates, s), r))
      in
      Algebra.Diff (candidates, missing)
  in
  go q
