type bound =
  | Neg_inf
  | Fin of int
  | Pos_inf

let compare_bound b1 b2 =
  match b1, b2 with
  | Neg_inf, Neg_inf | Pos_inf, Pos_inf -> 0
  | Neg_inf, _ -> -1
  | _, Neg_inf -> 1
  | Pos_inf, _ -> 1
  | _, Pos_inf -> -1
  | Fin a, Fin b -> Int.compare a b

let pp_bound ppf = function
  | Neg_inf -> Format.pp_print_string ppf "-inf"
  | Pos_inf -> Format.pp_print_string ppf "+inf"
  | Fin n -> Format.pp_print_int ppf n

type range = {
  lo : bound;
  hi : bound;
  empty_possible : bool;
}

let pp_range ppf r =
  Format.fprintf ppf "[%a, %a]%s" pp_bound r.lo pp_bound r.hi
    (if r.empty_possible then " (possibly empty)" else "")

type op =
  | Sum
  | Min
  | Max

exception Unsupported of string

let world_answers db q =
  let run = Certainty.ra_run db q in
  List.of_seq
    (Seq.map
       (fun (_, world) -> run world)
       (Certainty.canonical_world_seq ~query_consts:(Algebra.consts q) db))

let count_range db q =
  match List.map Relation.cardinal (world_answers db q) with
  | [] -> assert false
  | c :: cs ->
    (List.fold_left min c cs, List.fold_left max c cs)

(* a greedy set of pairwise non-unifiable tuples: they stay distinct
   under every valuation, so their number bounds each world's answer
   cardinality from below *)
let greedy_antichain r =
  Relation.fold
    (fun t chosen ->
      if List.exists (Tuple.unifiable t) chosen then chosen else t :: chosen)
    r []

let count_bounds db q =
  let plus = Scheme_pm.certain_sub db q in
  let maybe = Scheme_pm.possible_sup db q in
  (List.length (greedy_antichain plus), Relation.cardinal maybe)

let column_int t col =
  match t.(col) with
  | Value.Const (Value.Int n) -> Some n
  | Value.Const (Value.Str _) | Value.Const (Value.Gen _) ->
    raise (Unsupported "Aggregate: non-integer constant in column")
  | Value.Null _ -> None

let range db q ~col op =
  let k = Algebra.arity (Database.schema db) q in
  if col < 0 || col >= k then
    raise (Unsupported (Printf.sprintf "Aggregate: column %d of arity %d" col k));
  (* does any possible answer put a null in the column?  Q? is an
     over-approximation, so a null-free Q? column certifies finiteness *)
  let possible = Scheme_pm.possible_sup db q in
  let has_null =
    Relation.exists (fun t -> Value.is_null t.(col)) possible
  in
  (* probe for non-integer constants regardless *)
  Relation.iter (fun t -> ignore (column_int t col)) possible;
  if has_null then begin
    (* the unknown value is an arbitrary integer, so the range is
       unbounded towards the side the unknown can push; certain answers
       with a constant in the column still clamp the other side *)
    let certain = Scheme_pm.certain_sub db q in
    let certain_values =
      Relation.fold
        (fun t acc ->
          match column_int t col with Some n -> n :: acc | None -> acc)
        certain []
    in
    (* Q⁺ non-empty certifies a non-empty answer in every world *)
    let empty_possible = Relation.is_empty certain in
    match op with
    | Sum -> { lo = Neg_inf; hi = Pos_inf; empty_possible = false }
    | Min ->
      let hi =
        (* a certain tuple with value m forces MIN ≤ m in every world *)
        match certain_values with
        | [] -> Pos_inf
        | v :: vs -> Fin (List.fold_left min v vs)
      in
      { lo = Neg_inf; hi; empty_possible }
    | Max ->
      let lo =
        match certain_values with
        | [] -> Neg_inf
        | v :: vs -> Fin (List.fold_left max v vs)
      in
      { lo; hi = Pos_inf; empty_possible }
  end
  else begin
    let answers = world_answers db q in
    let aggregate_world r =
      let values =
        Relation.fold
          (fun t acc ->
            match column_int t col with
            | Some n -> n :: acc
            | None -> acc (* unreachable: certified null-free *))
          r []
      in
      match op, values with
      | Sum, vs -> Some (List.fold_left ( + ) 0 vs)
      | (Min | Max), [] -> None
      | Min, v :: vs -> Some (List.fold_left min v vs)
      | Max, v :: vs -> Some (List.fold_left max v vs)
    in
    let results = List.map aggregate_world answers in
    let empty_possible = List.exists (fun r -> r = None) results in
    let values = List.filter_map Fun.id results in
    match values with
    | [] ->
      (* every world is empty *)
      (match op with
       | Sum -> { lo = Fin 0; hi = Fin 0; empty_possible = false }
       | Min | Max -> { lo = Pos_inf; hi = Neg_inf; empty_possible = true })
    | v :: vs ->
      {
        lo = Fin (List.fold_left min v vs);
        hi = Fin (List.fold_left max v vs);
        empty_possible;
      }
  end
