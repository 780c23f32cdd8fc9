type merge = [ `Sum | `Collapse ]

(* One world's multiplicity per canonical valuation — embarrassingly
   parallel: each world evaluates independently and the list order (and
   so the min/max below) matches the sequential scan, making the sweep
   bit-identical on every pool size.  [~cutoff:1] because a single
   world is already exponential work; [Bag_eval.run] takes its own
   default pool, and its per-world joins run sequentially inside the
   sweep's chunks. *)
let world_multiplicities ?(pool = Pool.auto ()) ?guard ~merge db q tuple =
  let query_consts = Algebra.consts q in
  let worlds = Certainty.canonical_worlds ~query_consts db in
  (* valuations must act on bags: tuples merged by the valuation combine
     their multiplicities, which the set-level image would lose *)
  let apply =
    match merge with
    | `Sum -> Bag_relation.apply_valuation
    | `Collapse -> Bag_relation.apply_valuation_collapse
  in
  let base_bags =
    Database.fold
      (fun name r acc -> (name, Bag_relation.of_relation r) :: acc)
      db []
  in
  Pool.parallel_map ~cutoff:1 ?guard pool
    (fun (v, world) ->
      let bags = List.map (fun (name, b) -> (name, apply v b)) base_bags in
      let answer = Bag_eval.run ?guard ~bags world q in
      Bag_relation.multiplicity (Valuation.apply_tuple v tuple) answer)
    worlds

let box ?pool ?guard ?(merge = `Sum) db q tuple =
  match world_multiplicities ?pool ?guard ~merge db q tuple with
  | [] -> assert false
  | m :: ms -> List.fold_left min m ms

let diamond ?pool ?guard ?(merge = `Sum) db q tuple =
  match world_multiplicities ?pool ?guard ~merge db q tuple with
  | [] -> assert false
  | m :: ms -> List.fold_left max m ms

let lower_bound db q =
  Bag_eval.run db (Scheme_pm.translate_plus (Database.schema db) q)

let upper_bound db q =
  Bag_eval.run db (Scheme_pm.translate_maybe (Database.schema db) q)

let certain_multiplicity_one ?pool ?guard db q tuple =
  box ?pool ?guard db q tuple >= 1
