let run_with ?builder ?nulls ~run db =
  let builder =
    match builder with Some b -> b | None -> Valuation.builder db
  in
  let nulls = match nulls with Some ns -> ns | None -> Database.nulls db in
  let v = Valuation.bijective_fresh ~nulls in
  let answers = run (Valuation.world builder v) in
  Relation.map ~arity:(Relation.arity answers)
    (Array.map (Valuation.inverse_fresh ~nulls))
    answers

let run db q = run_with ~run:(fun d -> Eval.run d q) db

let run_fo db phi =
  let run d =
    Incdb_logic.Semantics.certain_true Incdb_logic.Semantics.all_bool d phi
  in
  run_with ~run db

let boolean db q = Eval.boolean (run db q)
