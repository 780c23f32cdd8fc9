type verdict =
  | Certain
  | Possible
  | Impossible

let verdict_to_string = function
  | Certain -> "certain"
  | Possible -> "possible"
  | Impossible -> "impossible"

let classify db q tuple =
  let plus = Scheme_pm.certain_sub db q in
  if Relation.mem tuple plus then Certain
  else begin
    let maybe = Scheme_pm.possible_sup db q in
    if Relation.exists (Tuple.unifiable tuple) maybe then Possible
    else Impossible
  end

(* the verdict is settled once one world holds the tuple and another
   does not, so the world stream stops there *)
let classify_exact db q tuple =
  let run = Certainty.ra_run db q in
  let rec go ~hit ~miss worlds =
    if hit && miss then Possible
    else
      match worlds () with
      | Seq.Nil -> if not miss then Certain else Impossible
      | Seq.Cons ((v, world), rest) ->
        if Relation.mem (Valuation.apply_tuple v tuple) (run world) then
          go ~hit:true ~miss rest
        else go ~hit ~miss:true rest
  in
  go ~hit:false ~miss:false
    (Certainty.canonical_world_seq ~query_consts:(Algebra.consts q) db)

let report db q =
  let plus = Scheme_pm.certain_sub db q in
  let maybe = Scheme_pm.possible_sup db q in
  let candidates = Relation.union plus maybe in
  Relation.fold
    (fun t acc ->
      let verdict = if Relation.mem t plus then Certain else Possible in
      (t, verdict) :: acc)
    candidates []
  |> List.rev
