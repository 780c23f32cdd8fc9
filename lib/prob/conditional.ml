(* raw counts at a given k: (#valuations satisfying Σ,
   #valuations satisfying Σ and witnessing the tuple) *)
let counts ~run ~query_consts ~sigma db tuple ~k =
  let vals = Support.valuations_k ~query_consts db ~k in
  let builder = Valuation.builder db in
  List.fold_left
    (fun (den, num) v ->
      let world = Valuation.world builder v in
      if Constraints.all_satisfied world sigma then
        let den = den + 1 in
        if Relation.mem (Valuation.apply_tuple v tuple) (run world) then
          (den, num + 1)
        else (den, num)
      else (den, num))
    (0, 0) vals

let mu_k ~run ~query_consts ~sigma db tuple ~k =
  let den, num = counts ~run ~query_consts ~sigma db tuple ~k in
  if den = 0 then Rational.zero else Rational.make num den

let mu ~run ~query_consts ~sigma db tuple =
  let n_nulls = List.length (Database.nulls db) in
  if n_nulls = 0 then
    (* no nulls: a single (empty) valuation *)
    mu_k ~run ~query_consts ~sigma db tuple ~k:1
  else begin
    (* the counts are polynomials in k of degree ≤ n_nulls once k
       exceeds the number of known constants: sample n_nulls + 1 points
       in the polynomial regime and interpolate *)
    let known =
      List.length (Database.consts db)
      + List.length
          (List.filter
             (fun c ->
               not (List.exists (Value.equal_const c) (Database.consts db)))
             query_consts)
    in
    let k0 = known + 1 in
    let points =
      List.init (n_nulls + 1) (fun i ->
          let k = k0 + i in
          let den, num = counts ~run ~query_consts ~sigma db tuple ~k in
          (Rational.of_int k, (num, den)))
    in
    let num_poly =
      Polynomial.interpolate
        (List.map (fun (k, (num, _)) -> (k, Rational.of_int num)) points)
    in
    let den_poly =
      Polynomial.interpolate
        (List.map (fun (k, (_, den)) -> (k, Rational.of_int den)) points)
    in
    if Polynomial.degree den_poly < 0 then
      (* Σ asymptotically unsatisfiable: the paper's convention is 0 *)
      Rational.zero
    else Polynomial.limit_ratio num_poly den_poly
  end

let mu_fd_via_chase ~run ~fds db tuple =
  match Chase.chase_fds db fds with
  | Chase.Failed -> Rational.zero
  | Chase.Chased (chased, subst) ->
    Zero_one.mu ~run chased (Chase.apply_subst subst tuple)

let mu_ra ~sigma db q tuple =
  mu ~run:(fun d -> Eval.run d q) ~query_consts:(Algebra.consts q) ~sigma db
    tuple
