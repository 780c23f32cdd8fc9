let enumeration ~query_consts db k =
  let known = Database.consts db in
  let extra =
    List.filter
      (fun c -> not (List.exists (Value.equal_const c) known))
      query_consts
  in
  let base = known @ extra in
  let n_base = List.length base in
  if k <= n_base then
    List.filteri (fun i _ -> i < k) base
  else
    base @ List.init (k - n_base) (fun i -> Value.Gen i)

let valuations_k ~query_consts db ~k =
  let range = enumeration ~query_consts db k in
  Valuation.enumerate ~nulls:(Database.nulls db) ~range

let support_count ?(pool = Pool.auto ()) ~run ~query_consts db tuple ~k =
  let vals = valuations_k ~query_consts db ~k in
  let builder = Valuation.builder db in
  (* |Vₖ| = k^n worlds, each instantiated and queried independently:
     an embarrassingly parallel sum *)
  Pool.parallel_fold pool ~cutoff:16
    ~map:(fun v ->
      let world = Valuation.world builder v in
      if Relation.mem (Valuation.apply_tuple v tuple) (run world) then 1
      else 0)
    ~combine:( + ) ~init:0 vals

let mu_k_isotypes ?(pool = Pool.auto ()) ~run ~query_consts db tuple ~k =
  let vals = valuations_k ~query_consts db ~k in
  let builder = Valuation.builder db in
  (* group valuations by the concrete world they produce; a world type
     witnesses the tuple when at least one of its valuations does.
     Worlds are instantiated and queried in parallel; the grouping
     itself stays sequential (a shared hashtable), which is cheap next
     to the per-world query evaluation. *)
  let keyed =
    Pool.parallel_map ~cutoff:16 pool
      (fun v ->
        let world = Valuation.world builder v in
        let key = Format.asprintf "%a" Database.pp world in
        (key, Relation.mem (Valuation.apply_tuple v tuple) (run world)))
      vals
  in
  let worlds = Hashtbl.create 64 in
  List.iter
    (fun (key, witnesses) ->
      match Hashtbl.find_opt worlds key with
      | None -> Hashtbl.add worlds key witnesses
      | Some w -> Hashtbl.replace worlds key (w || witnesses))
    keyed;
  let total = Hashtbl.length worlds in
  if total = 0 then Rational.zero
  else begin
    let hits = Hashtbl.fold (fun _ w acc -> if w then acc + 1 else acc) worlds 0 in
    Rational.make hits total
  end

let mu_k ?pool ~run ~query_consts db tuple ~k =
  let n = List.length (Database.nulls db) in
  let total =
    let rec power acc i = if i = 0 then acc else power (acc * k) (i - 1) in
    power 1 n
  in
  if total = 0 then Rational.zero
  else
    Rational.make (support_count ?pool ~run ~query_consts db tuple ~k) total
