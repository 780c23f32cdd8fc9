type ctuple = {
  tuple : Tuple.t;
  cond : Cond.t;
}

type t = {
  arity : int;
  ctuples : ctuple list;
}

let arity ct = ct.arity

let empty k = { arity = k; ctuples = [] }

let check_arity k (c : ctuple) =
  if Tuple.arity c.tuple <> k then
    invalid_arg
      (Printf.sprintf "Ctable: c-tuple of arity %d in table of arity %d"
         (Tuple.arity c.tuple) k)

let of_list k ctuples =
  List.iter (check_arity k) ctuples;
  { arity = k; ctuples }

let to_list ct = ct.ctuples

let of_relation r =
  {
    arity = Relation.arity r;
    ctuples =
      Relation.fold (fun t acc -> { tuple = t; cond = Cond.True } :: acc) r [];
  }

let map ~arity f ct =
  let ctuples =
    List.map
      (fun c ->
        let c' = f c in
        check_arity arity c';
        c')
      ct.ctuples
  in
  { arity; ctuples }

let filter f ct = { ct with ctuples = List.filter f ct.ctuples }

let append ct1 ct2 =
  if ct1.arity <> ct2.arity then
    invalid_arg "Ctable.append: arity mismatch";
  { arity = ct1.arity; ctuples = ct1.ctuples @ ct2.ctuples }

let cardinal ct = List.length ct.ctuples

module Int_map = Map.Make (Int)

let normalize ct =
  (* the ctuples kept so far, by hash; equality stays structural.  A map
     of small nodes rather than a Hashtbl, whose bucket arrays outgrow
     the minor heap on large c-tables and raise the peak heap *)
  let hash c = Hashtbl.hash (Hashtbl.hash c.tuple, Hashtbl.hash c.cond) in
  let _, kept =
    List.fold_left
      (fun (seen, kept) c ->
        if Cond.ground c.cond = Kleene.F then (seen, kept)
        else
          let h = hash c in
          let same = Option.value ~default:[] (Int_map.find_opt h seen) in
          if List.exists (fun c' -> c = c') same then (seen, kept)
          else (Int_map.add h (c :: same) seen, c :: kept))
      (Int_map.empty, []) ct.ctuples
  in
  (* the first occurrence wins and the kept ctuples stay in order *)
  { ct with ctuples = List.rev kept }

let certain ct =
  List.fold_left
    (fun r c ->
      if Cond.ground c.cond = Kleene.T then Relation.add c.tuple r else r)
    (Relation.empty ct.arity) ct.ctuples

let possible ct =
  List.fold_left
    (fun r c ->
      match Cond.ground c.cond with
      | Kleene.T | Kleene.U -> Relation.add c.tuple r
      | Kleene.F -> r)
    (Relation.empty ct.arity) ct.ctuples

let answer_in_world v ct =
  List.fold_left
    (fun r c ->
      if Cond.eval v c.cond then Relation.add (Valuation.apply_tuple v c.tuple) r
      else r)
    (Relation.empty ct.arity) ct.ctuples

let pp ppf ct =
  let pp_ctuple ppf c =
    Format.fprintf ppf "⟨%a, %a⟩" Tuple.pp c.tuple Cond.pp c.cond
  in
  Format.fprintf ppf "{@[%a@]}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
       pp_ctuple)
    ct.ctuples
