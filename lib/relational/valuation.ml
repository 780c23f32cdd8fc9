module Int_map = Map.Make (Int)

type t = Value.const Int_map.t

let empty = Int_map.empty

let of_list pairs =
  List.fold_left
    (fun v (n, c) ->
      if Int_map.mem n v then
        invalid_arg (Printf.sprintf "Valuation.of_list: duplicate null _%d" n)
      else Int_map.add n c v)
    empty pairs

let to_list v = Int_map.bindings v

let find v n = Int_map.find_opt n v

let add v n c = Int_map.add n c v

let apply_value v = function
  | Value.Const _ as x -> x
  | Value.Null n as x ->
    (match Int_map.find_opt n v with
     | Some c -> Value.Const c
     | None -> x)

let apply_tuple v t = Array.map (apply_value v) t

let apply_relation v r =
  Relation.map ~arity:(Relation.arity r) (apply_tuple v) r

(* Worlds of one database under many valuations.  A valuation changes
   only the tuples holding a null, so everything else is built once:
   relations with no null are shared physically by every world, and in
   the others only the null-bearing tuples are valued and added to the
   set of complete ones. *)
type builder = {
  db : Database.t;
  partial : (string * Relation.t * Tuple.t list) list;
      (** per relation with a null: its complete tuples, then the rest *)
}

let builder db =
  let partial =
    Database.fold
      (fun name r acc ->
        if Relation.is_complete r then acc
        else
          let pending =
            Relation.fold
              (fun t acc -> if Tuple.is_complete t then acc else t :: acc)
              r []
          in
          (name, Relation.filter Tuple.is_complete r, pending) :: acc)
      db []
  in
  { db; partial }

let world b v =
  List.fold_left
    (fun db (name, base, pending) ->
      Database.set_relation db name
        (List.fold_left
           (fun r t -> Relation.add (apply_tuple v t) r)
           base pending))
    b.db b.partial

let apply_db v db = world (builder db) v

let is_total_for v nulls = List.for_all (fun n -> Int_map.mem n v) nulls

let enumerate ~nulls ~range =
  let extend partials n =
    List.concat_map (fun v -> List.map (fun c -> add v n c) range) partials
  in
  List.fold_left extend [ empty ] nulls

(* Restricted-growth-string enumeration: process nulls in order; each null
   goes either to one of the known constants or to fresh class [j] where
   [j <= number of fresh classes used so far].  Fresh class [j] is realised
   as [Gen j].  This hits every instantiation pattern exactly once.

   Produced lazily: the number of canonical valuations grows as
   |consts|^k · B_k in the number of nulls k, and consumers (certain-answer
   checks) typically stop early once their candidate set is refuted, so
   materialising the whole list up front is wasted work and memory. *)
let canonical_seq ~nulls ~consts =
  let rec go assigned used_fresh rest : t Seq.t =
    match rest with
    | [] -> Seq.return assigned
    | n :: rest ->
      let to_const =
        Seq.concat_map
          (fun c -> go (add assigned n c) used_fresh rest)
          (List.to_seq consts)
      in
      let to_fresh =
        Seq.concat_map
          (fun j ->
            go (add assigned n (Value.Gen j)) (max used_fresh (j + 1)) rest)
          (Seq.init (used_fresh + 1) (fun j -> j))
      in
      fun () -> Seq.append to_const to_fresh ()
  in
  go empty 0 nulls

let enumerate_canonical ~nulls ~consts =
  List.of_seq (canonical_seq ~nulls ~consts)

let bijective_fresh ~nulls =
  let _, v =
    List.fold_left
      (fun (i, v) n -> (i + 1, add v n (Value.Gen i)))
      (0, empty) nulls
  in
  v

let inverse_fresh ~nulls x =
  match x with
  | Value.Const (Value.Gen i) ->
    (match List.nth_opt nulls i with
     | Some n -> Value.Null n
     | None -> x)
  | Value.Const _ | Value.Null _ -> x

let pp ppf v =
  let pp_binding ppf (n, c) =
    Format.fprintf ppf "_%d ↦ %a" n Value.pp_const c
  in
  Format.fprintf ppf "[@[%a@]]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
       pp_binding)
    (to_list v)
