module String_map = Map.Make (String)

type t = {
  schema : Schema.t;
  relations : Relation.t String_map.t;
}

let create schema =
  let relations =
    List.fold_left
      (fun m (d : Schema.relation_decl) ->
        String_map.add d.name (Relation.empty (List.length d.attributes)) m)
      String_map.empty (Schema.relations schema)
  in
  { schema; relations }

let schema db = db.schema

let relation db name =
  match String_map.find_opt name db.relations with
  | Some r -> r
  | None -> raise Not_found

let set_relation db name r =
  if not (Schema.mem db.schema name) then raise Not_found;
  let expected = Schema.arity db.schema name in
  if Relation.arity r <> expected then
    invalid_arg
      (Printf.sprintf
         "Database.set_relation: %s expects arity %d, got %d" name expected
         (Relation.arity r));
  { db with relations = String_map.add name r db.relations }

let add_tuple db name t =
  set_relation db name (Relation.add t (relation db name))

let of_list schema bindings =
  List.fold_left
    (fun db (name, tuples) ->
      let k = Schema.arity schema name in
      set_relation db name (Relation.of_list k tuples))
    (create schema) bindings

let map_relations f db =
  { db with relations = String_map.mapi f db.relations }

let fold f db init =
  String_map.fold f db.relations init

let nulls db =
  let seen = Hashtbl.create 16 in
  let acc = ref [] in
  fold
    (fun _ r () ->
      List.iter
        (fun n ->
          if not (Hashtbl.mem seen n) then begin
            Hashtbl.add seen n ();
            acc := n :: !acc
          end)
        (Relation.nulls r))
    db ();
  List.sort Int.compare !acc

module Value_set = Set.Make (Value)

(* one set over every value: [Value.compare] sorts the constants first,
   by [Value.compare_const], then the nulls by label *)
let active_domain db =
  Value_set.elements
    (fold
       (fun _ r acc ->
         Relation.fold
           (fun t acc -> Array.fold_left (fun s v -> Value_set.add v s) acc t)
           r acc)
       db Value_set.empty)

let nulls_and_consts db =
  List.fold_right
    (fun v (ns, cs) ->
      match v with
      | Value.Null n -> (n :: ns, cs)
      | Value.Const c -> (ns, c :: cs))
    (active_domain db) ([], [])

let consts db = snd (nulls_and_consts db)

let is_complete db = fold (fun _ r acc -> acc && Relation.is_complete r) db true

let fresh_null db =
  match nulls db with [] -> 0 | ns -> List.fold_left max 0 ns + 1

let equal db1 db2 = String_map.equal Relation.equal db1.relations db2.relations

let size db = fold (fun _ r acc -> acc + Relation.cardinal r) db 0

let pp ppf db =
  let pp_binding ppf (name, r) =
    Format.fprintf ppf "@[<2>%s =@ %a@]" name Relation.pp r
  in
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_binding)
    (String_map.bindings db.relations)
