type t = Value.t array

let arity = Array.length

let compare t1 t2 =
  let n1 = Array.length t1 and n2 = Array.length t2 in
  if n1 <> n2 then Int.compare n1 n2
  else
    let rec loop i =
      if i >= n1 then 0
      else
        let c = Value.compare t1.(i) t2.(i) in
        if c <> 0 then c else loop (i + 1)
    in
    loop 0

let equal t1 t2 = compare t1 t2 = 0

let empty : t = [||]

let of_list = Array.of_list
let to_list = Array.to_list

let concat = Array.append

let project idxs t =
  let n = Array.length t in
  let pick i =
    if i < 0 || i >= n then
      invalid_arg (Printf.sprintf "Tuple.project: index %d out of bounds" i)
    else t.(i)
  in
  Array.of_list (List.map pick idxs)

(* Unification of two tuples: solve the system { t1.(i) = t2.(i) } by
   union-find on null labels, where each equivalence class may contain at
   most one constant.  Repeated nulls within either tuple are handled
   correctly because classes are shared across positions. *)
let unifiable t1 t2 =
  if Array.length t1 <> Array.length t2 then false
  else begin
    (* parent map for nulls; class representative carries an optional
       constant binding *)
    let parent : (int, int) Hashtbl.t = Hashtbl.create 8 in
    let binding : (int, Value.const) Hashtbl.t = Hashtbl.create 8 in
    let rec find x =
      match Hashtbl.find_opt parent x with
      | None -> x
      | Some p ->
        let r = find p in
        if r <> p then Hashtbl.replace parent x r;
        r
    in
    let bind_null_const n c =
      let r = find n in
      match Hashtbl.find_opt binding r with
      | None -> Hashtbl.replace binding r c; true
      | Some c' -> Value.equal_const c c'
    in
    let union n1 n2 =
      let r1 = find n1 and r2 = find n2 in
      if r1 = r2 then true
      else begin
        Hashtbl.replace parent r1 r2;
        match Hashtbl.find_opt binding r1 with
        | None -> true
        | Some c ->
          Hashtbl.remove binding r1;
          (match Hashtbl.find_opt binding r2 with
           | None -> Hashtbl.replace binding r2 c; true
           | Some c' -> Value.equal_const c c')
      end
    in
    let solve_eq v1 v2 =
      match v1, v2 with
      | Value.Const c1, Value.Const c2 -> Value.equal_const c1 c2
      | Value.Null n, Value.Const c | Value.Const c, Value.Null n ->
        bind_null_const n c
      | Value.Null n1, Value.Null n2 -> union n1 n2
    in
    let rec loop i =
      i >= Array.length t1 || (solve_eq t1.(i) t2.(i) && loop (i + 1))
    in
    loop 0
  end

let nulls t =
  List.rev
    (Array.fold_left
       (fun acc v ->
         match v with
         | Value.Null n when not (List.mem n acc) -> n :: acc
         | Value.Null _ | Value.Const _ -> acc)
       [] t)

let consts t =
  let acc = ref [] in
  Array.iter
    (function
      | Value.Const c ->
        if not (List.exists (Value.equal_const c) !acc) then acc := c :: !acc
      | Value.Null _ -> ())
    t;
  List.rev !acc

let is_complete t = Array.for_all Value.is_const t

let pp ppf t =
  Format.fprintf ppf "(@[%a@])"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
       Value.pp)
    (Array.to_list t)

let to_string t = Format.asprintf "%a" pp t
