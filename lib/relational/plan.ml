exception Unsupported of string

type t =
  | Scan of string
  | Lit of int * Tuple.t list
  | Filter of Condition.t * t
  | Project of int list * t
  | Hash_join of {
      left : t;
      right : t;
      keys : (int * int) list;
      residual : Condition.t;
    }
  | Product of t * t
  | Union of t * t
  | Inter of t * t
  | Diff of t * t
  | Division of t * t
  | Anti_unify of t * t
  | Dom of int
  | Shared of int * t
  | Invariant of t * (Relation.t * int) option Atomic.t

(* Join keys are arrays of values; the polymorphic hash and structural
   equality of the stdlib Hashtbl coincide with Value.equal on them, so
   a probe hit is exactly the literal equality that Condition.Eq tests
   (marked nulls match themselves only). *)
let key_of cols (t : Tuple.t) = Array.map (fun i -> t.(i)) cols

let push_index tbl k v =
  match Hashtbl.find_opt tbl k with
  | Some vs -> Hashtbl.replace tbl k (v :: vs)
  | None -> Hashtbl.add tbl k [ v ]

(* ------------------------------------------------------------------ *)
(* partition-parallel machinery                                        *)
(*                                                                     *)
(* Relations are immutable sets/maps, so every parallel operator below *)
(* is observationally identical to its sequential twin: chunks produce *)
(* sub-relations and the merge (set union / multiplicity-adding bag    *)
(* union) is associative and commutative.  [~pool:None] keeps the      *)
(* sequential code as the reference.                                   *)
(* ------------------------------------------------------------------ *)

(* take the parallel path only when a pool is present, the input is
   big enough to amortise chunking, and we are not already inside a
   pool chunk (a join inside a parallel Datalog firing runs
   sequentially) *)
let wants_parallel pool n cutoff =
  match pool with
  | None -> false
  | Some _ -> n >= !cutoff && not (Pool.in_worker ())

(* [lo, hi) slices splitting [len] elements across the pool *)
let slices pool len =
  let n =
    match pool with
    | Some p -> max 1 (min len (4 * Pool.size p))
    | None -> 1
  in
  let base = len / n and rem = len mod n in
  Array.init n (fun i ->
      let lo = (i * base) + min i rem in
      (lo, lo + base + (if i < rem then 1 else 0)))

(* map each slice of [arr] to a chunk value in parallel, then merge the
   chunks with a parallel reduction tree — this is the "parallel merge"
   entry point for Tuple_set unions *)
let par_slice_merge pool arr ~of_slice ~merge ~empty =
  let parts =
    Pool.parallel_map_array ~cutoff:0 pool of_slice
      (slices pool (Array.length arr))
  in
  Pool.tree_reduce pool merge empty parts

let par_filter pool cond r =
  let k = Relation.arity r in
  let arr = Array.of_list (Relation.to_list r) in
  par_slice_merge pool arr ~merge:Relation.union ~empty:(Relation.empty k)
    ~of_slice:(fun (lo, hi) ->
      let out = ref [] in
      for j = lo to hi - 1 do
        if Condition.eval arr.(j) cond then out := arr.(j) :: !out
      done;
      Relation.of_list k !out)

let par_project pool idxs r =
  let k = List.length idxs in
  let arr = Array.of_list (Relation.to_list r) in
  par_slice_merge pool arr ~merge:Relation.union ~empty:(Relation.empty k)
    ~of_slice:(fun (lo, hi) ->
      let out = ref [] in
      for j = lo to hi - 1 do
        out := Tuple.project idxs arr.(j) :: !out
      done;
      Relation.of_list k !out)

(* Partition-parallel hash join.  Build side: each slice scatters its
   tuples into per-partition buckets, then one task per partition
   merges its buckets into a hash index.  Probe side: slices probe the
   partition indices read-only and emit joined sub-relations, merged by
   a union tree. *)
let par_hash_index pool ~nparts ~part ~cols arr =
  let bucketed =
    Pool.parallel_map_array ~cutoff:0 pool
      (fun (lo, hi) ->
        let buckets = Array.make nparts [] in
        for j = lo to hi - 1 do
          let key = key_of cols (fst arr.(j)) in
          let p = part key in
          buckets.(p) <- (key, arr.(j)) :: buckets.(p)
        done;
        buckets)
      (slices pool (Array.length arr))
  in
  Pool.parallel_map_array ~cutoff:0 pool
    (fun pi ->
      let tbl = Hashtbl.create 64 in
      Array.iter
        (fun buckets ->
          List.iter (fun (key, entry) -> push_index tbl key entry) buckets.(pi))
        bucketed;
      tbl)
    (Array.init nparts Fun.id)

let nparts_of pool =
  match pool with Some p -> max 1 (Pool.size p) | None -> 1

let partitioner nparts key =
  if nparts = 1 then 0 else Hashtbl.hash key land max_int mod nparts

let par_hash_join_set pool ~lcols ~rcols ~residual l r =
  let larr = Array.of_list (Relation.to_list l) in
  let rarr = Array.map (fun t -> (t, ())) (Array.of_list (Relation.to_list r)) in
  let nparts = nparts_of pool in
  let part = partitioner nparts in
  let tables = par_hash_index pool ~nparts ~part ~cols:rcols rarr in
  let out_arity = Relation.arity l + Relation.arity r in
  par_slice_merge pool larr ~merge:Relation.union
    ~empty:(Relation.empty out_arity)
    ~of_slice:(fun (lo, hi) ->
      let out = ref [] in
      for j = lo to hi - 1 do
        let t1 = larr.(j) in
        let key = key_of lcols t1 in
        match Hashtbl.find_opt tables.(part key) key with
        | None -> ()
        | Some matches ->
          List.iter
            (fun ((t2 : Tuple.t), ()) ->
              let joined = Tuple.concat t1 t2 in
              if Condition.eval joined residual then out := joined :: !out)
            matches
      done;
      Relation.of_list out_arity !out)

(* ------------------------------------------------------------------ *)
(* set semantics                                                       *)
(* ------------------------------------------------------------------ *)

let run_set ?(pool = None) ?guard ~base ~dom1 plan =
  let shared : (int, Relation.t) Hashtbl.t = Hashtbl.create 8 in
  let powers : (int, Relation.t) Hashtbl.t = Hashtbl.create 4 in
  let rec power k =
    match Hashtbl.find_opt powers k with
    | Some r -> r
    | None ->
      let r =
        if k = 0 then Relation.of_list 0 [ Tuple.empty ]
        else Relation.product (Lazy.force dom1) (power (k - 1))
      in
      Hashtbl.add powers k r;
      r
  in
  (* every operator output is a materialisation point: charge its
     cardinality against the guard's tuple budget (and re-check
     deadline/cancellation).  Without a guard this is a single match on
     [None] per node — memoized [Shared] hits skip the charge because
     they materialise nothing new. *)
  let charged = ref 0 in
  let charge n =
    charged := !charged + n;
    match guard with None -> () | Some g -> Guard.charge_exn g n
  in
  let pay r =
    charge (Relation.cardinal r);
    r
  in
  let rec go plan =
    match plan with
    | Shared (id, p) ->
      (match Hashtbl.find_opt shared id with
       | Some r -> r
       | None ->
         let r = go p in
         Hashtbl.add shared id r;
         r)
    | Dom k ->
      (match Hashtbl.find_opt powers k with
       | Some r -> r (* already built (and charged) by an earlier ref *)
       | None -> pay (power k))
    | Invariant (p, slot) ->
      (* the first run evaluates [p] under the guard and keeps its
         result with what it charged; later runs charge that again.
         Two runs racing on an empty slot both evaluate and store equal
         values, so every run charges the same either way *)
      (match Atomic.get slot with
       | Some (r, n) ->
         charge n;
         r
       | None ->
         let before = !charged in
         let r = go p in
         Atomic.set slot (Some (r, !charged - before));
         r)
    | _ -> pay (eval plan)
  and eval = function
    | Scan name -> base name
    | Lit (k, tuples) -> Relation.of_list k tuples
    | Filter (cond, p) ->
      let r = go p in
      if wants_parallel pool (Relation.cardinal r) Pool.scan_cutoff then
        par_filter pool cond r
      else Relation.filter (fun t -> Condition.eval t cond) r
    | Project (idxs, p) ->
      let r = go p in
      if wants_parallel pool (Relation.cardinal r) Pool.scan_cutoff then
        par_project pool idxs r
      else Relation.project idxs r
    | Hash_join { left; right; keys; residual } ->
      let l = go left and r = go right in
      let lcols = Array.of_list (List.map fst keys) in
      let rcols = Array.of_list (List.map snd keys) in
      if
        wants_parallel pool
          (Relation.cardinal l + Relation.cardinal r)
          Pool.join_cutoff
      then par_hash_join_set pool ~lcols ~rcols ~residual l r
      else begin
        let index = Hashtbl.create (max 16 (Relation.cardinal r)) in
        Relation.iter (fun t -> push_index index (key_of rcols t) t) r;
        let out = ref [] in
        Relation.iter
          (fun t1 ->
            match Hashtbl.find_opt index (key_of lcols t1) with
            | None -> ()
            | Some matches ->
              List.iter
                (fun t2 ->
                  let joined = Tuple.concat t1 t2 in
                  if Condition.eval joined residual then out := joined :: !out)
                matches)
          l;
        Relation.of_list (Relation.arity l + Relation.arity r) !out
      end
    | Product (p1, p2) -> Relation.product (go p1) (go p2)
    | Union (p1, p2) -> Relation.union (go p1) (go p2)
    | Inter (p1, p2) -> Relation.inter (go p1) (go p2)
    | Diff (p1, p2) -> Relation.diff (go p1) (go p2)
    | Division (p1, p2) ->
      let r = go p1 and s = go p2 in
      let m = Relation.arity s in
      let n = Relation.arity r - m in
      (* group the tails of r by head: one hash probe per (head, b̄)
         check instead of a Tuple_set.mem on the whole of r *)
      let groups = Hashtbl.create (max 16 (Relation.cardinal r)) in
      Relation.iter
        (fun t ->
          let head = Array.sub t 0 n and tail = Array.sub t n m in
          let tails =
            match Hashtbl.find_opt groups head with
            | Some tbl -> tbl
            | None ->
              let tbl = Hashtbl.create 8 in
              Hashtbl.add groups head tbl;
              tbl
          in
          Hashtbl.replace tails tail ())
        r;
      let out = ref [] in
      Hashtbl.iter
        (fun head tails ->
          if Relation.for_all (Hashtbl.mem tails) s then out := head :: !out)
        groups;
      Relation.of_list n !out
    | Anti_unify (p1, p2) -> Relation.anti_unify_semijoin (go p1) (go p2)
    | Dom _ | Shared _ | Invariant _ -> assert false (* handled by [go] *)
  in
  go plan

let map_children f = function
  | (Scan _ | Lit _ | Dom _) as p -> p
  | Filter (c, p) -> Filter (c, f p)
  | Project (idxs, p) -> Project (idxs, f p)
  | Hash_join j -> Hash_join { j with left = f j.left; right = f j.right }
  | Product (a, b) -> Product (f a, f b)
  | Union (a, b) -> Union (f a, f b)
  | Inter (a, b) -> Inter (f a, f b)
  | Diff (a, b) -> Diff (f a, f b)
  | Division (a, b) -> Division (f a, f b)
  | Anti_unify (a, b) -> Anti_unify (f a, f b)
  | Shared (id, p) -> Shared (id, f p)
  | Invariant (p, slot) -> Invariant (f p, slot)

(* A subplan is world-invariant when every scan reads a relation that no
   valuation changes and it builds no [Dom] power (the domain moves with
   the world).  [Shared] nodes stay outside: their memo charges once per
   run, whichever occurrence comes first, so they keep their own node. *)
let rec invariant ~unchanged = function
  | Scan name -> unchanged name
  | Lit _ -> true
  | Dom _ | Shared _ | Invariant _ -> false
  | Filter (_, p) | Project (_, p) -> invariant ~unchanged p
  | Hash_join { left = a; right = b; _ }
  | Product (a, b) | Union (a, b) | Inter (a, b) | Diff (a, b)
  | Division (a, b) | Anti_unify (a, b) ->
    invariant ~unchanged a && invariant ~unchanged b

let rec hoist_invariant ~unchanged p =
  if invariant ~unchanged p then Invariant (p, Atomic.make None)
  else map_children (hoist_invariant ~unchanged) p

(* ------------------------------------------------------------------ *)
(* bag semantics                                                       *)
(* ------------------------------------------------------------------ *)

(* bag merges add multiplicities (UNION ALL), which is associative and
   commutative, so chunked evaluation is again order-independent *)

let par_filter_bag pool cond b =
  let k = Bag_relation.arity b in
  let arr = Array.of_list (Bag_relation.to_list b) in
  par_slice_merge pool arr ~merge:Bag_relation.union
    ~empty:(Bag_relation.empty k)
    ~of_slice:(fun (lo, hi) ->
      let out = ref [] in
      for j = lo to hi - 1 do
        let t, _ = arr.(j) in
        if Condition.eval t cond then out := arr.(j) :: !out
      done;
      Bag_relation.of_list k !out)

let par_project_bag pool idxs b =
  let k = List.length idxs in
  let arr = Array.of_list (Bag_relation.to_list b) in
  par_slice_merge pool arr ~merge:Bag_relation.union
    ~empty:(Bag_relation.empty k)
    ~of_slice:(fun (lo, hi) ->
      let out = ref [] in
      for j = lo to hi - 1 do
        let t, c = arr.(j) in
        out := (Tuple.project idxs t, c) :: !out
      done;
      Bag_relation.of_list k !out)

let par_hash_join_bag pool ~lcols ~rcols ~residual l r =
  let larr = Array.of_list (Bag_relation.to_list l) in
  let rarr = Array.of_list (Bag_relation.to_list r) in
  let nparts = nparts_of pool in
  let part = partitioner nparts in
  let tables = par_hash_index pool ~nparts ~part ~cols:rcols rarr in
  let out_arity = Bag_relation.arity l + Bag_relation.arity r in
  par_slice_merge pool larr ~merge:Bag_relation.union
    ~empty:(Bag_relation.empty out_arity)
    ~of_slice:(fun (lo, hi) ->
      let out = ref [] in
      for j = lo to hi - 1 do
        let t1, c1 = larr.(j) in
        let key = key_of lcols t1 in
        match Hashtbl.find_opt tables.(part key) key with
        | None -> ()
        | Some matches ->
          List.iter
            (fun (t2, c2) ->
              let joined = Tuple.concat t1 t2 in
              if Condition.eval joined residual then
                out := (joined, c1 * c2) :: !out)
            matches
      done;
      Bag_relation.of_list out_arity !out)

let run_bag ?(pool = None) ?guard ~base ~dom1 plan =
  let shared : (int, Bag_relation.t) Hashtbl.t = Hashtbl.create 8 in
  let powers : (int, Bag_relation.t) Hashtbl.t = Hashtbl.create 4 in
  let rec power k =
    match Hashtbl.find_opt powers k with
    | Some b -> b
    | None ->
      let b =
        if k = 0 then Bag_relation.of_list 0 [ (Tuple.empty, 1) ]
        else Bag_relation.product (Lazy.force dom1) (power (k - 1))
      in
      Hashtbl.add powers k b;
      b
  in
  (* materialisation points charge the support size (distinct tuples):
     multiplicities are counters, not materialised rows *)
  let pay b =
    (match guard with
     | None -> ()
     | Some g -> Guard.charge_exn g (Bag_relation.support_size b));
    b
  in
  let rec go plan =
    match plan with
    | Shared (id, p) ->
      (match Hashtbl.find_opt shared id with
       | Some b -> b
       | None ->
         let b = go p in
         Hashtbl.add shared id b;
         b)
    | Dom k ->
      (match Hashtbl.find_opt powers k with
       | Some b -> b
       | None -> pay (power k))
    | Invariant (p, _) -> go p (* the slot keeps a set, not a bag *)
    | _ -> pay (eval plan)
  and eval = function
    | Scan name -> base name
    | Lit (k, tuples) ->
      (* multiplicity 1 per listed occurrence, as in Bag_eval *)
      List.fold_left
        (fun b t -> Bag_relation.add t b)
        (Bag_relation.empty k) tuples
    | Filter (cond, p) ->
      let b = go p in
      if wants_parallel pool (Bag_relation.support_size b) Pool.scan_cutoff
      then par_filter_bag pool cond b
      else Bag_relation.filter (fun t -> Condition.eval t cond) b
    | Project (idxs, p) ->
      let b = go p in
      if wants_parallel pool (Bag_relation.support_size b) Pool.scan_cutoff
      then par_project_bag pool idxs b
      else Bag_relation.project idxs b
    | Hash_join { left; right; keys; residual } ->
      let l = go left and r = go right in
      let lcols = Array.of_list (List.map fst keys) in
      let rcols = Array.of_list (List.map snd keys) in
      if
        wants_parallel pool
          (Bag_relation.support_size l + Bag_relation.support_size r)
          Pool.join_cutoff
      then par_hash_join_bag pool ~lcols ~rcols ~residual l r
      else begin
        let index = Hashtbl.create (max 16 (Bag_relation.support_size r)) in
        Bag_relation.fold
          (fun t c () -> push_index index (key_of rcols t) (t, c))
          r ();
        Bag_relation.fold
          (fun t1 c1 acc ->
            match Hashtbl.find_opt index (key_of lcols t1) with
            | None -> acc
            | Some matches ->
              List.fold_left
                (fun acc (t2, c2) ->
                  let joined = Tuple.concat t1 t2 in
                  if Condition.eval joined residual then
                    Bag_relation.add ~count:(c1 * c2) joined acc
                  else acc)
                acc matches)
          l
          (Bag_relation.empty (Bag_relation.arity l + Bag_relation.arity r))
      end
    | Product (p1, p2) -> Bag_relation.product (go p1) (go p2)
    | Union (p1, p2) -> Bag_relation.union (go p1) (go p2)
    | Inter (p1, p2) -> Bag_relation.inter (go p1) (go p2)
    | Diff (p1, p2) -> Bag_relation.diff (go p1) (go p2)
    | Division _ -> raise (Unsupported "division is not in the bag fragment")
    | Anti_unify (p1, p2) -> Bag_relation.anti_unify_semijoin (go p1) (go p2)
    | Dom _ | Shared _ | Invariant _ -> assert false (* handled by [go] *)
  in
  go plan

(* ------------------------------------------------------------------ *)
(* printing                                                            *)
(* ------------------------------------------------------------------ *)

let rec pp ppf = function
  | Scan name -> Format.pp_print_string ppf name
  | Lit (k, tuples) ->
    Format.fprintf ppf "lit/%d%a" k Relation.pp (Relation.of_list k tuples)
  | Filter (cond, p) -> Format.fprintf ppf "σ[%a](%a)" Condition.pp cond pp p
  | Project (idxs, p) ->
    Format.fprintf ppf "π[%a](%a)"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
         Format.pp_print_int)
      idxs pp p
  | Hash_join { left; right; keys; residual } ->
    let pp_key ppf (i, j) = Format.fprintf ppf "%d=%d" i j in
    Format.fprintf ppf "(%a ⋈H[%a%s] %a)" pp left
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
         pp_key)
      keys
      (match residual with
       | Condition.True -> ""
       | c -> Format.asprintf "; %a" Condition.pp c)
      pp right
  | Product (p1, p2) -> Format.fprintf ppf "(%a × %a)" pp p1 pp p2
  | Union (p1, p2) -> Format.fprintf ppf "(%a ∪ %a)" pp p1 pp p2
  | Inter (p1, p2) -> Format.fprintf ppf "(%a ∩ %a)" pp p1 pp p2
  | Diff (p1, p2) -> Format.fprintf ppf "(%a − %a)" pp p1 pp p2
  | Division (p1, p2) -> Format.fprintf ppf "(%a ÷H %a)" pp p1 pp p2
  | Anti_unify (p1, p2) -> Format.fprintf ppf "(%a ⋉⇑̸H %a)" pp p1 pp p2
  | Dom k -> Format.fprintf ppf "Dom^%d" k
  | Shared (id, p) -> Format.fprintf ppf "@@%d:%a" id pp p
  | Invariant (p, _) -> Format.fprintf ppf "inv:%a" pp p

let to_string p = Format.asprintf "%a" pp p
