(* Inputs of the two serve workloads, all drawn from the seed: the served
   TPCH-mini database, the read texts, and the request stream. *)

open Incdb

(* TPCH-mini at scale 4: 100 customers, 200 orders, 400 line items,
   80 parts.  Every relation is complete except [part], which holds
   [part_nulls] marked nulls (two unknown sizes, one unknown name). *)
let scale = 4
let part_nulls = 3
let n_cust = 25 * scale
let n_orders = 50 * scale
let n_parts = 20 * scale

(* Per-read tuple budget handed to [incdb serve --budget]: a read whose
   exact enumeration charges more degrades to Q+. *)
let budget = 5_000
let cache_entries = 256

(* [always] would tie every update to the disk's fsync latency; the
   WAL's framing and append path are what the workload measures. *)
let fsync = "never"
let snapshot_every = 0

let database ~seed =
  let rng = Random.State.make [| seed; 0x5eed |] in
  let db = Workload.Tpch_mini.generate rng ~scale in
  let parts = Array.of_list (Relation.to_list (Database.relation db "part")) in
  let chosen = Hashtbl.create part_nulls in
  while Hashtbl.length chosen < part_nulls do
    Hashtbl.replace chosen (Random.State.int rng (Array.length parts)) ()
  done;
  let next = ref (Database.fresh_null db) in
  let idx = ref 0 in
  let with_null =
    Array.mapi
      (fun i t ->
        if not (Hashtbl.mem chosen i) then t
        else begin
          let col = if !idx < 2 then 2 else 1 in
          incr idx;
          let t = Array.copy t in
          t.(col) <- Value.Null !next;
          incr next;
          t
        end)
      parts
  in
  Database.set_relation db "part" (Relation.of_list 3 (Array.to_list with_null))

(* ------------------------------------------------------------------ *)
(* reads                                                                *)
(* ------------------------------------------------------------------ *)

(* Eight read templates.  Template 0 looks up a customer key that does
   not exist: its naive answer is empty, so cert⊥ stops at once and the
   read is exact.  Every other template has a non-empty answer by
   construction, so with any null in the database the enumeration
   cannot stop early and, under the budget, degrades to Q+.  Template 6
   is a NOT IN, whose Q+ translation is an anti-semijoin.

   A degraded read costs about budget / (tuples per world), so each
   template keeps its answer size within a narrow band; the wide
   parameter that makes texts distinct (a bound above every generated
   key, price and quantity) does not change the answer. *)
let n_templates = 8

let column db rel i =
  Array.of_list
    (List.map (fun t -> t.(i)) (Relation.to_list (Database.relation db rel)))

let int_of v = match v with Value.Const (Value.Int n) -> n | _ -> 0

let read_text rng db template =
  let ri lo hi = lo + Random.State.int rng (hi - lo) in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let wide () = ri 1000 1_000_000 in
  match template with
  | 0 ->
    Printf.sprintf "SELECT cname FROM customer WHERE custkey = %d" (n_cust + wide ())
  | 1 ->
    Printf.sprintf "SELECT cname FROM customer WHERE nationkey = %d AND custkey < %d"
      (ri 0 10) (wide ())
  | 2 ->
    Printf.sprintf "SELECT orderkey FROM orders WHERE ocustkey = %d AND totalprice < %d"
      (int_of (pick (column db "orders" 1)))
      (wide ())
  | 3 ->
    Printf.sprintf
      "SELECT cname FROM customer, orders WHERE custkey = ocustkey AND        totalprice < %d AND orderkey < %d"
      (ri 450 550) (wide ())
  | 4 ->
    Printf.sprintf "SELECT pname FROM part WHERE psize = %d AND partkey < %d"
      (ri 1 6) (wide ())
  | 5 ->
    Printf.sprintf "SELECT lorderkey FROM lineitem WHERE lpartkey = %d AND quantity < %d"
      (int_of (pick (column db "lineitem" 1)))
      (wide ())
  | 6 ->
    Printf.sprintf
      "SELECT custkey FROM customer WHERE nationkey < %d AND custkey < %d AND \
       custkey NOT IN (SELECT ocustkey FROM orders WHERE ostatus = %d)"
      (ri 4 7) (wide ()) (ri 0 2)
  | _ ->
    Printf.sprintf "SELECT partkey FROM part WHERE psize <> %d AND partkey < %d"
      (ri 1 6) (wide ())

(* A point lookup of a key no generated or inserted row has, on one of
   the four relations: the answer is empty in every world, so the read
   is exact, and its cache entry depends on that relation alone. *)
let absent_lookup rng rel =
  let k lo = lo + Random.State.int rng 900_000 in
  match rel with
  | 0 -> Printf.sprintf "SELECT cname FROM customer WHERE custkey = %d" (k n_cust)
  | 1 -> Printf.sprintf "SELECT ocustkey FROM orders WHERE orderkey = %d" (k n_orders)
  | 2 -> Printf.sprintf "SELECT lpartkey FROM lineitem WHERE lorderkey = %d" (k n_orders)
  | _ -> Printf.sprintf "SELECT pname FROM part WHERE partkey = %d" (k n_parts)

(* The one hot text an update changes.  Generated quantities are 1..50
   and an inserted line item's is 100 or more, so its answer is empty on
   the generated data (an exact read) and holds the open insert's order
   key while one is open (a degraded one).  Every lineitem update
   invalidates its cache entry, so a stale hit or a missed invalidation
   shows as a wrong count.  Its reads nearly always miss and cost 1-13 ms
   against ~0.1 ms for a hit; at a Zipf rank they held a connection long
   enough to overload the open loop, so serve_hot asks for it once every
   [probe_every] reads (about twice a second at the open-loop rate,
   which left read_p50/p75 unchanged) and checks the cache in each
   direction in the untimed [probe_cycles]. *)
let lineitem_probe = "SELECT lorderkey FROM lineitem WHERE quantity > 99"
let probe_every = 4000

(* ------------------------------------------------------------------ *)
(* request stream                                                       *)
(* ------------------------------------------------------------------ *)

type kind = Read of int  (** index into the distinct read texts *) | Update

type req = {
  id : int;
  line : string;
  kind : kind;
  after : int;  (** id of a request that must complete first, or -1 *)
}

type workload = {
  name : string;
  hot_texts : int option;
      (** [Some h]: reads draw from [h] absent-key lookups on
          customer, orders and part under a Zipf(1) law, and every
          [probe_every]th read is the [lineitem_probe]; [None]: every
          read is a fresh text, templates in turn *)
  update_share : float;
  update_rels : string list;  (** relations the updates touch *)
  rate : float;  (** open-loop requests per second, fixed *)
}

(* Open-loop rates, frozen after measuring each workload's closed-loop
   throughput on a 2-core virtual machine: serve_hot's is ~36k/s and
   serve_churn's ~75/s, but either halves when the host is contended.
   At half the quiet figure a contended host overloads the server and
   the latencies run away, so serve_churn runs at a quarter.  serve_hot
   runs at about a fifth: any lower and the cores idle between requests,
   so each reply pays a wake-up whose delay swings from run to run. *)
let serve_hot =
  { name = "serve_hot"; hot_texts = Some 48; update_share = 0.05;
    update_rels = [ "lineitem" ]; rate = 8000.0 }

let serve_churn =
  { name = "serve_churn"; hot_texts = None; update_share = 0.30;
    update_rels = [ "customer"; "orders"; "lineitem"; "part" ]; rate = 20.0 }

type stream = {
  w : workload;
  rng : Random.State.t;
  db : Database.t;
  texts : (string, int) Hashtbl.t;
  mutable text_list : string list;  (** distinct read texts, newest first *)
  hot : string array;  (** the Zipf-ranked texts *)
  zipf : float array;  (** cumulative weights of [hot] *)
  phase : float;  (** offset of the low-discrepancy sequence *)
  mutable next_id : int;
  mutable n_reads : int;
  mutable inserted : (int * string) option;
      (** the last insert (its id and row) whose delete is still due *)
  mutable n_rows : int;
}

let stream w ~seed db =
  let rng = Random.State.make [| seed; Hashtbl.hash w.name |] in
  let hot =
    match w.hot_texts with
    | None -> [||]
    | Some h ->
      let seen = Hashtbl.create h in
      let out = ref [] in
      let r = ref 0 in
      while !r < h do
        (* customer, orders and part: the hot updates touch only
           lineitem, so none of them invalidates these entries *)
        let text = absent_lookup rng [| 0; 1; 3 |].(!r mod 3) in
        if not (Hashtbl.mem seen text) then begin
          Hashtbl.replace seen text ();
          out := text :: !out;
          incr r
        end
      done;
      Array.of_list (List.rev !out)
  in
  let zipf =
    let acc = ref 0.0 in
    Array.mapi
      (fun i _ ->
        acc := !acc +. (1.0 /. float_of_int (i + 1));
        !acc)
      hot
  in
  { w; rng; db; texts = Hashtbl.create 1024; text_list = []; hot; zipf;
    phase = Random.State.float rng 1.0; next_id = 0; n_reads = 0; inserted = None;
    n_rows = 0 }

let text_id s text =
  match Hashtbl.find_opt s.texts text with
  | Some i -> i
  | None ->
    let i = Hashtbl.length s.texts in
    Hashtbl.replace s.texts text i;
    s.text_list <- text :: s.text_list;
    i

let distinct_texts s = Array.of_list (List.rev s.text_list)

(* What set-up reads once, in order, before the timed phases: every hot
   text (so the cache holds the working set), or [warm_reads] fresh
   texts, templates in turn (so the pool and heap are warm). *)
let warm_reads = 48

let warm_texts s =
  match s.w.hot_texts with
  | Some _ -> Array.to_list s.hot @ [ lineitem_probe ]
  | None ->
    let rng = Random.State.copy s.rng in
    List.init warm_reads (fun k -> read_text rng s.db (k mod n_templates))

(* a complete row with fresh keys, so inserting it never collides with
   the generated data and deleting it restores the database exactly *)
let fresh_row s =
  let i = s.n_rows in
  s.n_rows <- i + 1;
  let pick rel col =
    let a = column s.db rel col in
    int_of a.(Random.State.int s.rng (Array.length a))
  in
  let rels = s.w.update_rels in
  match List.nth rels (Random.State.int s.rng (List.length rels)) with
  | "customer" -> Printf.sprintf "customer(%d,newc%d,%d)" (1_000_000 + i) i (i mod 10)
  | "orders" ->
    Printf.sprintf "orders(%d,%d,%d,%d)" (1_000_000 + i) (pick "customer" 0)
      (10 + Random.State.int s.rng 990)
      (Random.State.int s.rng 2)
  | "lineitem" ->
    Printf.sprintf "lineitem(%d,%d,%d)" (pick "orders" 0) (pick "part" 0) (100 + i)
  | _ -> Printf.sprintf "part(%d,newp%d,%d)" (1_000_000 + i) i (1 + (i mod 5))

(* Updates alternate: insert a fresh row, then (at the next update)
   delete it again, so the database's size and null count stay
   stationary.  The delete waits for its insert's acknowledgement. *)
let update s id =
  match s.inserted with
  | Some (ins, row) ->
    s.inserted <- None;
    { id; line = "delete " ^ row; kind = Update; after = ins }
  | None ->
    let row = fresh_row s in
    s.inserted <- Some (id, row);
    { id; line = "insert " ^ row; kind = Update; after = -1 }

(* Which requests are updates, and which hot text a read asks for, come
   from low-discrepancy sequences rather than independent draws, so
   every run holds each kind and each rank in its expected share: the
   seed moves the data, the texts and the phase, not the mix. *)
let golden = 0.6180339887498949

let next s =
  let id = s.next_id in
  s.next_id <- id + 1;
  let share = s.w.update_share in
  if Float.to_int (float_of_int (id + 1) *. share) > Float.to_int (float_of_int id *. share)
  then update s id
  else begin
    let k = s.n_reads in
    s.n_reads <- k + 1;
    let text =
      match s.w.hot_texts with
      | Some _ when k mod probe_every = probe_every - 1 -> lineitem_probe
      | Some _ ->
        let u = Float.rem (s.phase +. (float_of_int k *. golden)) 1.0 in
        let x = u *. s.zipf.(Array.length s.zipf - 1) in
        let rec find i = if s.zipf.(i) >= x || i = Array.length s.zipf - 1 then i else find (i + 1) in
        s.hot.(find 0)
      | None -> read_text s.rng s.db (k mod n_templates)
    in
    { id; line = text; kind = Read (text_id s text); after = -1 }
  end

(* Untimed, once no insert is open: [cycles] times an insert, two probe
   reads, its delete and two more probe reads.  Sent one at a time, each
   first read follows an invalidation and each second one is a hit, so
   both are checked in both directions. *)
let probe_cycles s ~cycles =
  assert (s.inserted = None);
  let fresh () =
    let id = s.next_id in
    s.next_id <- id + 1;
    id
  in
  let probe () =
    { id = fresh (); line = lineitem_probe; kind = Read (text_id s lineitem_probe); after = -1 }
  in
  List.concat
    (List.init cycles (fun _ ->
         let ins = update s (fresh ()) in
         let p1 = probe () in
         let p2 = probe () in
         let del = update s (fresh ()) in
         let p3 = probe () in
         let p4 = probe () in
         [ ins; p1; p2; del; p3; p4 ]))

(* the delete that closes a still-open insert, if any (not timed) *)
let closing_update s =
  match s.inserted with
  | None -> None
  | Some _ ->
    let id = s.next_id in
    s.next_id <- id + 1;
    Some (update s id)
