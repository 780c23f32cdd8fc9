(* The request handler of the traced run.  It composes the layers in the
   order [incdb serve --listen --data DIR] does for SQL reads and
   insert/delete lines (bin/main.ml): Sql translation, the cache binding
   keyed by Planner.fingerprint, Service admission and the cache (inside
   Server), Certainty.cert_with_nulls_ra under the service's guard with
   the Scheme_pm Q+ fallback, and log-before-ack updates through Wal.
   Each of those calls is wrapped in a span of the request.

   Wire lines carry the request id as a first word ("17 SELECT ..."), so
   spans recorded on the connection and worker domains join the client's
   root span; the handler strips it before doing what serve does. *)

open Incdb

type wal_record = {
  w_op : [ `Insert | `Delete ];
  w_rel : string;
  w_tuple : Tuple.t;
  w_next_null : int;
}

type wal_image = { s_base : Database.t; s_next_null : int }

type t = {
  lock : Mutex.t;
  mutable view : Database.t;
  next_null : int ref;
  wal : (wal_record, wal_image) Wal.t;
  cache : Server.payload Cache.t;
  schema : Schema.t;
  all_rels : string list;
  trace : Trace.t;
  tuples : int list ref;
      (** Guard.tuples_used after each cert⊥ call of a request (set-up
          reads, with ids below 0, excluded) *)
}

let create ~trace ~wal_dir db =
  let wal, _ =
    Wal.open_dir
      ?fsync:(Wal.policy_of_string Serve_gen.fsync)
      ~snapshot_every:Serve_gen.snapshot_every ~dir:wal_dir ()
  in
  let schema = Database.schema db in
  let all_rels = List.map (fun (d : Schema.relation_decl) -> d.name) (Schema.relations schema) in
  let cache = Cache.create ~capacity:Serve_gen.cache_entries () in
  Cache.bump_all cache all_rels;
  { lock = Mutex.create (); view = db; next_null = ref 10_000_000; wal; cache;
    schema; all_rels; trace; tuples = ref [] }

let view t =
  Mutex.lock t.lock;
  let db = t.view in
  Mutex.unlock t.lock;
  db

let parse_update line =
  match String.index_opt line ' ' with
  | Some i when (let w = String.sub line 0 i in w = "insert" || w = "delete") -> (
    let op = if String.sub line 0 i = "insert" then `Insert else `Delete in
    let rest = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
    let n = String.length rest in
    match String.index_opt rest '(' with
    | Some l when n > 0 && rest.[n - 1] = ')' ->
      Some (op, String.trim (String.sub rest 0 l), String.sub rest (l + 1) (n - l - 2))
    | _ -> None)
  | _ -> None

(* the cells between an update's parentheses, as serve reads them *)
let tuple_of_body ~next_null body =
  let cells = if String.trim body = "" then [] else String.split_on_char ',' body in
  Tuple.of_list (List.map (Csv_io.parse_value ~next_null) cells)

(* serve's apply_update without the Datalog branch: validate, append to
   the log, then swap the view and bump the cache versions *)
let apply_update t ~rid op rel body =
  Mutex.lock t.lock;
  let saved = !(t.next_null) in
  match
    let tuple = tuple_of_body ~next_null:t.next_null body in
    let current =
      try Database.relation t.view rel
      with Not_found -> invalid_arg ("unknown relation " ^ rel)
    in
    if Tuple.arity tuple <> Relation.arity current then invalid_arg "arity mismatch";
    let noop =
      match op with
      | `Insert -> Relation.mem tuple current
      | `Delete -> not (Relation.mem tuple current)
    in
    if noop then begin
      t.next_null := saved;
      []
    end
    else begin
      Trace.with_span t.trace ~rid ~parent:"update" "wal.append" (fun () ->
          ignore
            (Wal.append t.wal
               { w_op = op; w_rel = rel; w_tuple = tuple; w_next_null = !(t.next_null) }));
      let updated =
        match op with
        | `Insert -> Relation.add tuple current
        | `Delete -> Relation.diff current (Relation.of_list (Relation.arity current) [ tuple ])
      in
      t.view <- Database.set_relation t.view rel updated;
      [ rel ]
    end
  with
  | changed ->
    Mutex.unlock t.lock;
    List.iter (Cache.bump t.cache) changed;
    changed
  | exception e ->
    t.next_null := saved;
    Mutex.unlock t.lock;
    raise e

(* serve's rendering of a streamed answer: one "t;" item per tuple *)
let tuples_seq r =
  Seq.map (fun t -> Tuple.to_string t ^ ";") (List.to_seq (Relation.to_list r))

let render_tuples r = String.concat "" (List.of_seq (tuples_seq r))

let handle t ~stream line =
  let rid, body =
    match String.index_opt line ' ' with
    | Some i -> (
      match int_of_string_opt (String.sub line 0 i) with
      | Some rid -> (rid, String.sub line (i + 1) (String.length line - i - 1))
      | None -> (-1, line))
    | None -> (-1, line)
  in
  let span ?parent name f = Trace.with_span t.trace ~rid ?parent name f in
  match parse_update body with
  | Some (op, rel, cells) -> (
    match span "update" (fun () -> apply_update t ~rid op rel cells) with
    | changed ->
      let payload =
        Server.Line
          (match changed with
           | [] -> "updated (no-op)"
           | rels -> "updated " ^ String.concat "," rels)
      in
      Ok { Server.run = (fun ~pool:_ ~guard:_ -> payload); fallback = None; cache = None }
    | exception Invalid_argument msg -> Error msg)
  | None -> (
    match span "sql.translate" (fun () -> Sql.To_algebra.translate_string t.schema body) with
    | exception
        (Sql.Parser.Parse_error msg | Sql.Lexer.Lex_error msg | Sql.To_algebra.Unsupported msg)
      ->
      Error msg
    | q ->
      let binding =
        span "planner.fingerprint" (fun () ->
            { Service.cache = t.cache;
              key = (if stream then "certs:" else "cert:") ^ Planner.fingerprint q;
              deps = Algebra.relations q;
              approx_deps = t.all_rels;
              require_exact = false })
      in
      (* from here until a worker starts the job, the request is in
         Server and Service: quota, cache lookup, admission queue *)
      let handed = Util.now () in
      let started = Atomic.make false in
      let render ~degraded r =
        if stream then Server.Stream (tuples_seq r)
        else
          Server.Line
            (Printf.sprintf
               (if degraded then "(%d tuples, sound subset)" else "(%d tuples)")
               (Relation.cardinal r))
      in
      let run ~pool ~guard =
        if not (Atomic.exchange started true) then
          Trace.add t.trace
            { Trace.rid; name = "service.queue_wait"; parent = "request";
              t0 = handed; t1 = Util.now () };
        let r =
          span "certainty" (fun () ->
              Fun.protect
                ~finally:(fun () ->
                  if rid >= 0 then begin
                    Mutex.lock t.lock;
                    t.tuples := Guard.tuples_used guard :: !(t.tuples);
                    Mutex.unlock t.lock
                  end)
                (fun () -> Certainty.cert_with_nulls_ra ~pool ~guard (view t) q))
        in
        render ~degraded:false r
      in
      let fallback ~pool =
        render ~degraded:true
          (span "scheme_pm.fallback" (fun () -> Scheme_pm.certain_sub ~pool (view t) q))
      in
      Ok { Server.run; fallback = Some fallback; cache = Some binding })

let service_config () =
  { Service.capacity = None;
    shed = Service.Reject;
    workers = 4;
    max_retries = 2;
    backoff_base = 0.05;
    deadline_in = None;
    budget = Some Serve_gen.budget;
    pool = Pool.auto () }

(* serve's --listen defaults *)
let server_config () =
  { Server.host = "127.0.0.1";
    port = 0;
    max_connections = 16;
    max_line = 64 * 1024;
    read_timeout = 10.0;
    write_timeout = 10.0;
    drain_deadline = 5.0;
    client_quota = None;
    byte_quota = None;
    frame_items = 64;
    stats = None;
    snapshot = None;
    directives = [];
    service = service_config () }
