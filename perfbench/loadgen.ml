(* The load generator: one thread multiplexing the connections with
   select(2).  The protocol is request/response per connection, so a
   connection carries at most one request at a time.

   Open loop: request i is due at [start + i / rate] whatever the server
   does; it is sent on the first idle connection once due (and once the
   request it depends on has completed), and its latency runs from when
   it was due, so a stall also charges the requests queued behind it.
   [lag] is how late the generator itself sent a request that was ready
   (due, a connection idle, its dependency done); [backlog] counts
   requests due but not yet sent.

   Closed loop: every connection sends its next request as soon as the
   previous one completes, until [until]. *)

type outcome =
  | Exact of int  (** "ok (k tuples)" *)
  | Degraded of int  (** "degraded (k tuples, sound subset)" *)
  | Updated  (** "ok updated REL" *)
  | Failed of string  (** anything else, including no-op updates *)

type record = {
  req : Serve_gen.req;
  due : float;
  sent : float;
  recv : float;
  outcome : outcome;
  lag : float;  (** seconds the generator sent a ready request late *)
}

type conn = {
  fd : Unix.file_descr;
  mutable partial : string;  (** bytes after the last newline *)
  mutable lines : string list;  (** complete lines not yet consumed *)
  mutable sent : int;  (** request lines sent (the server's [n]) *)
  mutable cur : (Serve_gen.req * float * float * float) option;
      (** in flight: request, due, sent, lag *)
  mutable idle_since : float;
  mutable alive : bool;  (** false once the server dropped it *)
}

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { fd; partial = ""; lines = []; sent = 0; cur = None; idle_since = Util.now ();
    alive = true }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send_line c line =
  let s = line ^ "\n" in
  let len = String.length s in
  let rec go off =
    if off < len then go (off + Unix.write_substring c.fd s off (len - off))
  in
  go 0;
  if line = "" || line.[0] <> '#' then c.sent <- c.sent + 1

let buf = Bytes.create 65536

(* read what is available; raises End_of_file when the peer closed *)
let fill c =
  let n = Unix.read c.fd buf 0 (Bytes.length buf) in
  if n = 0 then raise End_of_file;
  let parts = String.split_on_char '\n' (c.partial ^ Bytes.sub_string buf 0 n) in
  let rec split acc = function
    | [ last ] ->
      c.partial <- last;
      c.lines <- c.lines @ List.rev acc
    | l :: rest -> split (l :: acc) rest
    | [] -> ()
  in
  split [] parts

(* blocking: the next complete line, within [timeout] seconds *)
let rec read_line ?(timeout = 60.0) c =
  match c.lines with
  | l :: rest ->
    c.lines <- rest;
    l
  | [] ->
    (match Unix.select [ c.fd ] [] [] timeout with
     | [], _, _ -> failwith "timed out waiting for the server"
     | _ -> fill c);
    read_line ~timeout c

(* send one line (a directive or a request) and return its one-line
   answer *)
let request c line =
  send_line c line;
  read_line c

(* "[n] rest" -> Some (n, rest) *)
let numbered line =
  match String.index_opt line ']' with
  | Some i when String.length line > 1 && line.[0] = '[' -> (
    match int_of_string_opt (String.sub line 1 (i - 1)) with
    | Some n ->
      let rest =
        if i + 2 <= String.length line then
          String.sub line (i + 2) (String.length line - i - 2)
        else ""
      in
      Some (n, rest)
    | None -> None)
  | _ -> None

let starts_with p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* a read's reply, after its "[n] " *)
let read_outcome rest =
  match Scanf.sscanf_opt rest "ok (%d tuples)" Fun.id with
  | Some k -> Exact k
  | None -> (
    match Scanf.sscanf_opt rest "degraded (%d tuples," Fun.id with
    | Some k -> Degraded k
    | None -> Failed rest)

let classify (req : Serve_gen.req) rest =
  match req.kind with
  | Serve_gen.Update ->
    if starts_with "ok updated " rest && not (starts_with "ok updated (no-op)" rest)
    then Updated
    else Failed rest
  | Serve_gen.Read _ -> read_outcome rest

type mode =
  | Open of (Serve_gen.req * float) array  (** requests with due times *)
  | Closed of (unit -> Serve_gen.req) * float  (** source, stop time *)

type result = {
  records : record list;  (** in completion order *)
  backlog_max : int;
  broken : int;
      (** requests without a terminal line: lost to a dropped
          connection, never sent, or answered by a stray extra line *)
}

(* a run with no send and no reply for this long is abandoned *)
let stall_s = 60.0

(* [wire] renders a request as the line sent (default: as generated);
   [done_at] maps the ids of completed requests to their completion
   time, shared by every run over one request stream *)
let run ?(wire = fun (r : Serve_gen.req) -> r.line) ~done_at conns mode =
  let conns = Array.of_list conns in
  let records = ref [] in
  let broken = ref 0 in
  let backlog_max = ref 0 in
  let next_index = ref 0 in
  (* Closed: a generated request is always sent, even past [until], so
     the stream's insert/delete pairing never loses a half *)
  let held = ref None in
  let peek now =
    match mode with
    | Open sched ->
      if !next_index < Array.length sched then Some sched.(!next_index) else None
    | Closed (src, until) -> (
      match !held with
      | Some r -> Some (r, now)
      | None when now < until ->
        let r = src () in
        held := Some r;
        Some (r, now)
      | None -> None)
  in
  let pop () = match mode with Open _ -> incr next_index | Closed _ -> held := None in
  let unsent () =
    match mode with
    | Open sched -> Array.length sched - !next_index
    | Closed _ -> if !held = None then 0 else 1
  in
  let dep_done (req : Serve_gen.req) = req.after < 0 || Hashtbl.mem done_at req.after in
  let idle () = Array.find_opt (fun c -> c.cur = None && c.alive) conns in
  let last_progress = ref (Util.now ()) in
  let complete c line now =
    last_progress := now;
    match c.cur with
    | None -> incr broken (* a line nothing asked for *)
    | Some (req, due, sent, lag) ->
      let outcome =
        match numbered line with
        | Some (n, rest) when n = c.sent -> classify req rest
        | Some (n, _) -> Failed (Printf.sprintf "reply numbered %d, expected %d" n c.sent)
        | None -> Failed line
      in
      c.cur <- None;
      c.idle_since <- now;
      Hashtbl.replace done_at req.id now;
      records := { req; due; sent; recv = now; outcome; lag } :: !records
  in
  let lost c =
    (match c.cur with
     | Some (req, due, sent, lag) ->
       records :=
         { req; due; sent; recv = Util.now (); outcome = Failed "connection lost"; lag }
         :: !records
     | None -> incr broken);
    c.cur <- None;
    c.alive <- false;
    close c
  in
  let rec dispatch now =
    match (idle (), peek now) with
    | Some c, Some (req, due) when due <= now && dep_done req ->
      let dep = if req.after < 0 then due else Hashtbl.find done_at req.after in
      let ready = Float.max due (Float.max c.idle_since dep) in
      pop ();
      last_progress := now;
      (match send_line c (wire req) with
       | () -> c.cur <- Some (req, due, now, now -. ready)
       | exception Unix.Unix_error _ ->
         c.cur <- Some (req, due, now, 0.0);
         lost c);
      dispatch now
    | _ -> ()
  in
  let rec loop () =
    let now = Util.now () in
    dispatch now;
    (match mode with
     | Open sched ->
       let due_count = ref !next_index in
       while !due_count < Array.length sched && snd sched.(!due_count) <= now do
         incr due_count
       done;
       backlog_max := max !backlog_max (!due_count - !next_index)
     | Closed _ -> ());
    let busy = List.filter (fun c -> c.cur <> None) (Array.to_list conns) in
    let alive = Array.exists (fun c -> c.alive) conns in
    let pending = peek now <> None in
    if busy = [] && ((not pending) || not alive) then broken := !broken + unsent ()
    else if now -. !last_progress > stall_s then begin
      List.iter lost busy;
      broken := !broken + unsent ()
    end
    else begin
      (* sleep until the head is due, or until a reply arrives *)
      let timeout =
        match (idle (), peek now) with
        | Some _, Some (req, due) when dep_done req -> Float.min 0.05 (Float.max 0.0 (due -. now))
        | _ -> 0.05
      in
      let readable, _, _ =
        try Unix.select (List.map (fun c -> c.fd) busy) [] [] timeout
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      List.iter
        (fun fd ->
          let c = List.find (fun c -> c.fd = fd) busy in
          match fill c with
          | () ->
            let t = Util.now () in
            let lines = c.lines in
            c.lines <- [];
            List.iter (fun l -> complete c l t) lines
          | exception (End_of_file | Unix.Unix_error _) -> lost c)
        readable;
      loop ()
    end
  in
  loop ();
  { records = List.rev !records; backlog_max = !backlog_max; broken = !broken }

(* A streamed read (after "#stream on"): the concatenated frame items
   and the terminal line's verdict.  Any line that is neither a frame
   nor the single terminal is an error. *)
let stream_read c sql =
  send_line c sql;
  let n = c.sent in
  let items = Buffer.create 1024 in
  let rec go opened =
    let line = read_line c in
    match numbered line with
    | Some (m, rest) when m = n ->
      if rest = "stream" && not opened then go true
      else if opened && starts_with "+ " rest then begin
        Buffer.add_string items (String.sub rest 2 (String.length rest - 2));
        go opened
      end
      else if opened && starts_with "end " rest then
        let words = String.split_on_char ' ' rest in
        let count = match words with _ :: k :: _ -> int_of_string_opt k | _ -> None in
        let degraded = List.mem "degraded" words in
        Ok (Buffer.contents items, count, degraded)
      else Error line
    | _ -> Error line
  in
  go false
