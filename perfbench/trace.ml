(* In-memory spans for the traced run.  Each span names one call into a
   layer, made from the benchmark's own code: its request id, start and
   end (Unix seconds), and its parent span name ("" for a request's
   root).  Spans are recorded from several domains (connection domains
   run the handler, service workers run the jobs), so the store is
   locked; it is written out once, after the run. *)

type span = {
  rid : int;
  name : string;
  parent : string;
  t0 : float;
  t1 : float;
}

type t = { lock : Mutex.t; mutable spans : span list; enabled : bool }

let create ~enabled = { lock = Mutex.create (); spans = []; enabled }

let add t span =
  if t.enabled then begin
    Mutex.lock t.lock;
    t.spans <- span :: t.spans;
    Mutex.unlock t.lock
  end

(* [with_span t ~rid ~parent name f] runs [f ()] inside a span; the span
   is recorded whether [f] returns or raises *)
let with_span t ~rid ?(parent = "request") name f =
  if not t.enabled then f ()
  else begin
    let t0 = Util.now () in
    match f () with
    | v ->
      add t { rid; name; parent; t0; t1 = Util.now () };
      v
    | exception e ->
      add t { rid; name; parent; t0; t1 = Util.now () };
      raise e
  end

let spans t =
  Mutex.lock t.lock;
  let s = List.rev t.spans in
  Mutex.unlock t.lock;
  s

let write t path =
  let b = Buffer.create 65536 in
  Buffer.add_string b "rid\tname\tparent\tstart\tend\n";
  List.iter
    (fun s ->
      Printf.bprintf b "%d\t%s\t%s\t%.6f\t%.6f\n" s.rid s.name s.parent s.t0 s.t1)
    (spans t);
  Util.write_file path (Buffer.contents b)

(* Self time per span name.  A request's root span (parent "") covers
   it end to end; every other span names its parent, and a request calls
   each layer at most once, so (request id, name) identifies a span.  A
   span's self time is its duration minus its direct children's; the
   roots' self time is what no layer covers, "unattributed".  Spans of
   requests whose root was never recorded are dropped. *)
type accounting = {
  per_name : (string * float) list;  (** total self time (ms) per name *)
  total_ms : float;  (** the roots' total *)
  roots : int;
  unattributed : float list;  (** each root's self time (ms) *)
  error : float;
      (** how far the self times, each clipped at 0, miss the roots'
          total, as a share of it; 0 unless a child overruns its parent *)
}

let self_times t =
  let all = spans t in
  let dur s = (s.t1 -. s.t0) *. 1000.0 in
  let roots = Hashtbl.create 1024 in
  List.iter (fun s -> if s.parent = "" then Hashtbl.replace roots s.rid (dur s)) all;
  let live = List.filter (fun s -> Hashtbl.mem roots s.rid) all in
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> "" then begin
        let k = (s.rid, s.parent) in
        Hashtbl.replace children k
          (dur s +. Option.value ~default:0.0 (Hashtbl.find_opt children k))
      end)
    live;
  let totals = Hashtbl.create 16 in
  let unattributed = ref [] in
  List.iter
    (fun s ->
      let self =
        Float.max 0.0
          (dur s -. Option.value ~default:0.0 (Hashtbl.find_opt children (s.rid, s.name)))
      in
      let name = if s.parent = "" then "unattributed" else s.name in
      if s.parent = "" then unattributed := self :: !unattributed;
      Hashtbl.replace totals name
        (self +. Option.value ~default:0.0 (Hashtbl.find_opt totals name)))
    live;
  let total_ms = Hashtbl.fold (fun _ d acc -> acc +. d) roots 0.0 in
  let per_name =
    List.sort compare (Hashtbl.fold (fun name d acc -> (name, d) :: acc) totals [])
  in
  let accounted = List.fold_left (fun acc (_, d) -> acc +. d) 0.0 per_name in
  { per_name; total_ms; roots = Hashtbl.length roots; unattributed = !unattributed;
    error = (if total_ms > 0.0 then Float.abs (accounted -. total_ms) /. total_ms else 0.0) }

(* durations (ms) of every span called [name] of a request (ids below 0
   mark untimed set-up work) *)
let durations t name =
  List.filter_map
    (fun s -> if s.name = name && s.rid >= 0 then Some ((s.t1 -. s.t0) *. 1000.0) else None)
    (spans t)
