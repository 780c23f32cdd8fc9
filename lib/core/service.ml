(* Concurrent query front door: bounded admission over one shared
   domain pool, per-query guard envelopes, retry/backoff for transient
   faults, and degradation to a caller-supplied fallback on budget
   exhaustion.  See DESIGN.md §4e. *)

type shed_policy = Reject | Drop_oldest | Block

type lane = High | Normal | Low

(* lane-major order: lower index = dequeued first *)
let lane_index = function High -> 0 | Normal -> 1 | Low -> 2

let lane_to_string = function
  | High -> "high"
  | Normal -> "normal"
  | Low -> "low"

let lane_of_string = function
  | "high" -> Some High
  | "normal" -> Some Normal
  | "low" -> Some Low
  | _ -> None

type config = {
  capacity : int option;
  shed : shed_policy;
  workers : int;
  max_retries : int;
  backoff_base : float;
  deadline_in : float option;
  budget : int option;
  pool : Pool.t option;
}

let default_config ?(pool = Pool.auto ()) () =
  { capacity = None;
    shed = Reject;
    workers = 4;
    max_retries = 2;
    backoff_base = 0.05;
    deadline_in = None;
    budget = None;
    pool }

type 'a outcome =
  | Ok of 'a
  | Degraded of 'a
  | Overloaded
  | Interrupted of Guard.reason
  | Failed of exn

let outcome_label = function
  | Ok _ -> "ok"
  | Degraded _ -> "degraded"
  | Overloaded -> "overloaded"
  | Interrupted _ -> "interrupted"
  | Failed _ -> "failed"

let outcome_to_string pp = function
  | Ok v -> "ok " ^ pp v
  | Degraded v -> "degraded " ^ pp v
  | Overloaded -> "overloaded"
  | Interrupted r -> "interrupted: " ^ Guard.reason_to_string r
  | Failed e -> "failed: " ^ Printexc.to_string e

type counters = {
  admitted : int;
  shed : int;
  retried : int;
  degraded : int;
  completed : int;
  failed : int;
  streams : int;
  stream_bytes : int;
}

type 'a ticket = {
  mutable result : 'a outcome option;
  ticket_lock : Mutex.t;
  resolved : Condition.t;
}

(* streaming delivery: the evaluated value is handed to the caller
   before its outcome is decided — the caller writes it out
   incrementally and settles the envelope with [finish] *)
type 'a stream_handle = {
  value : 'a;
  degraded : bool;
  prefix : int option;
  guard : Guard.t option;
  store : Cache.tag -> 'a -> unit;
  finish : ?bytes:int -> 'a outcome -> unit;
}

type 'a delivery = Finished of 'a outcome | Streaming of 'a stream_handle

(* how a submission talks to the semantic result cache; see submit *)
type 'a cache_binding = {
  cache : 'a Cache.t;
  key : string;
  deps : string list;
  approx_deps : string list;
  require_exact : bool;
}

(* what the admission queue holds: the typed closures are captured at
   submit time, so workers and the shed path see only thunks *)
type envelope = {
  exec : unit -> unit;  (* run the envelope; records its own outcome *)
  shed_env : unit -> unit;  (* resolve the ticket as [Overloaded] *)
}

type t = {
  cfg : config;
  queues : envelope Queue.t array;  (* one per lane, index = lane_index *)
  lock : Mutex.t;
  work_available : Condition.t;
  space_available : Condition.t;
  mutable stopped : bool;
  mutable domains : unit Domain.t array;
  draining : bool Atomic.t;
  (* guards of currently-executing attempts, so [drain] can cancel
     them; keyed by a fresh id per attempt *)
  inflight : (int, Guard.t) Hashtbl.t;
  inflight_lock : Mutex.t;
  inflight_next : int Atomic.t;
  c_admitted : int Atomic.t;
  c_shed : int Atomic.t;
  c_retried : int Atomic.t;
  c_degraded : int Atomic.t;
  c_completed : int Atomic.t;
  c_failed : int Atomic.t;
  c_streams : int Atomic.t;
  c_stream_bytes : int Atomic.t;
}

let config t = t.cfg

(* both require t.lock held *)
let queued_unsafe t =
  Array.fold_left (fun acc q -> acc + Queue.length q) 0 t.queues

let take_unsafe t =
  let rec go i =
    if i >= Array.length t.queues then None
    else
      match Queue.take_opt t.queues.(i) with
      | Some env -> Some env
      | None -> go (i + 1)
  in
  go 0

let counters t =
  { admitted = Atomic.get t.c_admitted;
    shed = Atomic.get t.c_shed;
    retried = Atomic.get t.c_retried;
    degraded = Atomic.get t.c_degraded;
    completed = Atomic.get t.c_completed;
    failed = Atomic.get t.c_failed;
    streams = Atomic.get t.c_streams;
    stream_bytes = Atomic.get t.c_stream_bytes }

let pending t =
  Mutex.lock t.lock;
  let n = queued_unsafe t in
  Mutex.unlock t.lock;
  n

let pending_lane t lane =
  Mutex.lock t.lock;
  let n = Queue.length t.queues.(lane_index lane) in
  Mutex.unlock t.lock;
  n

let draining t = Atomic.get t.draining

(* counter bookkeeping in one place, so the quiescent invariant
   [admitted = completed + shed + failed] holds by construction: every
   outcome lands in exactly one of the three.  Ticket submissions
   count here via [publish]; streaming deliveries count when the
   caller settles the envelope with [finish]. *)
let count_outcome t outcome =
  match outcome with
  | Overloaded -> Atomic.incr t.c_shed
  | Failed _ -> Atomic.incr t.c_failed
  | Degraded _ ->
    Atomic.incr t.c_degraded;
    Atomic.incr t.c_completed
  | Ok _ | Interrupted _ -> Atomic.incr t.c_completed

let publish t ticket outcome =
  count_outcome t outcome;
  Mutex.lock ticket.ticket_lock;
  ticket.result <- Some outcome;
  Condition.broadcast ticket.resolved;
  Mutex.unlock ticket.ticket_lock

let await ticket =
  Mutex.lock ticket.ticket_lock;
  let rec wait () =
    match ticket.result with
    | Some outcome ->
      Mutex.unlock ticket.ticket_lock;
      outcome
    | None ->
      Condition.wait ticket.resolved ticket.ticket_lock;
      wait ()
  in
  wait ()

let poll ticket =
  Mutex.lock ticket.ticket_lock;
  let r = ticket.result in
  Mutex.unlock ticket.ticket_lock;
  r

(* ------------------------------------------------------------------ *)
(* workers                                                             *)
(* ------------------------------------------------------------------ *)

(* Service workers are plain domains, NOT pool workers: envelopes must
   submit top-level parallel sections into the shared pool, so the DLS
   worker flag stays down here.  Every pool chunk still raises the flag
   for its own duration (see Pool.run_chunks) — including chunks of
   other queries this domain picks up while helping the pool — which
   degrades nested submission to sequential transitively. *)
let worker_loop t () =
  let rec next () =
    Mutex.lock t.lock;
    let rec obtain () =
      match take_unsafe t with
      | Some env ->
        Condition.signal t.space_available;
        Mutex.unlock t.lock;
        Some env
      | None ->
        if t.stopped then begin
          Mutex.unlock t.lock;
          None
        end
        else begin
          Condition.wait t.work_available t.lock;
          obtain ()
        end
    in
    match obtain () with
    | None -> ()
    | Some env ->
      (* envelopes record their own outcome and never raise *)
      env.exec ();
      next ()
  in
  next ()

let create cfg =
  let cfg =
    { cfg with
      workers = max 1 cfg.workers;
      capacity = Option.map (max 1) cfg.capacity;
      max_retries = max 0 cfg.max_retries;
      backoff_base = Float.max 0.0 cfg.backoff_base }
  in
  let t =
    { cfg;
      queues = Array.init 3 (fun _ -> Queue.create ());
      lock = Mutex.create ();
      work_available = Condition.create ();
      space_available = Condition.create ();
      stopped = false;
      domains = [||];
      draining = Atomic.make false;
      inflight = Hashtbl.create 16;
      inflight_lock = Mutex.create ();
      inflight_next = Atomic.make 0;
      c_admitted = Atomic.make 0;
      c_shed = Atomic.make 0;
      c_retried = Atomic.make 0;
      c_degraded = Atomic.make 0;
      c_completed = Atomic.make 0;
      c_failed = Atomic.make 0;
      c_streams = Atomic.make 0;
      c_stream_bytes = Atomic.make 0 }
  in
  t.domains <- Array.init cfg.workers (fun _ -> Domain.spawn (worker_loop t));
  t

let shutdown t =
  let domains =
    Mutex.lock t.lock;
    let ds = t.domains in
    t.domains <- [||];
    t.stopped <- true;
    Condition.broadcast t.work_available;
    Condition.broadcast t.space_available;
    Mutex.unlock t.lock;
    ds
  in
  Array.iter Domain.join domains;
  (* Workers drain the queue before exiting, but a submission racing in
     between the stop flag and the Invalid_argument check — or queued
     by a second shutdown caller's interleaving — must still terminate:
     run any leftovers on the shutdown caller, like Pool.shutdown. *)
  let rec run_leftovers () =
    Mutex.lock t.lock;
    let env = take_unsafe t in
    Mutex.unlock t.lock;
    match env with
    | Some env ->
      env.exec ();
      run_leftovers ()
    | None -> ()
  in
  run_leftovers ()

(* Drain: flip the draining flag — subsequent attempts resolve as
   [Interrupted Cancelled] without running, retries stop, and queued
   envelopes flush through the workers near-instantly — then cancel the
   guard of every attempt currently executing.  Returns how many live
   guards were cancelled.  Admission stays open (the caller decides
   when to [shutdown]); a drained service still resolves every ticket,
   so the quiescent counter invariant is preserved. *)
let drain t =
  Atomic.set t.draining true;
  Mutex.lock t.inflight_lock;
  let n = Hashtbl.length t.inflight in
  Hashtbl.iter (fun _ g -> Guard.cancel g) t.inflight;
  Mutex.unlock t.inflight_lock;
  n

(* ------------------------------------------------------------------ *)
(* submission: envelope construction + admission control               *)
(* ------------------------------------------------------------------ *)

(* Admission control shared by [submit] and [run_stream]: the
   admission-path fault site, the capacity bound, and the shed
   policies.  [`Faulted e] means the "service.admit" site raised —
   the caller resolves its envelope as [Failed e] (counted admitted +
   failed, so the quiescent invariant holds).  Otherwise the envelope
   is admitted: either enqueued on its lane or resolved through
   [shed_env] (which must count + resolve on its own). *)
let admit_envelope t lane envelope =
  match Guard.inject "service.admit" with
  | exception (Guard.Injected _ as e) ->
    Atomic.incr t.c_admitted;
    `Faulted e
  | () ->
    let lane_q = t.queues.(lane_index lane) in
    Mutex.lock t.lock;
    if t.stopped then begin
      Mutex.unlock t.lock;
      invalid_arg "Service.submit: service is shut down"
    end;
    Atomic.incr t.c_admitted;
    let enqueue () =
      Queue.push envelope lane_q;
      Condition.signal t.work_available;
      Mutex.unlock t.lock
    in
    (match t.cfg.capacity with
     | None -> enqueue ()
     | Some cap ->
       if queued_unsafe t < cap then enqueue ()
       else
         match t.cfg.shed with
         | Reject ->
           Mutex.unlock t.lock;
           envelope.shed_env ()
         | Drop_oldest ->
           (* evict from the lowest-priority lane first: the victim is
              the oldest envelope of the lowest non-empty lane.  A
              newcomer of strictly lower priority than everything queued
              would itself be the victim — shed it instead of displacing
              better-lane work.  Capacity is ≥ 1 and the queue is full,
              so a victim lane exists; resolve the evicted ticket after
              unlocking — it takes the ticket's own lock. *)
           let victim_lane =
             let rec go i =
               if Queue.is_empty t.queues.(i) then go (i - 1) else i
             in
             go (Array.length t.queues - 1)
           in
           if lane_index lane > victim_lane then begin
             Mutex.unlock t.lock;
             envelope.shed_env ()
           end
           else begin
             let evicted = Queue.pop t.queues.(victim_lane) in
             enqueue ();
             evicted.shed_env ()
           end
         | Block ->
           let rec wait () =
             if t.stopped then begin
               Mutex.unlock t.lock;
               (* shutdown overtook the blocked submission: resolve it
                  as shed rather than leave the ticket dangling *)
               envelope.shed_env ()
             end
             else if queued_unsafe t >= cap then begin
               Condition.wait t.space_available t.lock;
               wait ()
             end
             else enqueue ()
           in
           wait ());
    `Enqueued

let submit ?(lane = Normal) ?deadline_in ?budget ?max_retries ?fallback
    ?cache t job =
  let deadline_in =
    match deadline_in with Some _ -> deadline_in | None -> t.cfg.deadline_in
  in
  let budget = match budget with Some _ -> budget | None -> t.cfg.budget in
  let max_retries =
    max 0 (Option.value max_retries ~default:t.cfg.max_retries)
  in
  let ticket =
    { result = None;
      ticket_lock = Mutex.create ();
      resolved = Condition.create () }
  in
  (* semantic-cache fast path: a live entry resolves the ticket before
     admission — no queueing, no guard, zero tuples charged.  The tag
     is preserved: an [Approximate] entry publishes as [Degraded],
     never [Ok], so a degraded answer is never upgraded by a hit. *)
  let hit =
    match cache with
    | None -> None
    | Some b -> Cache.lookup ~require_exact:b.require_exact b.cache b.key
  in
  match hit with
  | Some (tag, v) ->
    Mutex.lock t.lock;
    if t.stopped then begin
      Mutex.unlock t.lock;
      invalid_arg "Service.submit: service is shut down"
    end;
    Atomic.incr t.c_admitted;
    Mutex.unlock t.lock;
    publish t ticket
      (match tag with
       | Cache.Exact -> Ok v
       (* a Partial prefix is served degraded on the non-streaming
          path too: sound, incomplete, never exact *)
       | Cache.Approximate | Cache.Partial _ -> Degraded v);
    ticket
  | None ->
  (* miss: capture dependency versions NOW, before any worker can read
     the database.  An update racing with the evaluation bumps a
     version after this snapshot, so the stored entry is already stale
     at its first lookup — conservative (spurious recomputation),
     never unsound (no stale answer served). *)
  let cache_store =
    match cache with
    | None -> fun _ -> ()
    | Some b ->
      let snap_exact = Cache.snapshot b.cache b.deps in
      let snap_approx = Cache.snapshot b.cache b.approx_deps in
      fun outcome ->
        (match outcome with
         | Ok v ->
           Cache.store b.cache ~key:b.key ~snapshot:snap_exact
             ~tag:Cache.Exact v
         | Degraded v ->
           Cache.store b.cache ~key:b.key ~snapshot:snap_approx
             ~tag:Cache.Approximate v
         | Overloaded | Interrupted _ | Failed _ -> ())
  in
  let pool = t.cfg.pool in
  (* run the fallback once, without a guard: for certain answers this
     is the polynomial Q⁺ pass of Certainty.cert_with_fallback — a
     single bounded evaluation, never interrupted *)
  let degrade_or default =
    match fallback with
    | None -> default
    | Some f ->
      (match f ~pool with
       | v -> Degraded v
       | exception e -> Failed e)
  in
  let rec attempt n =
    (* a draining service runs nothing further: queued envelopes and
       would-be retries resolve as cancelled immediately *)
    if Atomic.get t.draining then Interrupted Guard.Cancelled
    else begin
      let guard = Guard.create ?deadline_in ?budget () in
      let id = Atomic.fetch_and_add t.inflight_next 1 in
      Mutex.lock t.inflight_lock;
      Hashtbl.replace t.inflight id guard;
      Mutex.unlock t.inflight_lock;
      (* close the register/drain race: if drain's cancel sweep ran
         between the flag check and the registration, cancel ourselves *)
      if Atomic.get t.draining then Guard.cancel guard;
      let step =
        Fun.protect
          ~finally:(fun () ->
            Mutex.lock t.inflight_lock;
            Hashtbl.remove t.inflight id;
            Mutex.unlock t.inflight_lock)
          (fun () ->
            match job ~pool ~guard with
            | v -> `Done (Ok v)
            | exception Guard.Interrupt (Guard.Budget _ as r) ->
              (* more time would not help an exhausted budget: degrade
                 instead of retrying *)
              `Done (degrade_or (Interrupted r))
            | exception Guard.Interrupt Guard.Cancelled ->
              `Done (Interrupted Guard.Cancelled)
            | exception Guard.Interrupt Guard.Deadline -> `Transient `Deadline
            | exception (Guard.Injected _ as e) -> `Transient (`Fault e)
            | exception e -> `Done (Failed e))
      in
      match step with
      | `Done outcome -> outcome
      | `Transient kind ->
        if n >= max_retries || Atomic.get t.draining then
          match kind with
          | `Deadline -> degrade_or (Interrupted Guard.Deadline)
          | `Fault e -> Failed e
        else begin
          Atomic.incr t.c_retried;
          (* deterministic exponential backoff: no jitter, so a seeded
             fault schedule replays the same retry counts *)
          let d = t.cfg.backoff_base *. (2.0 ** float_of_int n) in
          if d > 0.0 then Unix.sleepf d;
          attempt (n + 1)
        end
    end
  in
  let envelope =
    { exec =
        (fun () ->
          let outcome = attempt 0 in
          cache_store outcome;
          publish t ticket outcome);
      shed_env = (fun () -> publish t ticket Overloaded) }
  in
  (match admit_envelope t lane envelope with
   | `Faulted e -> publish t ticket (Failed e)
   | `Enqueued -> ());
  ticket

let run ?lane ?deadline_in ?budget ?max_retries ?fallback ?cache t job =
  await (submit ?lane ?deadline_in ?budget ?max_retries ?fallback ?cache t job)

(* ------------------------------------------------------------------ *)
(* streaming delivery                                                  *)
(* ------------------------------------------------------------------ *)

(* [run_stream] mirrors [submit]'s admission, retry and degradation
   pipeline, but on success the evaluated value is handed back as a
   {!stream_handle} instead of a settled outcome: the worker is
   released the moment evaluation finishes, the caller streams the
   value out on its own domain (a slow reader never pins a service
   worker), and the envelope's guard STAYS in the in-flight table
   until [finish] — so [drain], a deadline, or [Guard.cancel] land
   mid-response and the caller observes [Guard.Interrupt] at its next
   frame-boundary check.  Counters for a streaming delivery move only
   at [finish], so the quiescent invariant is judged on what was
   actually delivered. *)
let run_stream ?(lane = Normal) ?deadline_in ?budget ?max_retries ?fallback
    ?cache t job =
  let deadline_in =
    match deadline_in with Some _ -> deadline_in | None -> t.cfg.deadline_in
  in
  let budget = match budget with Some _ -> budget | None -> t.cfg.budget in
  let max_retries =
    max 0 (Option.value max_retries ~default:t.cfg.max_retries)
  in
  (* one-shot settlement: exactly one [finish] per delivery moves the
     counters; later calls are no-ops, so teardown paths may finish
     defensively *)
  let mk_finish ~unregister () =
    let settled = Atomic.make false in
    fun ?bytes outcome ->
      if Atomic.compare_and_set settled false true then begin
        (match bytes with
         | Some b when b > 0 -> ignore (Atomic.fetch_and_add t.c_stream_bytes b)
         | _ -> ());
        unregister ();
        count_outcome t outcome
      end
  in
  let hit =
    match cache with
    | None -> None
    | Some b -> Cache.lookup ~require_exact:b.require_exact b.cache b.key
  in
  match hit with
  | Some (tag, v) ->
    Mutex.lock t.lock;
    if t.stopped then begin
      Mutex.unlock t.lock;
      invalid_arg "Service.submit: service is shut down"
    end;
    Atomic.incr t.c_admitted;
    Mutex.unlock t.lock;
    Atomic.incr t.c_streams;
    let degraded, prefix =
      match tag with
      | Cache.Exact -> (false, None)
      | Cache.Approximate -> (true, None)
      | Cache.Partial k -> (true, Some k)
    in
    Streaming
      { value = v;
        degraded;
        prefix;
        guard = None;
        store = (fun _ _ -> ());
        finish = mk_finish ~unregister:(fun () -> ()) () }
  | None ->
  let store_fn =
    match cache with
    | None -> fun _ _ -> ()
    | Some b ->
      (* capture dependency versions NOW, as in [submit]: an update
         racing the evaluation leaves the stored entry already stale *)
      let snap_exact = Cache.snapshot b.cache b.deps in
      let snap_approx = Cache.snapshot b.cache b.approx_deps in
      fun tag v ->
        let snapshot =
          match tag with
          (* a Partial entry is a prefix of the exact answer, so it
             depends on exactly the exact answer's relations *)
          | Cache.Exact | Cache.Partial _ -> snap_exact
          | Cache.Approximate -> snap_approx
        in
        Cache.store b.cache ~key:b.key ~snapshot ~tag v
  in
  let pool = t.cfg.pool in
  let register guard =
    let id = Atomic.fetch_and_add t.inflight_next 1 in
    Mutex.lock t.inflight_lock;
    Hashtbl.replace t.inflight id guard;
    Mutex.unlock t.inflight_lock;
    (* close the register/drain race, as in [submit] *)
    if Atomic.get t.draining then Guard.cancel guard;
    id
  in
  let unregister_id id () =
    Mutex.lock t.inflight_lock;
    Hashtbl.remove t.inflight id;
    Mutex.unlock t.inflight_lock
  in
  (* degradation that still streams: the Q⁺ fallback value is
     delivered through a FRESH cancel-only guard registered for the
     streaming phase — the exhausted/expired guard would re-raise at
     the first frame-boundary check, truncating the degraded answer
     it just produced.  [drain] still lands: the fresh guard sits in
     the in-flight table until [finish]. *)
  let stream_fallback reason =
    match fallback with
    | None -> `Finished (Interrupted reason)
    | Some f ->
      (match f ~pool with
       | v ->
         let g = Guard.create () in
         let id = register g in
         `Streaming (v, true, id, g)
       | exception e -> `Finished (Failed e))
  in
  let rec attempt n =
    if Atomic.get t.draining then `Finished (Interrupted Guard.Cancelled)
    else begin
      let guard = Guard.create ?deadline_in ?budget () in
      let id = register guard in
      let unregister = unregister_id id in
      let step =
        match job ~pool ~guard with
        (* success: the guard stays registered — deadline and drain
           keep acting on the response until the caller finishes *)
        | v -> `Streaming (v, false, id, guard)
        | exception Guard.Interrupt (Guard.Budget _ as r) ->
          unregister ();
          stream_fallback r
        | exception Guard.Interrupt Guard.Cancelled ->
          unregister ();
          `Finished (Interrupted Guard.Cancelled)
        | exception Guard.Interrupt Guard.Deadline ->
          unregister ();
          `Transient `Deadline
        | exception (Guard.Injected _ as e) ->
          unregister ();
          `Transient (`Fault e)
        | exception e ->
          unregister ();
          `Finished (Failed e)
      in
      match step with
      | (`Finished _ | `Streaming _) as r -> r
      | `Transient kind ->
        if n >= max_retries || Atomic.get t.draining then
          match kind with
          | `Deadline -> stream_fallback Guard.Deadline
          | `Fault e -> `Finished (Failed e)
        else begin
          Atomic.incr t.c_retried;
          let d = t.cfg.backoff_base *. (2.0 ** float_of_int n) in
          if d > 0.0 then Unix.sleepf d;
          attempt (n + 1)
        end
    end
  in
  let cell_lock = Mutex.create () in
  let cell_cond = Condition.create () in
  let cell = ref None in
  let resolve d =
    Mutex.lock cell_lock;
    cell := Some d;
    Condition.broadcast cell_cond;
    Mutex.unlock cell_lock
  in
  let envelope =
    { exec =
        (fun () ->
          match attempt 0 with
          | `Finished outcome ->
            count_outcome t outcome;
            resolve (Finished outcome)
          | `Streaming (v, degraded, id, guard) ->
            Atomic.incr t.c_streams;
            resolve
              (Streaming
                 { value = v;
                   degraded;
                   prefix = None;
                   guard = Some guard;
                   store = store_fn;
                   finish = mk_finish ~unregister:(unregister_id id) () }));
      shed_env =
        (fun () ->
          count_outcome t Overloaded;
          resolve (Finished Overloaded)) }
  in
  (match admit_envelope t lane envelope with
   | `Faulted e ->
     count_outcome t (Failed e);
     resolve (Finished (Failed e))
   | `Enqueued -> ());
  Mutex.lock cell_lock;
  let rec wait () =
    match !cell with
    | Some d ->
      Mutex.unlock cell_lock;
      d
    | None ->
      Condition.wait cell_cond cell_lock;
      wait ()
  in
  wait ()
