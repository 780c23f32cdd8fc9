(* A fixed pool of worker domains over one shared Mutex+Condition FIFO
   queue (DESIGN.md §4c).  A combinator entered from inside a chunk
   runs sequentially (the DLS worker flag below), which keeps the pool
   deadlock-free: chunks never block on other chunks. *)

type task = unit -> unit

(* Set for the duration of every chunk, on whichever domain executes
   it: the degradation signal for nested combinators, and the "am I
   inside a pool task" answer that guard attribution and fault
   injection draws rely on. *)
let worker_key : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let in_worker () = Domain.DLS.get worker_key

(* [f ()] with the worker flag raised, restored afterwards *)
let as_worker f =
  let was_worker = Domain.DLS.get worker_key in
  Domain.DLS.set worker_key true;
  Fun.protect ~finally:(fun () -> Domain.DLS.set worker_key was_worker) f

let scan_cutoff = ref 2048
let join_cutoff = ref 1024

type stats = {
  tasks : int;
  steals : int;
  failed_steals : int;
  parks : int;
}

type t = {
  size : int;
  queue : task Queue.t;
  lock : Mutex.t;
  work : Condition.t;
  mutable stopped : bool;
  mutable workers : unit Domain.t array;
  n_tasks : int Atomic.t;
  n_parks : int Atomic.t;
}

let size pool = pool.size

(* the only scheduler, named for the benchmark's host stamp *)
type backend = Fifo

let backend_name Fifo = "fifo"

let default_backend () = Fifo

let stats pool =
  { tasks = Atomic.get pool.n_tasks;
    steals = 0;
    failed_steals = 0;
    parks = Atomic.get pool.n_parks }

let stats_line pool =
  Printf.sprintf
    "pool backend=fifo size=%d tasks=%d steals=0 failed_steals=0 parks=%d"
    pool.size (Atomic.get pool.n_tasks) (Atomic.get pool.n_parks)

let domains_of_string s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= 1 -> Some (min n 128)
  | Some _ | None -> None

let default_size () =
  Guard.env_knob ~name:"INCDB_DOMAINS" ~expected:"a positive integer"
    ~fallback:"recommended_domain_count" ~parse:domains_of_string
    ~default:Domain.recommended_domain_count ()

(* ------------------------------------------------------------------ *)
(* create / shutdown / auto                                            *)
(* ------------------------------------------------------------------ *)

(* run queued tasks on the calling domain until the queue is empty *)
let rec drain pool =
  Mutex.lock pool.lock;
  let task = Queue.take_opt pool.queue in
  Mutex.unlock pool.lock;
  match task with
  | Some task ->
    task ();
    drain pool
  | None -> ()

let worker_loop pool () =
  Domain.DLS.set worker_key true;
  let rec next () =
    Mutex.lock pool.lock;
    let rec obtain () =
      match Queue.take_opt pool.queue with
      | Some task ->
        Mutex.unlock pool.lock;
        Some task
      | None ->
        if pool.stopped then begin
          Mutex.unlock pool.lock;
          None
        end
        else begin
          Atomic.incr pool.n_parks;
          Condition.wait pool.work pool.lock;
          obtain ()
        end
    in
    match obtain () with
    | None -> ()
    | Some task ->
      task ();
      next ()
  in
  next ()

let create ?size () =
  let size =
    max 1 (match size with Some n -> n | None -> default_size ())
  in
  let pool =
    { size;
      queue = Queue.create ();
      lock = Mutex.create ();
      work = Condition.create ();
      stopped = false;
      workers = [||];
      n_tasks = Atomic.make 0;
      n_parks = Atomic.make 0 }
  in
  pool.workers <- Array.init (size - 1) (fun _ -> Domain.spawn (worker_loop pool));
  pool

let shutdown pool =
  let workers =
    Mutex.lock pool.lock;
    let ws = pool.workers in
    pool.workers <- [||];
    pool.stopped <- true;
    Condition.broadcast pool.work;
    Mutex.unlock pool.lock;
    ws
  in
  (* Execute anything still queued on the shutdown caller.  Workers also
     drain the queue before exiting, but a size-1 pool has no workers,
     and tasks racing in after [stopped] was set would otherwise be
     dropped silently — leaving their [run_chunks] blocked on [job_done]
     forever.  Tasks record their own exceptions, so draining never
     throws. *)
  drain pool;
  Array.iter Domain.join workers

(* the process-wide pool behind [auto]; protected because workers of an
   outer parallel section may race to it through default arguments *)
let auto_lock = Mutex.create ()
let auto_pool : t option option ref = ref None

let auto () =
  Mutex.lock auto_lock;
  let p =
    match !auto_pool with
    | Some p -> p
    | None ->
      let p =
        let n = default_size () in
        if n <= 1 then None else Some (create ~size:n ())
      in
      auto_pool := Some p;
      (match p with
       | Some pool -> at_exit (fun () -> shutdown pool)
       | None -> ());
      p
  in
  Mutex.unlock auto_lock;
  p

(* ------------------------------------------------------------------ *)
(* chunk scheduling                                                    *)
(* ------------------------------------------------------------------ *)

(* [lo, hi) bounds of chunk [i] when splitting [len] into [n] chunks *)
let chunk_bounds len n i =
  let base = len / n and rem = len mod n in
  let lo = (i * base) + min i rem in
  (lo, lo + base + (if i < rem then 1 else 0))

(* Run [run 0 .. run (nchunks-1)]: chunks 1.. go to the shared queue,
   the caller runs chunk 0, helps drain the queue, then waits for
   stragglers executing on other domains.  Every chunk — a lone chunk
   included — runs with the worker flag raised no matter which domain
   executes it (a pool worker, the submitting caller, or a service
   worker that picked it up from inside a query envelope), and passes
   the guard check and the "pool.chunk" fault site.  The first
   exception raised by any chunk is re-raised once every chunk has
   finished — including [Guard.Interrupt] from the per-chunk guard
   check and injected faults, which are ordinary chunk exceptions to
   the scheduler. *)
let run_chunks ?guard pool ~nchunks run =
  if nchunks >= 1 then begin
    let job_lock = Mutex.create () in
    let job_done = Condition.create () in
    let remaining = ref nchunks in
    let first_exn = ref None in
    let exec i =
      Atomic.incr pool.n_tasks;
      (try
         as_worker (fun () ->
             Guard.check guard;
             Guard.inject "pool.chunk";
             run i)
       with e ->
         Mutex.lock job_lock;
         (* [Option.is_none], not [= None]: polymorphic comparison of an
            option holding an exception can itself raise when the
            exception carries closures *)
         if Option.is_none !first_exn then first_exn := Some e;
         Mutex.unlock job_lock);
      Mutex.lock job_lock;
      decr remaining;
      if !remaining = 0 then Condition.broadcast job_done;
      Mutex.unlock job_lock
    in
    if nchunks > 1 then begin
      Mutex.lock pool.lock;
      if pool.stopped then begin
        Mutex.unlock pool.lock;
        invalid_arg "Pool.run_chunks: pool is shut down"
      end;
      for i = 1 to nchunks - 1 do
        Queue.push (fun () -> exec i) pool.queue
      done;
      Condition.broadcast pool.work;
      Mutex.unlock pool.lock
    end;
    exec 0;
    if nchunks > 1 then drain pool;
    Mutex.lock job_lock;
    while !remaining > 0 do
      Condition.wait job_done job_lock
    done;
    Mutex.unlock job_lock;
    Option.iter raise !first_exn
  end

let nchunks_for pool len = max 1 (min len (4 * pool.size))

(* ------------------------------------------------------------------ *)
(* combinators                                                         *)
(* ------------------------------------------------------------------ *)

let default_cutoff = 64

let parallel_map_array ?(cutoff = default_cutoff) ?guard pool f arr =
  let len = Array.length arr in
  match pool with
  | None -> Array.map f arr
  | Some _ when len <= max 1 cutoff || in_worker () -> Array.map f arr
  | Some pool ->
    (* seed the output with the first element so no dummy is needed;
       the remaining indices are filled by disjoint chunks.  The seed
       call belongs to the parallel section just like any chunk, so it
       too runs with the worker flag raised *)
    let out = Array.make len (as_worker (fun () -> f arr.(0))) in
    let rest = len - 1 in
    let nchunks = nchunks_for pool rest in
    run_chunks ?guard pool ~nchunks (fun ci ->
        let lo, hi = chunk_bounds rest nchunks ci in
        for j = lo + 1 to hi do
          out.(j) <- f arr.(j)
        done);
    out

let parallel_map ?cutoff ?guard pool f xs =
  match pool with
  | None -> List.map f xs
  | Some _ ->
    Array.to_list (parallel_map_array ?cutoff ?guard pool f (Array.of_list xs))

let parallel_fold ?(cutoff = default_cutoff) ?guard pool ~map ~combine ~init xs
    =
  let sequential () =
    List.fold_left (fun acc x -> combine acc (map x)) init xs
  in
  match pool with
  | None -> sequential ()
  | Some pool ->
    let arr = Array.of_list xs in
    let len = Array.length arr in
    if len <= max 1 cutoff || in_worker () then sequential ()
    else begin
      let nchunks = nchunks_for pool len in
      let partials = Array.make nchunks None in
      run_chunks ?guard pool ~nchunks (fun ci ->
          let lo, hi = chunk_bounds len nchunks ci in
          if lo < hi then begin
            let acc = ref (map arr.(lo)) in
            for j = lo + 1 to hi - 1 do
              acc := combine !acc (map arr.(j))
            done;
            partials.(ci) <- Some !acc
          end);
      (* chunk results recombined in input order: for associative
         [combine] this is exactly the sequential fold *)
      Array.fold_left
        (fun acc partial ->
          match partial with None -> acc | Some v -> combine acc v)
        init partials
    end

let tree_reduce pool combine init arr =
  let len = Array.length arr in
  if len = 0 then init
  else begin
    let sequential () =
      let acc = ref arr.(0) in
      for j = 1 to len - 1 do
        acc := combine !acc arr.(j)
      done;
      !acc
    in
    match pool with
    | None -> sequential ()
    | Some _ when len < 8 || in_worker () -> sequential ()
    | Some _ ->
      let cur = ref arr in
      while Array.length !cur > 1 do
        let src = !cur in
        let n = Array.length src in
        let half = n / 2 in
        let next =
          parallel_map_array ~cutoff:1 pool
            (fun i -> combine src.(2 * i) src.((2 * i) + 1))
            (Array.init half Fun.id)
        in
        cur :=
          if n mod 2 = 1 then Array.append next [| src.(n - 1) |] else next
      done;
      !cur.(0)
  end

let fold_seq_chunked ?(chunk = 64) ?(stop = fun _ -> false) ?guard pool ~map
    ~combine ~init seq =
  let chunk = max 1 chunk in
  let take n seq =
    let rec go acc n seq =
      if n = 0 then (List.rev acc, seq)
      else
        match seq () with
        | Seq.Nil -> (List.rev acc, Seq.empty)
        | Seq.Cons (x, rest) -> go (x :: acc) (n - 1) rest
    in
    go [] n seq
  in
  let rec loop acc seq =
    (* the guard is checked between chunks even when the pool is absent
       or degraded to sequential, so a deadline interrupts unbounded
       world enumerations promptly on every configuration *)
    Guard.check guard;
    if stop acc then acc
    else
      match take chunk seq with
      | [], _ -> acc
      | items, rest ->
        let mapped = parallel_map ~cutoff:1 ?guard pool map items in
        loop (List.fold_left combine acc mapped) rest
  in
  loop init seq
