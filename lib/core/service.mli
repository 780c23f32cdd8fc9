(** Concurrent query front door (DESIGN.md §4e).

    Certain-answer evaluation has an exponential worst case (cert⊥ is
    coNP-hard), so a server that admits arbitrary concurrent queries
    over one shared {!Pool} will starve, oversubscribe, or wedge
    without an admission layer.  A service multiplexes client
    submissions over the pool with {e bounded} admission:

    - a bounded admission queue with a configurable {!shed_policy} —
      submissions beyond capacity are answered with the structured
      {!Overloaded} outcome instead of queueing unboundedly;
    - a fixed set of worker domains caps the number of {e in-flight}
      queries, so [k] queries share the pool without oversubscribing
      it (each envelope receives the service's [pool] to thread through
      the evaluators' existing [?pool] arguments);
    - every job runs inside a fresh {!Guard} per attempt, with the
      deadline/budget taken from the service {!config} unless
      overridden per query, and its result is classified as an
      {!outcome};
    - transient failures — injected faults ({!Guard.Injected}) and
      deadline interrupts — are retried up to [max_retries] times with
      deterministic exponential backoff ([backoff_base·2ⁿ] seconds, no
      jitter, so seeded fault schedules replay identically); budget
      interrupts instead {e degrade}: the optional [fallback] job (for
      certain answers, the polynomial Q⁺ scheme behind
      [Certainty.cert_with_fallback]) is run once, unguarded, and the
      result is reported as [Degraded].

    With no faults and guards that never fire, outcomes are [Ok v]
    with [v] bit-identical to the sequential evaluation — the service
    adds scheduling, never semantics (property-tested for queue
    capacities 1/4/∞ and shed policies Reject/Block). *)

(** What to do with a submission that finds the admission queue full. *)
type shed_policy =
  | Reject  (** answer the {e new} submission with {!Overloaded} *)
  | Drop_oldest
      (** evict the oldest envelope of the {e lowest-priority non-empty
          lane} (its ticket resolves to {!Overloaded}) and admit the
          new one; a newcomer of strictly lower priority than every
          queued envelope is shed itself instead of displacing
          better-lane work *)
  | Block
      (** block the submitting domain until a worker frees a slot.
          Never shed; intended for client domains — a job that submits
          back into its own service with [Block] can deadlock, exactly
          like any bounded thread pool. *)

(** Priority lanes.  The admission queue is lane-major: workers always
    dequeue the oldest [High] envelope before any [Normal] one, and
    [Normal] before [Low]; within a lane, order is FIFO.  [capacity]
    bounds the three lanes {e together}, and under {!Drop_oldest} sheds
    evict the lowest lane first.  Dequeue order is a deterministic
    function of the queue state, so seeded fault schedules replay
    identically with lanes in play. *)
type lane = High | Normal | Low

(** ["high" | "normal" | "low"]. *)
val lane_to_string : lane -> string

val lane_of_string : string -> lane option

type config = {
  capacity : int option;
      (** queued-envelope bound ([None] = unbounded, clamped to ≥ 1);
          in-flight envelopes are bounded separately by [workers] *)
  shed : shed_policy;
  workers : int;
      (** worker domains = maximum in-flight queries (clamped to ≥ 1) *)
  max_retries : int;  (** retry attempts after the first try (≥ 0) *)
  backoff_base : float;
      (** seconds before retry [n] is [backoff_base ·  2ⁿ]; [0.] for
          jitter-free tests *)
  deadline_in : float option;  (** default per-attempt guard deadline *)
  budget : int option;  (** default per-attempt guard tuple budget *)
  pool : Pool.t option;
      (** the shared execution pool handed to every job; [None] keeps
          jobs on the sequential paths *)
}

(** [default_config ?pool ()]: unbounded queue, [Reject], 4 workers,
    2 retries, 50 ms backoff base, no deadline, no budget, and the
    process-wide {!Pool.auto} pool (unless [pool] overrides it). *)
val default_config : ?pool:Pool.t option -> unit -> config

(** How a submission ended.  Every submission terminates with exactly
    one outcome — shed, interrupted, and faulted queries included. *)
type 'a outcome =
  | Ok of 'a  (** the job completed under its guard *)
  | Degraded of 'a
      (** the guard interrupted the job and the [fallback] produced
          this (sound, cheaper) answer instead *)
  | Overloaded  (** shed at admission ({!Reject}/{!Drop_oldest}) *)
  | Interrupted of Guard.reason
      (** the guard fired, retries (if applicable) were exhausted, and
          no [fallback] was available *)
  | Failed of exn
      (** the job raised: a non-transient exception immediately, or a
          still-injected fault after [max_retries] retries *)

(** ["ok" | "degraded" | "overloaded" | "interrupted" | "failed"]. *)
val outcome_label : 'a outcome -> string

(** [outcome_to_string pp o] — the label plus the payload rendered
    with [pp], or the interrupt reason / exception message. *)
val outcome_to_string : ('a -> string) -> 'a outcome -> string

(** Monotone live counters, readable at any time from any domain.
    Once the service is quiescent (every ticket resolved),

    {[ admitted = completed + shed + failed ]}

    where [admitted] counts every accepted [submit] call (including
    submissions later shed), [completed] counts [Ok]/[Degraded]/
    [Interrupted] outcomes, [shed] counts [Overloaded] outcomes,
    [failed] counts [Failed] outcomes, [degraded ≤ completed] counts
    the [Degraded] subset, and [retried] counts individual retry
    attempts (not submissions).

    A {e streaming} delivery ({!run_stream}) counts [admitted] at
    admission but moves its terminal counter only when the caller
    settles it with [finish] — so at quiescence (every stream
    finished) the same invariant holds over exactly what was
    delivered.  [streams] counts deliveries handed back as
    {!stream_handle}s (cache-hit replays included); [stream_bytes]
    accumulates the bytes the callers reported via [finish]. *)
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

type t

(** A handle on one submission; resolves to the submission's outcome. *)
type 'a ticket

(** How a submission talks to the semantic result cache ({!Cache},
    DESIGN.md §4g).  [key] is the caller's cache key (in practice
    ["<mode>:" ^ Planner.fingerprint q]); [deps] are the base
    relations an {e exact} answer depends on ([Algebra.relations q]);
    [approx_deps] are the dependencies of a {e degraded} answer.  A
    Q⁺ fallback reads only the query's relations, so [incdb serve]
    passes [deps] again; [incdb coord] passes every relation of the
    schema, since a partial gather reflects fleet health rather than
    any one relation.  [require_exact] makes the
    lookup skip [Approximate] entries (a caller that would not accept
    a degraded answer must not be served one from the cache). *)
type 'a cache_binding = {
  cache : 'a Cache.t;
  key : string;
  deps : string list;
  approx_deps : string list;
  require_exact : bool;
}

(** [create config] spawns the worker domains and returns the running
    service. *)
val create : config -> t

val config : t -> config

(** Snapshot of the live counters. *)
val counters : t -> counters

(** Envelopes waiting in the admission queue, all lanes summed
    (in-flight ones excluded); mainly for tests. *)
val pending : t -> int

(** Envelopes waiting in one lane's queue; mainly for tests. *)
val pending_lane : t -> lane -> int

(** [submit t job] hands [job] to the front door and returns
    immediately with a ticket ([Block] policy aside, which may wait
    for queue space).  [job ~pool ~guard] receives the service pool
    and the fresh per-attempt guard; thread them into the evaluators'
    [?pool]/[?guard] arguments.  [deadline_in]/[budget]/[max_retries]
    override the service config for this query.  [fallback] (run
    without a guard, at most once) turns a budget interrupt — or a
    deadline interrupt that survived all retries — into a [Degraded]
    answer.

    [lane] (default {!Normal}) picks the priority lane.

    [cache] binds the submission to a semantic result cache: a live
    entry resolves the ticket {e before} admission — no queue, no
    guard, zero tuples charged — as [Ok] for [Exact] entries and
    [Degraded] for [Approximate] ones (the tag is never upgraded).
    On a miss, the dependency versions are snapshotted at submit time
    (before any evaluation can read the data, so a racing update
    invalidates conservatively) and the outcome is stored back on
    [Ok] (as [Exact], keyed on [deps]) or [Degraded] (as
    [Approximate], keyed on [approx_deps]).  Hits count [admitted] and
    [completed], so the quiescent invariant is unchanged.

    The ["service.admit"] fault-injection site fires at the top of
    every {e admitted} [submit] (cache hits bypass it): a raise-mode
    fault resolves the ticket as [Failed] without enqueueing (never
    raised to the caller; counted admitted + failed, so the quiescent
    invariant holds), a delay-mode fault stalls the submitting
    caller — a simulated slow admission layer.

    @raise Invalid_argument if the service is shut down. *)
val submit :
  ?lane:lane ->
  ?deadline_in:float ->
  ?budget:int ->
  ?max_retries:int ->
  ?fallback:(pool:Pool.t option -> 'a) ->
  ?cache:'a cache_binding ->
  t ->
  (pool:Pool.t option -> guard:Guard.t -> 'a) ->
  'a ticket

(** Block until the ticket's submission terminates.  Every submission
    terminates — shed immediately, or with the worker's classification
    — so [await] never hangs on a live service. *)
val await : 'a ticket -> 'a outcome

(** [Some outcome] once resolved, [None] while queued or in flight. *)
val poll : 'a ticket -> 'a outcome option

(** [run t job] = submit-and-await, for synchronous callers. *)
val run :
  ?lane:lane ->
  ?deadline_in:float ->
  ?budget:int ->
  ?max_retries:int ->
  ?fallback:(pool:Pool.t option -> 'a) ->
  ?cache:'a cache_binding ->
  t ->
  (pool:Pool.t option -> guard:Guard.t -> 'a) ->
  'a outcome

(** One streaming delivery in flight: the evaluated [value] plus the
    obligations the caller takes on by accepting it.

    - [degraded] — the value came from the Q⁺ [fallback] (budget
      exhausted, or deadline after all retries) or from a
      non-[Exact] cache entry; render it as degraded, never exact.
    - [prefix] — [Some k] when the value is a cached [Partial k]
      entry: only the first [k] items are valid, stop there.
    - [guard] — the guard that stays registered in the service's
      in-flight table until [finish]: poll it ([Guard.check]) between
      frames so a deadline, [Guard.cancel], or {!drain} cancels the
      response mid-stream.  [None] for cache-hit replays (check
      {!draining} instead).
    - [store] — write the delivered value back to the submission's
      cache binding under a caller-chosen tag ([Exact] for a fully
      drained exact answer, [Approximate] for a fully drained
      degraded one, [Partial k] for a truncated prefix); snapshots
      were captured at submit time.  No-op without a binding or on
      cache hits.
    - [finish] — settle the envelope: MUST be called exactly once
      (later calls are ignored), with the outcome that describes what
      the client actually received and optionally the bytes written.
      Until then the service counts the query in flight and {!drain}
      can reach its guard; afterwards the terminal counter moves. *)
type 'a stream_handle = {
  value : 'a;
  degraded : bool;
  prefix : int option;
  guard : Guard.t option;
  store : Cache.tag -> 'a -> unit;
  finish : ?bytes:int -> 'a outcome -> unit;
}

(** How a {!run_stream} submission came back: settled like a ticket
    ([Finished] — shed, cancelled, failed, or drained before
    evaluation), or as a live stream the caller must [finish]. *)
type 'a delivery = Finished of 'a outcome | Streaming of 'a stream_handle

(** [run_stream t job] — [run], but on success the value is handed
    back for {e incremental} delivery instead of a settled [Ok]: the
    worker domain is released the moment evaluation finishes, the
    caller streams the value out on its own domain (a slow reader
    never pins a service worker), and the envelope's guard stays
    cancellable until [finish].  Admission, lanes, retries, fallback
    degradation, the cache fast path, and the ["service.admit"] fault
    site behave exactly as in {!submit}; a degraded value streams
    under a fresh cancel-only guard (the exhausted one would re-raise
    at the first frame check).  Blocks until evaluation completes or
    the submission settles.

    @raise Invalid_argument if the service is shut down. *)
val run_stream :
  ?lane:lane ->
  ?deadline_in:float ->
  ?budget:int ->
  ?max_retries:int ->
  ?fallback:(pool:Pool.t option -> 'a) ->
  ?cache:'a cache_binding ->
  t ->
  (pool:Pool.t option -> guard:Guard.t -> 'a) ->
  'a delivery

(** [drain t] puts the service in drain mode and force-cancels what is
    in flight: the draining flag makes every {e not-yet-started}
    envelope (queued, or mid-backoff between retries) resolve as
    [Interrupted Cancelled] without running, and every {e currently
    executing} attempt has its guard cancelled, so the next
    [Guard.check] inside the evaluators raises.  Returns the number of
    live guards cancelled.  Admission stays open (post-drain
    submissions resolve as cancelled too) and every ticket still
    resolves, so the quiescent invariant [admitted = completed + shed +
    failed] is preserved; call {!shutdown} afterwards to stop the
    workers.  Irreversible. *)
val drain : t -> int

(** [true] once {!drain} has been called. *)
val draining : t -> bool

(** [shutdown t] stops admission ([submit] raises afterwards), lets the
    workers finish the queue — already-admitted envelopes complete with
    real outcomes, they are not shed — joins the worker domains, and
    wakes any [Block]-ed submitters (their submissions resolve to
    {!Overloaded}).  Idempotent.  The shared pool is {e not} shut down:
    the service borrows it. *)
val shutdown : t -> unit
