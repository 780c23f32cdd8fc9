(** Resource governor for the execution layer (DESIGN.md §4d).

    Exact certain answers enumerate canonical worlds — exponential in
    the number of nulls, coNP-complete in data complexity — so a single
    hostile query can otherwise pin the shared pool forever.  A guard
    token carries an optional deadline, an optional
    tuple-materialisation budget, and a cooperative cancellation flag;
    cheap {!check}/{!charge} calls are threaded through the hot loops
    ({!Pool.run_chunks} and {!Pool.fold_seq_chunked} chunk boundaries,
    the materialisation points of {!Incdb_relational.Plan},
    {!Incdb_certain.Certainty} world streaming, the semi-naive rounds
    of {!Incdb_datalog.Eval} and the chase rounds of
    {!Incdb_prob.Chase}).  Violations surface as the structured
    {!Interrupt} exception; [Certainty.cert_with_fallback] catches it
    mid-enumeration and degrades to the polynomial sound
    under-approximation schemes of §4–5.

    Every [?guard] argument in the library defaults to no guard, in
    which case all checks are no-ops and the guarded paths are
    bit-identical to the unguarded ones (property-tested). *)

(** Why a guarded computation was interrupted. *)
type reason =
  | Deadline  (** the wall-clock deadline passed *)
  | Budget of { tuples : int }
      (** the tuple-materialisation budget was exhausted after charging
          [tuples] tuples *)
  | Cancelled  (** {!cancel} was called on the token *)

exception Interrupt of reason

val reason_to_string : reason -> string

type t

(** [create ?deadline_in ?budget ()] makes a guard token.
    [deadline_in] is seconds from now ([Unix.gettimeofday] clock — the
    stdlib has no monotonic clock; a backwards step only makes the
    guard more lenient); [budget] caps the total number of tuples
    charged via {!charge}.  Omitting both yields a token that only
    reacts to {!cancel} — useful for measuring governor overhead.
    @raise Invalid_argument on negative [deadline_in] or [budget]. *)
val create : ?deadline_in:float -> ?budget:int -> unit -> t

(** [cancel g] sets the cooperative cancellation flag; the next
    {!check} against [g] from any domain raises
    [Interrupt Cancelled]. *)
val cancel : t -> unit

val cancelled : t -> bool

(** Total tuples charged so far (across all domains). *)
val tuples_used : t -> int

(** [check guard] raises {!Interrupt} if the token is cancelled, past
    its deadline, or over budget; [check None] is a no-op.  Safe to
    call concurrently. *)
val check : t option -> unit

val check_exn : t -> unit

(** [charge guard n] adds [n] materialised tuples to the token's count
    and then behaves as {!check}.  [charge None n] is a no-op (callers
    should avoid even computing [n] in that case). *)
val charge : t option -> int -> unit

val charge_exn : t -> int -> unit

(** {1 Environment knobs}

    One warn-once parser behind every [INCDB_*] environment knob
    ([INCDB_DOMAINS], [INCDB_FAULT], [INCDB_FSYNC]).
    [env_knob ~name ~expected ~fallback ~parse ~default ()] reads
    [name] from the environment; an unset knob yields [default ()], a
    parseable one yields the parsed value, and an unparseable one warns
    exactly once per process on stderr — quoting the offending value,
    the [expected] syntax, and the [fallback] description — then yields
    [default ()]. *)
val env_knob :
  name:string ->
  expected:string ->
  fallback:string ->
  parse:(string -> 'a option) ->
  default:(unit -> 'a) ->
  unit ->
  'a

(** {1 Fault injection}

    A deterministic fault layer for robustness testing: named sites in
    the execution layer call {!inject}, which raises {!Injected} or
    sleeps with a configured probability.  Configuration comes from the
    [INCDB_FAULT] environment variable on first use — a comma-separated
    list of [site:prob:seed] (raise) or [site:prob:seed:delay=ms]
    (sleep [ms] milliseconds) specs — or programmatically via
    {!set_faults}.

    Sites currently instrumented:
    - ["pool.chunk"] — every chunk executed by {!Pool.run_chunks},
      a lone chunk included (all parallel operators and combinators
      pass through it);
    - ["datalog.round"] — the top of every semi-naive round of
      [Incdb_datalog.Eval] (including the initial EDB round);
    - ["chase.round"] — every round of [Incdb_prob.Chase.chase_fds];
    - ["world.chunk"] — every chunk boundary of the canonical-world
      streaming in [Incdb_certain.Certainty] (fires on every
      configuration, including [~pool:None]);
    - ["service.admit"] — the top of every [Service.submit], before
      the envelope reaches the admission queue: a raise-mode fault
      resolves the ticket as [Failed] without enqueueing (exercising
      the shed/fail bookkeeping itself), a delay-mode fault stalls the
      submitting caller;
    - ["cache.lookup"] — the top of every [Cache.lookup]: a raise-mode
      fault is swallowed by the cache and counted as a miss (a broken
      cache degrades to evaluation, never to a wrong answer), a
      delay-mode fault stalls the looking-up caller;
    - ["wal.append"] — the top of every [Wal.append], before any bytes
      reach the log: a raise-mode fault rejects the update (the frame
      is never written, the update is never applied or acknowledged),
      a delay-mode fault stalls the committer;
    - ["wal.fsync"] — every policy-driven fsync inside [Wal.append]: a
      raise-mode fault rolls the just-written frame back out of the
      log (truncate to the pre-append offset) and rejects the update,
      so the log never contains a record whose update was not
      acknowledged; a delay-mode fault stalls the committer with the
      frame already buffered;
    - ["wal.snapshot"] — the top of every [Wal.snapshot]: a raise-mode
      fault aborts the snapshot before the temp image is renamed (the
      previous snapshot and the log are left intact — updates already
      acknowledged stay durable), a delay-mode fault stalls the
      snapshot writer;
    - ["server.write"] — before every stream-frame write of
      [Server]'s framed response protocol: a raise-mode fault fails
      the frame mid-stream — the connection is torn down and the
      streaming envelope settles as [Failed], so the quiescent
      counter invariant still holds — and a delay-mode fault stalls
      the writer inside the byte-fairness backpressure window;
    - ["shard.connect"] — before every dial of a shard worker by
      [Shard]'s per-shard client: a raise-mode fault is a structured
      connect failure that feeds the shard's circuit breaker, a
      delay-mode fault stalls the dialer inside its connect deadline;
    - ["shard.rpc"] — after the connection is established, before the
      request lines reach the shard: a raise-mode fault fails the
      attempt (feeding the breaker and the retry/backoff loop), a
      delay-mode fault stalls the RPC inside the hedging window, so a
      configured hedged read fires to the replica;
    - ["shard.gather"] — the top of every [Coord.scatter] fan-out: a
      raise-mode fault fails the whole gather as a structured error
      (the coordinator's service envelope retries or fails it — never
      a silent short answer), a delay-mode fault stalls the
      coordinator before any shard is contacted;
    - ["*"] in a spec matches every site, and a ["prefix.*"] pattern
      (e.g. ["shard.*"], ["wal.*"]) matches every site under that
      dotted prefix.  A ["*"] anywhere else in a pattern is malformed
      and rejects the whole spec — surfaced once per process through
      the {!env_knob} warn-once path.

    Draws are from a seeded, mutex-protected [Random.State], so a given
    spec replays the same fault schedule for the same sequence of site
    calls. *)

exception Injected of string

(** [inject site] fires any configured faults matching [site]: a no-op
    unless [INCDB_FAULT] or {!set_faults} configured one. *)
val inject : string -> unit

(** [set_faults specs] installs a fault configuration from the
    [INCDB_FAULT] spec syntax, overriding the environment; returns
    [false] (leaving the configuration unchanged) if [specs] does not
    parse. *)
val set_faults : string -> bool

(** Remove all faults (including any from the environment). *)
val clear_faults : unit -> unit

(** [true] when at least one fault spec is active. *)
val fault_injection_active : unit -> bool
