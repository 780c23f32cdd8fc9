(** A fixed pool of worker domains over one shared FIFO queue.

    This is the execution layer behind every parallel code path in the
    library: the partition-parallel physical operators of
    {!Incdb_relational.Plan}, the canonical-world enumeration of
    {!Incdb_certain.Certainty}, the support counts of
    {!Incdb_prob.Support}, the per-rule firings of
    {!Incdb_datalog.Eval}, the per-round constraint scans of
    {!Incdb_prob.Chase}, the per-strategy c-table evaluation of
    {!Incdb_ctables.Ceval} and the multiplicity sweeps of
    {!Incdb_certain.Bag_bounds}.

    Design constraints (see DESIGN.md §4c):

    - {b stdlib only}: OCaml 5 [Domain] + [Mutex]/[Condition], no
      domainslib.
    - {b caller participates}: a pool of size [n] spawns [n - 1] worker
      domains; the submitting domain runs chunks too, so [size:1] pools
      execute the parallel code paths without any extra domain (useful
      for differential testing) and pay no synchronisation beyond a few
      queue operations.
    - {b sequential below cutoff}: every combinator falls back to the
      plain sequential implementation when the input is small, so tiny
      inputs pay zero overhead.
    - {b one shared FIFO queue}: chunks wait in a single
      Mutex+Condition queue that the workers and the submitting caller
      drain.  A combinator invoked from inside a pool chunk runs
      sequentially ({!in_worker}), which makes the pool deadlock-free
      by construction — chunks never block on other chunks.  The DLS
      worker flag behind {!in_worker} is raised for the duration of
      {e every} chunk, on whichever domain executes it — a dedicated
      pool worker, the submitting caller (chunk 0 and the help loop),
      or a {!Service} worker that picked the chunk up while helping —
      and restored afterwards.

    Every combinator is {e observationally deterministic}: given an
    associative [combine], results are equal to the sequential
    reference regardless of pool size or scheduling, because chunks
    are recombined in input order and the library's relations are
    immutable sets/maps. *)

type t

(** [create ?size ()] spawns a pool.  [size] defaults to
    {!default_size}; it is clamped to at least 1.  A pool of size [s]
    runs [s - 1] worker domains. *)
val create : ?size:int -> unit -> t

(** Total parallelism of the pool (worker domains + the caller). *)
val size : t -> int

(** [shutdown pool] stops and joins the worker domains.  Idempotent.
    Tasks still queued when the shutdown starts are executed — by the
    exiting workers or by the shutdown caller — never dropped, so a
    concurrent parallel section always completes.  Submitting {e new}
    parallel work to a shut-down pool raises [Invalid_argument]. *)
val shutdown : t -> unit

(** The pool size used by {!create} and {!auto} when none is given:
    the [INCDB_DOMAINS] environment variable if set to a positive
    integer (clamped to 128), otherwise
    [Domain.recommended_domain_count ()].  An unparseable
    [INCDB_DOMAINS] falls back to the recommended count with a
    once-per-process warning on stderr. *)
val default_size : unit -> int

(** The [INCDB_DOMAINS] parse used by {!default_size}: [Some n] for a
    positive integer (clamped to 128), [None] otherwise.  Exposed for
    the unit tests. *)
val domains_of_string : string -> int option

(** [auto ()] is the process-wide shared pool, created lazily with
    {!default_size} domains, shut down at exit — or [None] when
    {!default_size} is 1 (a single-core machine with no [INCDB_DOMAINS]
    override), in which case every consumer stays on its sequential
    path.  This is the default value of the [?pool]
    argument across the library, so [INCDB_DOMAINS=4] parallelises the
    whole stack with no code changes. *)
val auto : unit -> t option

(** [true] when called from inside a pool task.  Every combinator
    takes its sequential path when this holds, so a section nested
    inside a chunk never blocks a chunk on other chunks. *)
val in_worker : unit -> bool

(** {1 Scheduler statistics} *)

type stats = {
  tasks : int;  (** chunks executed, on any domain *)
  steals : int;  (** always 0 *)
  failed_steals : int;  (** always 0 *)
  parks : int;  (** waits of a worker on the shared-queue condition *)
}

(** Monotonic counters since pool creation.  Cheap (a few atomic
    reads); safe to call concurrently with running work. *)
val stats : t -> stats

(** One-line rendering for [#stats]-style surfaces, e.g.
    ["pool backend=fifo size=4 tasks=123 steals=0 failed_steals=0 \
      parks=11"]. *)
val stats_line : t -> string

(** {2 Benchmark compatibility}

    The benchmark's host stamp prints [backend_name (default_backend
    ())], and it reads [steals] and [failed_steals] above.  These names
    are kept only for the benchmark, until a change to the benchmark
    drops them; the pool has a single scheduler. *)

type backend = Fifo

(** Always [Fifo]. *)
val default_backend : unit -> backend

(** ["fifo"] *)
val backend_name : backend -> string

(** {1 Tunable cutoffs}

    Read by the physical operators of {!Incdb_relational.Plan} each
    time they decide between the sequential and the partition-parallel
    implementation; the differential tests set them to [0] to force the
    parallel code paths onto tiny relations. *)

(** Minimum tuple count for parallel selection / projection scans. *)
val scan_cutoff : int ref

(** Minimum combined tuple count ([|build| + |probe|]) for the
    partition-parallel hash join. *)
val join_cutoff : int ref

(** {1 Combinators}

    All take the pool as a [t option]: [None] is the sequential
    reference path.  [cutoff] is the input length at or below which
    the sequential path is taken ([0] parallelises everything beyond
    singletons).

    [guard] (default: none) is a {!Guard.t} resource token checked at
    every chunk boundary; a violated deadline/budget or a cancellation
    surfaces as [Guard.Interrupt] raised from the combinator after all
    in-flight chunks have finished — the pool itself is always left
    reusable.  Every chunk, a lone one included, additionally passes
    through the ["pool.chunk"] fault-injection site ({!Guard.inject}). *)

(** [parallel_map_array pool f arr] is [Array.map f arr], with chunks
    of the input mapped on separate domains.  [f] must be safe to call
    concurrently.  The first exception raised by any chunk is re-raised
    after all chunks finish. *)
val parallel_map_array :
  ?cutoff:int -> ?guard:Guard.t -> t option -> ('a -> 'b) -> 'a array ->
  'b array

(** List version of {!parallel_map_array}. *)
val parallel_map :
  ?cutoff:int -> ?guard:Guard.t -> t option -> ('a -> 'b) -> 'a list ->
  'b list

(** [parallel_fold pool ~map ~combine ~init xs] is
    [List.fold_left (fun acc x -> combine acc (map x)) init xs],
    computed as a chunked map-reduce: each chunk folds sequentially and
    the per-chunk results are recombined in input order.  Equal to the
    sequential fold whenever [combine] is associative. *)
val parallel_fold :
  ?cutoff:int ->
  ?guard:Guard.t ->
  t option ->
  map:('a -> 'b) ->
  combine:('b -> 'b -> 'b) ->
  init:'b ->
  'a list ->
  'b

(** [tree_reduce pool combine init arr] combines the elements of [arr]
    pairwise, level by level (a balanced reduction tree with each level
    computed in parallel), preserving input order inside every
    combination.  Returns [init] on the empty array; equal to
    [Array.fold_left combine] from the first element whenever [combine]
    is associative. *)
val tree_reduce : t option -> ('a -> 'a -> 'a) -> 'a -> 'a array -> 'a

(** [fold_seq_chunked pool ~map ~combine ~init ~stop seq] folds a
    (possibly huge) sequence without materialising it: [chunk] elements
    (default 64) are forced at a time, mapped in parallel, and folded
    into the accumulator in input order.  [stop] (default: never) is
    checked between chunks for sound early exit — e.g. an empty
    candidate set during certain-answer world enumeration.  Determinism
    requires [stop acc] to imply that folding any further element
    leaves [acc] unchanged.  [guard] is checked between chunks (on
    every configuration, including [~pool:None]), so deadlines and
    budgets interrupt unbounded enumerations promptly. *)
val fold_seq_chunked :
  ?chunk:int ->
  ?stop:('acc -> bool) ->
  ?guard:Guard.t ->
  t option ->
  map:('a -> 'b) ->
  combine:('acc -> 'b -> 'acc) ->
  init:'acc ->
  'a Seq.t ->
  'acc

(** [run_chunks pool ~nchunks run] executes [run 0 .. run (nchunks-1)]
    across the pool: chunks [1..] go to the shared queue, the caller
    runs chunk 0, helps drain the queue, and waits for stragglers.  The first exception raised by any chunk is re-raised
    after all chunks finish.  Exposed for the scheduler tests; library
    code uses the combinators above. *)
val run_chunks : ?guard:Guard.t -> t -> nchunks:int -> (int -> unit) -> unit
