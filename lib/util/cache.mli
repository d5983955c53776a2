(** Content-addressed analysis cache.

    The paper's central observation is that operators evolve routing
    designs {e incrementally} (§8): a maintenance scenario, a new filter,
    or a decommissioned router is a small delta against an otherwise
    stable network.  The what-if engine therefore memoizes expensive
    pipeline artifacts — parsed configurations, full analyses, static
    reachability fixpoints — in content-addressed stores, so that the
    unchanged majority of a design sweep is a cache probe rather than a
    recomputation.

    A store maps a {!type:key} — a SHA-1 digest ({!Sha1}) of the input
    bytes together with a stage name and stage version — to an arbitrary
    cached value.  Because the key is derived from content, not identity,
    a hit is exact: same bytes, same stage, same version.  Bumping a
    stage's version constant invalidates every entry of that stage at
    once (the rule used when an analysis stage's semantics change).

    Stores are process-local (nothing outlives the process) and
    domain-safe: lookups and insertions take a per-store mutex, while
    {!find_or_add} computes misses {e outside} the lock, so concurrent
    workers never serialize on a slow computation (a duplicated race
    computation is tolerated; last writer wins, values are assumed
    deterministic for their key).

    Activity is observable in the spirit of {!Trace}/{!Metrics}: every
    lookup can bump [cache.<name>.hits]/[.misses] counters, insertions
    maintain a [cache.<name>.entries] gauge, and {!find_or_add} wraps
    miss computations in a [cache.miss] span. *)

type key
(** A content-addressed cache key (a 20-byte SHA-1 digest). *)

val key : stage:string -> version:int -> string list -> key
(** [key ~stage ~version parts] digests the stage name, the stage
    version, and each part with unambiguous length framing: two part
    lists collide only if they are element-wise identical.  [parts] is
    typically the raw configuration bytes of a network (file names and
    contents), possibly followed by scenario or offer encodings. *)

val hex : key -> string
(** Lowercase 40-character hexadecimal rendering (for reports and
    JSON). *)

val raw : key -> Store.key
(** The raw 20-byte digest, as a {!Store} key — the bridge a study
    checkpoint entry's key crosses. *)

type 'a t
(** A mutable, domain-safe content-addressed store of ['a] values. *)

val create : ?capacity:int -> name:string -> unit -> 'a t
(** A fresh store.  [name] labels the store's metrics counters and
    spans.  [capacity] (default 256 entries) bounds memory: inserting
    into a full store runs a segmented second-chance sweep — entries
    not looked up since the previous sweep are evicted first (counted
    as [cache.<name>.evictions]), hot entries survive demoted, and the
    table is cut to half capacity — so a capacity hit during a warm
    what-if sweep keeps the working set instead of discarding it. *)

val find : ?metrics:Metrics.t -> 'a t -> key -> 'a option
(** Probe the store.  Bumps [cache.<name>.hits] or
    [cache.<name>.misses]. *)

val add : ?metrics:Metrics.t -> 'a t -> key -> 'a -> unit
(** Insert (replacing any previous value for the key), evicting first
    when at capacity.  Updates the [cache.<name>.entries] gauge. *)

val find_or_add :
  ?metrics:Metrics.t -> ?trace:Trace.t -> 'a t -> key -> (unit -> 'a) -> 'a
(** [find_or_add c k f] returns the cached value for [k], computing and
    inserting [f ()] on a miss.  [f] runs outside the store lock, inside
    a [cache.miss] span (category ["cache"], with the store name and key
    as span arguments) when [trace] is given. *)

val invalidate : 'a t -> key -> unit
(** Drop one entry (a no-op when absent), counted in {!stats}'
    [invalidations] when an entry was dropped. *)

val clear : 'a t -> unit
(** Drop every entry, adding the number dropped to {!stats}'
    [invalidations]. *)

val length : 'a t -> int

type stats = { hits : int; misses : int; evictions : int; invalidations : int }
(** Cumulative per-store counters since {!create} — maintained even when
    no {!Metrics} registry is supplied, so library code can assert cache
    behaviour without threading a registry. *)

val stats : 'a t -> stats
