(** Incremental what-if engine: content-addressed memoization of the
    analysis pipeline (paper §8, network evolution).

    The paper observes that operational routing designs evolve by small
    deltas — a maintenance window, a decommissioned router, a new filter
    — against an otherwise stable network.  An [Engine.t] exploits that:
    it owns a family of {!Rd_util.Cache} stores that memoize, within the
    process, every expensive artifact of the pipeline keyed by the
    {e content} of its inputs:

    - per-file parses, keyed by (file name, raw bytes) — editing one
      configuration re-parses one file;
    - whole-network analyses ({!Analysis.t}), keyed by the compound of
      all file keys;
    - static reachability fixpoints ({!Rd_reach.Reachability.t}), keyed
      by the network key and the external offer;
    - what-if deltas, keyed by the network key and the scenario text.

    On top of the caches, {!run_scenario} reuses every artifact a sweep
    shares: the baseline reachability comes from cache, and the scenario
    re-analysis and its reachability are stored under the scenario's
    key, so a repeated sweep is answered by cache probes alone.

    Cache activity is observable through the engine's optional
    {!Rd_util.Metrics} registry ([cache.<store>.hits] / [.misses] /
    [.evictions] / [.invalidations] counters, [cache.<store>.entries]
    gauges) and {!Rd_util.Trace} sink ([cache.miss] spans); with both
    omitted the engine is silent and results are byte-identical. *)

type t
(** An engine: a family of content-addressed stores plus the optional
    observability sinks they report to.  Domain-safe (each store locks
    independently; misses compute outside the locks). *)

val create :
  ?metrics:Rd_util.Metrics.t -> ?trace:Rd_util.Trace.t -> ?cancel:Rd_util.Cancel.t ->
  ?capacity:int -> unit -> t
(** A fresh engine with empty stores.  [capacity] bounds each store
    (default {!Rd_util.Cache.create}'s 256 entries).  [cancel] is
    threaded into every fixpoint and parse the engine drives, so a
    deadline or SIGINT stops an in-flight scenario at its next poll
    point (cached probes are unaffected — a warm engine can still serve
    hits after cancellation). *)

val with_cancel : t -> Rd_util.Cancel.t option -> t
(** The same engine — sharing every store and observability sink —
    under a different cancellation token.  A sweep uses this to give
    each network its own per-task deadline while keeping one warm cache
    family. *)

type network = {
  name : string;
  key : Rd_util.Cache.key;
      (** content key of the network: name plus every file's parse key. *)
  analysis : Analysis.t;
}
(** A loaded network: the analysis together with the content key that
    addresses every derived artifact. *)

val load : t -> name:string -> (string * string) list -> network
(** [load t ~name files] analyzes [files] ((file name, raw text) pairs),
    reusing the per-file parse store and the whole-network analysis
    store.  A warm call with identical bytes is two cache probes; after
    a single-file edit only that file re-parses before the (new-keyed)
    analysis re-runs. *)

val reachability :
  ?external_offers:Rd_addr.Prefix_set.t -> t -> network -> Rd_reach.Reachability.t
(** The network's static reachability fixpoint under [external_offers]
    (default full, as {!Rd_reach.Reachability.compute}), from cache when
    the same network and offer were already solved. *)

type outcome = {
  scenario : Whatif.scenario;
  diff : Whatif.diff;
  touched : string list;
      (** configuration files the scenario modified or removed. *)
  seconds : float;  (** wall-clock for this scenario, caches included. *)
}

val run_scenario : t -> network -> Whatif.scenario -> outcome
(** Evaluate one scenario through the stores: cached baseline
    reachability (empty external offer, per {!Whatif.compare}'s scoring
    rule), cached scenario re-analysis via {!Whatif.apply}, cached
    scenario reachability via {!reachability} under the scenario's key,
    then {!Whatif.compare} over the pair.  The diff is equal to
    {!Whatif.run}'s on the same inputs. *)

val run_scenarios : t -> network -> Whatif.scenario list -> outcome list
(** {!run_scenario} over a sweep, in order, sharing every store — the
    baseline artifacts are computed once for scenario one and probed by
    the rest. *)

val stats : t -> (string * Rd_util.Cache.stats) list
(** Per-store cumulative counters, by store name ([parse], [analysis],
    [reach], [whatif]) — for reports and tests. *)
