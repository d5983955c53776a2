(** Static reachability analysis over the routing instance graph
    (paper §6.2, following the approach of CMU-CS-04-146).

    The analysis avoids modelling per-router route selection: it computes,
    for every routing instance, the set of destination addresses for which
    *some* route can be present in the instance, by propagating origin
    sets along the instance graph's edges and intersecting with each
    edge's route filter until fixpoint.  This is exactly the middle ground
    the paper advocates — strong enough to prove results like net15's
    "hosts in AB2 can never reach hosts in AB4". *)

open Rd_addr

type t = {
  origins : Prefix_set.t array;  (** per instance: subnets it originates. *)
  routes : Prefix_set.t array;
      (** per instance: destinations it can have routes for at fixpoint. *)
  advertised : (int * Prefix_set.t) list;
      (** per external AS: our routes it can hear. *)
  iterations : int;  (** fixpoint generations used. *)
  internal : Prefix_set.t;
      (** union of every instance's origins, computed once at
          construction (see {!internal_space}). *)
}

val compute :
  ?metrics:Rd_util.Metrics.t -> ?cancel:Rd_util.Cancel.t ->
  ?limits:Rd_util.Limits.t ->
  ?external_offers:Prefix_set.t -> Rd_routing.Instance_graph.t -> t
(** Worklist fixpoint: keeps a frontier of instances whose route set
    changed and only pushes along their outgoing edges (indexed once per
    call), instead of sweeping the whole edge list until a quiet round.
    Reaches the same least fixpoint as {!compute_rounds} — the regression
    suite proves the route and advertised sets semantically equal on all
    studied networks.

    [external_offers] is the route set the outside world presents on every
    inbound edge (default: the full address space — the Internet offers a
    route to everything).  [metrics] accumulates [reach.computations] and
    [reach.fixpoint_iterations] counters plus a per-call
    [reach.iterations] histogram, and attributes the prefix-set kernel's
    work to this call as [pset.nodes] / [pset.memo_hits] /
    [pset.memo_misses] deltas.

    The fixpoint is budgeted: when the generation count exceeds
    [limits.max_fixpoint_iterations] (default {!Rd_util.Limits.default},
    far beyond any real instance graph) the computation raises
    {!Rd_util.Limits.Budget_exceeded} with site ["reach.fixpoint"]
    instead of spinning; the budget is checked once per generation, so
    a budget of 0 raises before any edge is processed, exactly like the
    legacy sweep.  [cancel] is polled at the same per-generation point:
    a tripped token raises {!Rd_util.Cancel.Cancelled} with site
    ["reach.fixpoint"] within one generation of the trip. *)

val compute_rounds : ?cancel:Rd_util.Cancel.t -> Rd_routing.Instance_graph.t -> t
(** The legacy fixpoint: sweep every edge in rounds until a round changes
    nothing, with the full address space offered on every inbound edge
    and the round count budgeted by {!Rd_util.Limits.default} ({!compute}'s
    defaults).  Retained as executable reference semantics for {!compute}
    (regression tests); prefer {!compute}. *)

val origins_bulk : Rd_routing.Instance_graph.t -> Prefix_set.t array
(** Every instance's origin set, computed in one pass and memoized per
    graph (physical identity, per domain).  Treat the returned array as
    read-only — it is shared with later calls and with {!compute}. *)

val initial_routes : Rd_routing.Instance_graph.t -> Prefix_set.t array
(** The array both fixpoints start from: a fresh copy of
    {!origins_bulk} with {!Rd_addr.Prefix.default} seeded into the
    route set (never the origin set) of every instance whose process
    has [default-information originate] backed by a static default or
    another process on the router.  Safe to mutate — callers own the
    copy.  Exposed so external reference implementations (the
    structural fixpoint in the test suite) start from the same
    semantics. *)

val routes_of : t -> int -> Prefix_set.t
(** Route set of one instance (by instance id). *)

val external_routes_of : t -> int -> Prefix_set.t
(** Routes in the instance for destinations outside the network — the
    quantity that bounds IGP load in §6.2. *)

val can_reach : t -> src:Ipv4.t -> dst:Ipv4.t -> bool
(** A host at [src] (in some instance's origin set) can send packets
    toward [dst]: its instance holds a route covering [dst].  [false] when
    [src] is not attached to any instance. *)

val internal_space : t -> Prefix_set.t
(** Union of every instance's origins; computed once at construction and
    cached in [t.internal]. *)

val has_default : t -> int -> bool
(** Whether instance holds a default (0.0.0.0/0-covering) route — net15
    permits no default route in. *)
