(** Route-propagation simulator over the routing process graph.

    Propagates concrete route records (with source protocol, tag, metric)
    along adjacency, redistribution, and selection edges to fixpoint.
    This answers the questions the paper says the process graph makes
    answerable (§3.1): how many routes each routing process must handle,
    and which destinations are reachable from a router under a given
    configuration.

    The fixpoint is semi-naive.  Each process RIB keeps a log of the
    routes it installs, and each adjacency direction or redistribution
    edge keeps a cursor into its source's log, so a round sends only the
    routes changed since that edge last sent.  Resending an unchanged
    route could not change anything: a route replaces another only when
    strictly better.  Rounds keep the round-robin schedule of the
    reference simulator (every edge in the same order, then aggregates,
    then default origination), so every round ends with the same RIBs as
    a full sweep would.  Cost is O(edges x routes changed) per round
    rather than O(edges x routes), which is what makes the concrete
    simulation affordable on the study's largest networks (1,430
    routers); the instance-level {!Rd_reach.Reachability} is still the
    cheaper abstraction for repeated questions. *)

open Rd_addr

type t = {
  graph : Rd_routing.Process_graph.t;
  proc_ribs : Rib.t array;  (** by pid. *)
  local_ribs : Rib.t array;  (** by router: connected and static routes. *)
  iterations : int;
  converged : bool;
      (** [false] when the round budget cut the fixpoint short — the RIBs
          are then a sound but possibly incomplete under-approximation. *)
}

val run :
  ?metrics:Rd_util.Metrics.t -> ?faults:Rd_util.Fault.t -> ?cancel:Rd_util.Cancel.t ->
  ?limits:Rd_util.Limits.t ->
  ?external_prefixes:Prefix.t list -> Rd_routing.Process_graph.t -> t
(** [external_prefixes] simulates the routes offered by external peers on
    every external BGP peering and IGP edge link (default: a single
    0.0.0.0/0).  [metrics] accumulates the [propagate.runs],
    [propagate.fixpoint_iterations], [propagate.routes_installed]
    (RIB-changing installs), and [propagate.redistributions] counters,
    flushed once per run.  [propagate.redistributions] counts the routes
    actually offered across a redistribution edge (past its route-map),
    so a route is counted again only when it changed since the edge last
    sent it.

    Rounds are budgeted by [limits.max_propagate_iterations] (default
    {!Rd_util.Limits.default}, the historical cap of 100): hitting the
    budget degrades to [converged = false] instead of spinning.  [cancel]
    is polled once per round with the same degrade-don't-raise
    discipline — a deadline mid-simulation yields the partial RIBs with
    [converged = false], never an escaping exception.  [faults]
    arms the ["propagate.fixpoint"] {!Rd_util.Fault} site, visited once
    per round. *)

val rib_of_process : t -> int -> Rib.t
(** Converged RIB of one routing process (by process id). *)

val rib_of_router : t -> int -> Rib.t
(** Converged router RIB (best routes across the router's local RIB and
    processes), selected on demand at each call. *)

val process_loads : t -> (int * int) list
(** (pid, RIB size) pairs, descending size — the per-process route load. *)

val instance_load :
  t -> Rd_routing.Instance.assignment -> int -> int * float
(** [(max, mean)] process-RIB size over an instance's members — the §6.2
    OSPF load prediction.  An instance with no member processes in the
    simulated graph loads to [(0, 0.)]. *)

val instance_prefix_set :
  t -> Rd_routing.Instance.assignment -> int -> Prefix_set.t
(** The destination prefixes held by the RIBs of an instance's member
    processes ({!Rib.prefixes}, united) — what the concrete simulation
    says the instance can reach, the counterpart of the static engine's
    per-instance route set, fed to the sim-subset-of-static cross-check
    oracle ([Rd_check.Crosscheck]). *)

val forwards_to : t -> router:int -> Ipv4.t -> Rib.route option
(** The route the router RIB ({!rib_of_router}) selects for a
    destination. *)
