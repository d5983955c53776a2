(** Reference route propagation: the original round-robin implementation
    of {!Rd_sim.Propagate.run}, retained as executable reference
    semantics.

    Each round transfers every route of every process across every
    adjacency and redistribution edge, in the same edge order as the
    production simulator.  The agreement tests check the semi-naive
    simulator against it on process RIBs, router RIBs, the round count
    and [converged], at every round budget.  Production code uses
    {!Rd_sim.Propagate}. *)

type t = {
  graph : Rd_routing.Process_graph.t;
  proc_ribs : Rd_sim.Rib.t array;  (** by pid. *)
  local_ribs : Rd_sim.Rib.t array;  (** by router. *)
  router_ribs : Rd_sim.Rib.t array;  (** by router, built eagerly. *)
  iterations : int;
  converged : bool;
}

val run :
  ?metrics:Rd_util.Metrics.t -> ?faults:Rd_util.Fault.t -> ?cancel:Rd_util.Cancel.t ->
  ?limits:Rd_util.Limits.t ->
  ?external_prefixes:Rd_addr.Prefix.t list -> Rd_routing.Process_graph.t -> t
(** Same contract as {!Rd_sim.Propagate.run}, one round-robin sweep per
    round. *)
