(** The routing instance graph (paper §3.2, Figures 6 and 9).

    Vertices are routing instances plus pseudo-vertices for the external
    ASs the network peers with.  Directed edges record every mechanism by
    which routes flow from one instance to another: route redistribution
    inside some router, EBGP sessions between internal ASs, EBGP sessions
    to external peers, and IGP adjacency over external-facing links.  Each
    edge carries the route filter implied by its policies
    (distribute-lists and route-maps). *)

open Rd_addr
open Rd_config

type endpoint =
  | Inst of int  (** instance id. *)
  | External of int  (** outside AS number. *)

type via =
  | Redist of { router : int; redist : Ast.redistribute }
      (** redistribution configured on this router. *)
  | Ebgp_session of { router : int; peer_addr : Ipv4.t }
      (** EBGP route flow (internal-internal or to/from external). *)
  | Igp_edge of { router : int; subnet : Prefix.t }
      (** IGP adjacency over an external-facing link (IGP-as-EGP). *)

type edge = {
  src : endpoint;
  dst : endpoint;
  via : via;
  filter : Rd_policy.Route_filter.t;
      (** destinations whose routes may flow src -> dst here. *)
}

type t = {
  catalog : Process.catalog;
  assignment : Instance.assignment;
  adjacency : Adjacency.result;
  edges : edge list;
  local_redists : (int * int * Ast.redistribute) list;
      (** (instance, router, redistribute) for connected/static sources. *)
}

val build : ?metrics:Rd_util.Metrics.t -> Process.catalog -> t
(** Construct the graph.  [metrics] accumulates [instance.instances],
    a per-instance [instance.size] histogram, [instance.graph_edges],
    and [instance.adjacencies]. *)

val instances : t -> Instance.t array
(** All instances, indexed by instance id. *)

val external_asns : t -> int list
(** Distinct outside AS numbers peered with, ascending. *)

val in_edges : t -> endpoint -> edge list
(** Edges entering the endpoint. *)

val via_router : via -> int
(** The router an edge's mechanism is configured on — where a finding
    about the edge should point. *)

val instance_of_router : t -> int -> int list
(** Instances that have a process on the given router. *)

val ibgp_mesh_completeness : t -> int -> float option
(** For a BGP instance: the fraction of member-router pairs joined by an
    IBGP session — 1.0 is a full mesh, route-reflector layouts sit well
    below.  [None] for non-BGP or single-router instances.  One of the
    §7.1 dimensions along which designs differ. *)

val to_dot : t -> string
(** Graphviz DOT rendering (what [rdna dot DIR instances] prints). *)
