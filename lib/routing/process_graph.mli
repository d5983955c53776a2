(** The routing process graph (paper §3.1).

    Vertices are RIBs: one per routing process, plus a local RIB (connected
    subnets and static routes) and the router RIB on every router.  Edges
    capture every way routes can move between RIBs: protocol adjacency,
    route redistribution, and route selection into the router RIB. *)

open Rd_config

type vertex =
  | Proc of int  (** routing-process RIB, by pid. *)
  | Local of int  (** local RIB of a router (connected + static). *)
  | Router_rib of int  (** the router RIB used for forwarding. *)

type edge_kind =
  | Adjacent of Adjacency.kind  (** bidirectional route exchange. *)
  | Redistribution of Ast.redistribute  (** directed, within one router. *)
  | Selection  (** process/local RIB -> router RIB. *)

type edge = { src : vertex; dst : vertex; kind : edge_kind }

type t = {
  catalog : Process.catalog;
  adjacency : Adjacency.result;
  edges : edge list;
}

val build : Process.catalog -> t
(** Assemble the RIB-level graph: one vertex per routing process plus
    local/router RIBs, with adjacency, redistribution, and
    route-selection edges (paper §3.1). *)

val vertices : t -> vertex list
(** All vertices. *)

val redistribution_edges : t -> edge list
(** Only the redistribution edges (paper Figure 3's dashed arrows). *)

val to_dot : t -> string
(** Graphviz rendering in the style of Figure 5: one cluster per router,
    RIB vertices inside. *)

val render : t -> string
(** Text rendering: per-router RIB lists, then adjacency and
    redistribution edges with their annotations. *)
