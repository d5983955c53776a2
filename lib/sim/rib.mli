(** Routes, routing information bases, and route selection (paper §2.3).

    A route is a destination prefix plus attributes.  Each routing process
    keeps its own RIB; the router RIB selects among candidate routes for
    the same prefix by administrative distance, mirroring the two-stage
    selection the paper describes. *)

open Rd_addr
open Rd_config

type source =
  | Connected
  | Static
  | Proto of Ast.protocol * [ `Internal | `External ]
      (** EBGP vs IBGP and OSPF intra vs external differ in distance. *)

type route = {
  dest : Prefix.t;
  source : source;
  metric : int;
  tag : int option;
  next_hop : Ipv4.t option;
  as_path : int list;
      (** BGP AS path, most recent AS first; [\[\]] for IGP/local routes.
          Used for EBGP loop prevention. *)
  from_client : bool;
      (** learned over an IBGP session from a route-reflector client —
          such routes may be reflected onward (RFC 4456 semantics). *)
  via_ibgp : bool;
      (** learned over an IBGP session: not re-advertised to further IBGP
          peers except by route reflection — the non-transitivity that
          forces backbones into meshes or reflectors (paper §3.1/§6.1). *)
  ad_override : int option;
      (** administrative-distance override, e.g. a floating static route
          ([ip route ... 250]). *)
}

val mk :
  ?next_hop:Ipv4.t option ->
  ?as_path:int list ->
  ?ad_override:int ->
  Prefix.t ->
  source ->
  route
(** Convenience constructor with neutral defaults; the route is neither
    learned over IBGP nor from a route-reflector client. *)

val admin_distance : source -> int
(** Cisco defaults: connected 0, static 1, EBGP 20, EIGRP 90, IGRP 100,
    OSPF 110, IS-IS 115, RIP 120, EIGRP external 170, IBGP 200. *)

type t
(** A RIB: the best route known per destination prefix.  It is an array
    of routes sorted strictly by {!Prefix.compare} on [dest], so
    {!find} is a binary search, {!lookup} at most 33 of them, and
    {!routes}, {!size} and {!prefixes} read the array directly.  RIBs
    are immutable: {!add} copies. *)

val empty : t
(** The RIB with no routes. *)

val better : route -> route -> bool
(** [better a b]: [a] is strictly preferred to [b] — lower administrative
    distance, then (among BGP routes) shorter AS path, then lower
    metric. *)

val add : t -> route -> t
(** Keep the route if no better route for the same prefix is present
    ({!better}); of several equally preferred routes the first added
    stays.  O(n): it copies the array, so build large RIBs with
    {!of_routes}. *)

val lookup : t -> Ipv4.t -> route option
(** Longest-prefix match: the route of the longest installed prefix that
    contains the address. *)

val find : t -> Prefix.t -> route option
(** The installed route for exactly this prefix, if any. *)

val routes : t -> route list
(** All installed routes, in prefix order. *)

val of_routes : route list -> t
(** The RIB holding exactly these routes, given one per destination in
    prefix order (as {!routes} returns them).  Raises [Invalid_argument]
    otherwise. *)

val size : t -> int
(** Number of installed routes (the §6.2 route-load measure). *)

val prefixes : t -> Prefix_set.t
(** The set of all installed destination prefixes. *)

val merge : t -> t -> t
(** Union keeping best routes, in one linear pass: on a prefix both hold,
    the second RIB's route wins only when strictly {!better}, as folding
    {!add} over it would. *)
