(** Network-level construction helpers shared by all archetype generators. *)

open Rd_addr
open Rd_config

type net
(** A network under construction: routers, address plans, and the
    shared PRNG every stochastic choice draws from. *)

val create : seed:int -> block:Prefix.t -> ext_block:Prefix.t -> net
(** [block] is the network's internal address space; [ext_block] the
    distinct space used for external-facing link subnets. *)

val prng : net -> Rd_util.Prng.t
(** The network's deterministic PRNG (seeded by [create ~seed]). *)

val plan : net -> Addr_plan.t
(** Allocator for the internal address [block]. *)

val ext_plan : net -> Addr_plan.t
(** Allocator for the external-facing [ext_block]. *)

val add_router : net -> string -> Device.t
(** Create and register a router. *)

val routers : net -> Device.t list
(** In creation order. *)

val router_count : net -> int
(** Number of routers registered so far. *)

val link :
  net -> ?kind:string -> ?plan:Addr_plan.t -> Device.t -> Device.t -> Prefix.t * Ipv4.t * Ipv4.t
(** Connect two routers with a /30 point-to-point link of the given
    interface [kind] (default Serial).  Returns (subnet, address of first,
    address of second). *)

val lan :
  net -> ?kind:string -> ?plan:Addr_plan.t -> ?acl_in:string -> Device.t -> Prefix.t * Ipv4.t
(** Attach a stub LAN (default FastEthernet, /24).  Returns (subnet,
    router's address). *)

val multi_lan :
  net -> ?kind:string -> ?plan:Addr_plan.t -> Device.t list -> Prefix.t * Ipv4.t list
(** A shared multipoint segment joining several routers. *)

val external_link :
  net -> ?kind:string -> ?acl_in:string -> ?acl_out:string -> Device.t -> Prefix.t * Ipv4.t * Ipv4.t
(** A /30 toward a router outside the network (whose config will not
    exist).  Returns (subnet, local address, phantom remote address). *)

val loopback : net -> Device.t -> Ipv4.t
(** Add a loopback interface with a fresh /32. *)

(* --- routing-process helpers ----------------------------------------- *)

val ospf_cover : Device.t -> pid:int -> ?area:int -> Prefix.t -> unit
(** Add a network statement covering the subnet. *)

val eigrp_cover : Device.t -> asn:int -> Prefix.t -> unit
(** Add an EIGRP [network] statement covering the subnet. *)

val rip_cover : Device.t -> Prefix.t -> unit
(** Add a RIP [network] statement (classful) covering the subnet. *)

val bgp_neighbor :
  Device.t ->
  asn:int ->
  peer:Ipv4.t ->
  remote_as:int ->
  ?rm_in:string ->
  ?rm_out:string ->
  ?dlist_in:string ->
  ?dlist_out:string ->
  ?pl_in:string ->
  ?pl_out:string ->
  ?rr_client:bool ->
  unit ->
  unit
(** Add a BGP neighbor with optional per-neighbor policies (route-maps,
    distribute-lists, prefix-lists, in either direction) and
    route-reflector-client status — the §5 BGP-as-interior-glue patterns. *)

val prefix_list : Device.t -> name:string -> (Ast.action * Prefix.t * int option) list -> unit
(** [prefix_list d ~name entries] with (action, prefix, le) triples. *)

val bgp_network : Device.t -> asn:int -> Prefix.t -> unit
(** Originate a prefix with a BGP [network] statement. *)

val bgp_aggregate : Device.t -> asn:int -> ?summary_only:bool -> Prefix.t -> unit
(** Add an [aggregate-address] (suppressing specifics when
    [summary_only]). *)

val redistribute :
  Device.t ->
  into:Ast.protocol * int option ->
  src:Ast.redist_source ->
  ?route_map:string ->
  ?metric:int ->
  ?subnets:bool ->
  unit ->
  unit
(** Add a [redistribute] statement to the [into] process, optionally
    policed by a route-map — the §4 route-exchange primitive. *)

val distribute_list : Device.t -> proto:Ast.protocol * int option -> acl:string -> Ast.direction -> unit
(** Attach a [distribute-list ACL in/out] to a routing process. *)

val std_acl : Device.t -> name:string -> (Ast.action * Prefix.t) list -> unit
(** Standard ACL from (action, prefix) clauses, with wildcard form. *)

val acl_permit_any : Device.t -> name:string -> unit
(** A one-clause [permit any] standard ACL. *)

val route_map_prefixes :
  Device.t -> name:string -> acl:string -> ?set_tag:int -> Ast.action -> unit
(** One-entry route map matching an ACL. *)

val to_configs : net -> (string * Ast.t) list
(** Final configurations as (hostname, AST), creation order. *)

val to_texts : net -> (string * string) list
(** Rendered configuration files. *)
