(** Routing-process catalog.

    Each [router <protocol> <id>] stanza is one routing process with its
    own RIB (paper §2.2).  The catalog assigns every process in the
    network a dense global index so graph algorithms can use arrays. *)

open Rd_addr
open Rd_config

type t = {
  pid : int;  (** dense global index. *)
  router : int;  (** index into the topology's router array. *)
  protocol : Ast.protocol;
  proc_id : int option;  (** OSPF pid / EIGRP AS / BGP AS; [None] for RIP. *)
  ast : Ast.router_process;
}

type catalog = {
  processes : t array;
  by_router : int list array;  (** pids per router, config order. *)
  topo : Rd_topo.Topology.t;
  addr_owner : (int, int) Hashtbl.t;
      (** interface address (as int) -> router index, for O(1) peer
          resolution. *)
}

val build : Rd_topo.Topology.t -> catalog
(** Collect every routing process of every router; {!covering}
    resolves their interface coverage against the topology. *)

val covers : t -> Ipv4.t -> bool
(** Whether the process's network statements associate it with an
    interface bearing this address (paper §2.2: the most common way a
    process attaches to interfaces).  BGP [network ... mask] statements
    announce prefixes rather than attach interfaces and never cover. *)

val covering : catalog -> Rd_topo.Topology.iface -> t list
(** The processes on the interface's router that {!covers} its address,
    in config order; none for an interface without an address. *)

val area_on : t -> Ipv4.t -> int option
(** For OSPF: the area of the network statement covering the address. *)

val bgp_asn : t -> int option
(** The AS number if this is a BGP process. *)

val find_by_peer_addr : catalog -> Ipv4.t -> t option
(** The BGP process on the router owning the given interface address
    (used to resolve neighbor statements to processes). *)

val to_string : catalog -> t -> string
(** Human-readable label, e.g. ["r3:ospf 64"]. *)
