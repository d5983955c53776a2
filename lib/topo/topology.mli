(** Link-level topology recovered from a set of configuration files
    (paper §2.1 and §5.2).

    Logical IP links are inferred by matching interfaces that share a
    subnet.  Interfaces whose subnet matches no other interface are
    declared external-facing; multipoint links additionally use the
    next-hop heuristic of §5.2 (an internal-looking LAN becomes external
    if an address in its subnet that is not any router's interface is
    used as a next hop or BGP peer). *)

open Rd_addr

type iface = {
  router : int;  (** index into {!routers}. *)
  if_index : int;  (** index into that router's [Ast.interfaces]. *)
  name : string;
  itype : Itype.t;
  address : (Ipv4.t * Ipv4.t) option;
  subnet : Prefix.t option;
  unnumbered : bool;
}

type facing = Internal | External

type link = {
  subnet_of_link : Prefix.t;
  endpoints : iface list;  (** at least one; singletons are stubs/external. *)
  multipoint : bool;  (** subnet longer than a /30 point-to-point pair. *)
}

type t = {
  routers : (string * Rd_config.Ast.t) array;
  ifaces : iface array;  (** every numbered, non-shutdown interface. *)
  links : link list;
  facing : (int * int, facing) Hashtbl.t;  (** keyed by (router, if_index). *)
  internal_addresses : Prefix_set.t;  (** every configured interface address. *)
  unnumbered_count : int;
  total_interfaces : int;  (** all interfaces incl. shutdown and unnumbered. *)
}

val build : (string * Rd_config.Ast.t) list -> t
(** Run link inference over a network's configurations. *)

val facing_of : t -> int -> int -> facing
(** Classification of interface [if_index] of router [router]; interfaces
    with no address are Internal by convention (they face no link). *)

val external_interfaces : t -> iface list
(** Interfaces classified external-facing (§5.2 heuristics). *)

val interface_census : t -> (Itype.t * int) list
(** Count of interfaces by type, ascending count (Table 3). *)

val router_index : t -> string -> int option
(** Find a router by hostname (falls back to config file name). *)
