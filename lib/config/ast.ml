(** Abstract syntax of the Cisco-IOS-dialect router configuration language.

    The granularity follows §2 of the paper: interface definitions with
    addresses and access groups, routing-process stanzas (OSPF, EIGRP, RIP,
    IGRP, BGP) with network/redistribute/neighbor/distribute-list commands,
    access lists, route maps, and static routes.  Parsing is tolerant:
    unrecognized lines are preserved verbatim in [unknown]. *)

open Rd_addr

type direction = In | Out

let direction_to_string = function In -> "in" | Out -> "out"

(** Routing protocol spoken by a process. *)
type protocol = Ospf | Eigrp | Igrp | Rip | Bgp | Isis

let protocol_to_string = function
  | Ospf -> "ospf"
  | Eigrp -> "eigrp"
  | Igrp -> "igrp"
  | Rip -> "rip"
  | Bgp -> "bgp"
  | Isis -> "isis"

let protocol_of_string = function
  | "ospf" -> Some Ospf
  | "eigrp" -> Some Eigrp
  | "igrp" -> Some Igrp
  | "rip" -> Some Rip
  | "bgp" -> Some Bgp
  | "isis" -> Some Isis
  | _ -> None

(** Source of routes in a [redistribute] command. *)
type redist_source =
  | From_connected
  | From_static
  | From_protocol of protocol * int option
      (** e.g. [redistribute ospf 64], [redistribute bgp 64780],
          [redistribute rip] (no id). *)

type redistribute = {
  source : redist_source;
  metric : int option;
  metric_type : int option;  (** OSPF external metric type (1 or 2). *)
  route_map : string option;
  subnets : bool;  (** OSPF [subnets] keyword. *)
}

type distribute_list = {
  dl_acl : string;  (** ACL number or name filtering the routes. *)
  dl_direction : direction;
  dl_interface : string option;  (** optional per-interface qualifier. *)
}

(** [network] statements associating interfaces/prefixes with a process. *)
type network_stmt =
  | Net_wildcard of Wildcard.t * int option
      (** [network <addr> <wildcard> \[area <n>\]] — OSPF (area) / EIGRP. *)
  | Net_classful of Ipv4.t  (** [network <addr>] — RIP / EIGRP / BGP classful. *)
  | Net_mask of Prefix.t  (** [network <addr> mask <m>] — BGP. *)

(** One BGP neighbor, accumulated from its [neighbor <ip> ...] lines. *)
type neighbor = {
  peer : Ipv4.t;
  remote_as : int;
  nb_dlists : (string * direction) list;  (** per-neighbor distribute-lists. *)
  nb_route_maps : (string * direction) list;
  nb_prefix_lists : (string * direction) list;
  update_source : string option;
  nb_description : string option;
  next_hop_self : bool;
  route_reflector_client : bool;
}

type router_process = {
  protocol : protocol;
  proc_id : int option;
      (** OSPF process id / EIGRP AS / BGP AS; [None] for RIP. *)
  networks : network_stmt list;
  aggregates : (Prefix.t * bool) list;
      (** BGP [aggregate-address <p> <m> \[summary-only\]]: originate the
          aggregate when a component route exists; [true] = suppress the
          components. *)
  redistributes : redistribute list;
  dlists : distribute_list list;
  neighbors : neighbor list;
  passive_interfaces : string list;
  default_originate : bool;
  maximum_paths : int option;
  proc_router_id : Ipv4.t option;
}

type action = Permit | Deny

let action_to_string = function Permit -> "permit" | Deny -> "deny"

type port_match = Port_eq of int | Port_range of int * int | Port_gt of int | Port_lt of int

(** One clause of an access list.  Standard ACLs have only [src]; extended
    ACLs may carry an IP protocol, destination, and port matches. *)
type acl_clause = {
  clause_action : action;
  src : Wildcard.t;
  ip_proto : string option;  (** "ip", "tcp", "udp", "icmp", "pim", ... *)
  dst : Wildcard.t option;
  src_port : port_match option;
  dst_port : port_match option;
}

type acl = { acl_name : string; extended : bool; clauses : acl_clause list }

type route_map_entry = {
  seq : int;
  rm_action : action;
  match_acls : string list;  (** [match ip address <acl> ...] *)
  match_prefix_lists : string list;  (** [match ip address prefix-list <pl> ...] *)
  match_tags : int list;
  set_tag : int option;
  set_metric : int option;
  set_local_pref : int option;
}

type route_map = { rm_name : string; entries : route_map_entry list }

(** One [ip prefix-list] entry.  Without [ge]/[le] a route matches only at
    exactly the entry's length; [ge]/[le] widen the accepted mask range
    (IOS semantics). *)
type prefix_list_entry = {
  pl_seq : int;
  pl_action : action;
  pl_prefix : Prefix.t;
  pl_ge : int option;
  pl_le : int option;
}

type prefix_list = { pl_name : string; pl_entries : prefix_list_entry list }

type next_hop = Nh_addr of Ipv4.t | Nh_iface of string

type static_route = { sr_dest : Prefix.t; sr_next_hop : next_hop; sr_distance : int option }

type interface = {
  if_name : string;
  if_address : (Ipv4.t * Ipv4.t) option;  (** address, netmask. *)
  secondary_addresses : (Ipv4.t * Ipv4.t) list;
  unnumbered : string option;  (** [ip unnumbered <iface>]. *)
  access_groups : (string * direction) list;
  if_description : string option;
  shutdown : bool;
  point_to_point : bool;
  if_extras : string list;  (** unmodelled sub-commands, kept verbatim. *)
}

type t = {
  hostname : string option;
  interfaces : interface list;
  processes : router_process list;
  acls : acl list;
  route_maps : route_map list;
  prefix_lists : prefix_list list;
  statics : static_route list;
  total_lines : int;  (** physical line count of the source text (Fig. 4). *)
  command_count : int;  (** number of non-comment, non-blank commands. *)
  unknown : (int * string) list;
      (** (1-based line number, raw text) of lines the parser did not
          model — the raw material for {!Diag} reports. *)
}

let empty_interface name =
  {
    if_name = name;
    if_address = None;
    secondary_addresses = [];
    unnumbered = None;
    access_groups = [];
    if_description = None;
    shutdown = false;
    point_to_point = false;
    if_extras = [];
  }

let empty_process protocol proc_id =
  {
    protocol;
    proc_id;
    networks = [];
    aggregates = [];
    redistributes = [];
    dlists = [];
    neighbors = [];
    passive_interfaces = [];
    default_originate = false;
    maximum_paths = None;
    proc_router_id = None;
  }

let empty_neighbor peer remote_as =
  {
    peer;
    remote_as;
    nb_dlists = [];
    nb_route_maps = [];
    nb_prefix_lists = [];
    update_source = None;
    nb_description = None;
    next_hop_self = false;
    route_reflector_client = false;
  }

let empty =
  {
    hostname = None;
    interfaces = [];
    processes = [];
    acls = [];
    route_maps = [];
    prefix_lists = [];
    statics = [];
    total_lines = 0;
    command_count = 0;
    unknown = [];
  }

(** Find an interface by exact name. *)
let find_interface t name =
  List.find_opt (fun i -> String.equal i.if_name name) t.interfaces

(** Find an ACL by name/number. *)
let find_acl t name = List.find_opt (fun a -> String.equal a.acl_name name) t.acls

(** Numbered ACLs in the extended ranges (100–199, 2000–2699); IOS flags
    them extended whatever form their clauses take. *)
let is_extended_number name =
  match int_of_string_opt name with
  | Some n -> (n >= 100 && n <= 199) || (n >= 2000 && n <= 2699)
  | None -> false

let find_route_map t name =
  List.find_opt (fun r -> String.equal r.rm_name name) t.route_maps

let find_prefix_list t name =
  List.find_opt (fun p -> String.equal p.pl_name name) t.prefix_lists

(** All addresses (primary + secondary) configured on an interface. *)
let interface_addresses i =
  match i.if_address with
  | None -> i.secondary_addresses
  | Some a -> a :: i.secondary_addresses

(** The connected subnet(s) of an interface as prefixes. *)
let interface_prefixes i =
  List.filter_map
    (fun (a, m) -> Option.map (fun p -> p) (Prefix.of_addr_mask a m))
    (interface_addresses i)
