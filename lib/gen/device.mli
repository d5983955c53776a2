(** A router configuration under construction. *)

open Rd_addr
open Rd_config

type t
(** Mutable builder for one router's configuration. *)

val create : string -> t
(** [create hostname]. *)

val name : t -> string
(** The hostname given to {!create}. *)

val add_interface :
  t ->
  kind:string ->
  ?p2p:bool ->
  ?addr:Ipv4.t * Ipv4.t ->
  ?unnumbered:string ->
  ?acl_in:string ->
  ?extras:string list ->
  ?description:string ->
  unit ->
  string
(** Add an interface of the given kind (e.g. ["Serial"], ["FastEthernet"])
    with an auto-assigned unit number and, with [acl_in], an inbound
    access group; returns the interface name. *)

val update_process :
  t -> Ast.protocol -> int option -> (Ast.router_process -> Ast.router_process) -> unit
(** Apply [f] to the process with this protocol and id, creating it first
    if absent. *)

val add_acl : t -> Ast.acl -> unit
(** Register an access list (replaces any previous ACL of the same
    name). *)

val add_route_map : t -> Ast.route_map -> unit
(** Register a route map. *)

val add_prefix_list : t -> Ast.prefix_list -> unit
(** Register a prefix list. *)

val add_static : t -> Ast.static_route -> unit
(** Append an [ip route] statement. *)

val last_interface_name : t -> string option
(** Name of the most recently added interface. *)

val to_ast : t -> Ast.t
(** Snapshot the device as a configuration AST. *)
