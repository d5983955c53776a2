(** Routing instances (paper §3.2).

    A routing instance is the transitive closure of same-protocol
    adjacency: flood fill through the routing process graph, stopping at
    edges between processes of different types and at EBGP adjacencies
    between BGP speakers with different AS numbers.  Process IDs play no
    role — they have no network-wide semantics. *)

open Rd_config

type t = {
  inst_id : int;
  protocol : Ast.protocol;
  members : int list;  (** pids, ascending. *)
  routers : int list;  (** distinct router indices, ascending. *)
  asn : int option;  (** for BGP instances, the AS number. *)
}

type assignment = {
  instances : t array;
  of_process : int array;  (** pid -> inst_id. *)
}

val compute : Process.catalog -> Adjacency.result -> assignment
(** Flood-fill processes into routing instances across same-protocol
    adjacencies (paper §3.2). *)

val compute_by_process_id : Process.catalog -> assignment
(** The naive alternative the paper warns against: group processes by
    (protocol, process id) network-wide.  Used as an ablation baseline. *)

val size : t -> int
(** Number of member routers. *)

val to_string : t -> string
(** Display name, e.g. ["ospf-1"] or ["ebgp-as65001"]. *)
