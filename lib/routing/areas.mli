(** OSPF area structure within routing instances.

    The paper's configurations place interfaces into areas (Figure 2 uses
    areas 0 and 11); the area layout — which areas exist, whether a
    backbone area is present, which routers are area border routers — is
    part of the routing design and feeds vulnerability assessment
    (an ABR is a structural single point of failure for its area). *)

type area_info = {
  area : int;
  routers : int list;  (** router indices with interfaces in the area. *)
  covered_interfaces : int;
}

type t = {
  inst_id : int;  (** the OSPF instance. *)
  areas : area_info list;  (** ascending by area id. *)
  abrs : int list;  (** routers whose interfaces span several areas. *)
  has_backbone : bool;  (** area 0 present. *)
}

val analyze : Process.catalog -> Instance.assignment -> t list
(** One record per OSPF instance (including single-router ones). *)

val render : Process.catalog -> t -> string
(** Human-readable area census table with ABR list. *)
