(** Interface-type taxonomy (paper Table 3).

    The type of an interface is recovered from its configured name, e.g.
    ["Serial1/0.5"] is a Serial interface.  Interface composition is a good
    predictor of network type (§7.3): backbones are POS/HSSI/ATM-heavy,
    enterprises are Serial/FastEthernet-heavy. *)

type t =
  | Serial
  | FastEthernet
  | ATM
  | POS
  | Ethernet
  | Hssi
  | GigabitEthernet
  | TokenRing
  | Dialer
  | BRI
  | Tunnel
  | Port_channel
  | Async
  | Virtual
  | Channel
  | CBR
  | Fddi
  | Multilink
  | Null
  | Loopback
  | Vlan
  | Other of string

val of_interface_name : string -> t
(** Classify from the configuration name. *)

val to_string : t -> string
(** Canonical display name (e.g. ["POS"], ["FastEthernet"]); [Other]
    prints its recovered name. *)

val of_string : string -> t
(** Inverse of {!to_string}: a canonical display name maps back to its
    constructor, anything else to [Other].  Used by the study
    checkpoint codec; because {!equal} compares display names, decoded
    values behave identically to the originals. *)

val is_physical : t -> bool
(** Whether interfaces of this type can terminate an inter-router link
    (excludes Loopback, Null, Virtual). *)

val equal : t -> t -> bool
(** Same interface type. *)
