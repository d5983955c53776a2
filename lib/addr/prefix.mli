(** CIDR prefixes (IPv4 subnets).

    A prefix is a network address plus a mask length; the network address is
    always normalized (host bits zero).  Routes, subnets, and address blocks
    throughout the library are prefixes. *)

type t = private { addr : Ipv4.t; len : int }

val make : Ipv4.t -> int -> t
(** [make addr len] normalizes [addr] to the prefix of length [len]
    ([0 <= len <= 32]). *)

val addr : t -> Ipv4.t
(** The (normalized) network address. *)

val len : t -> int
(** The mask length. *)

val of_string : string -> t option
(** Parse ["a.b.c.d/len"].  A bare address parses as a /32. *)

val of_string_exn : string -> t
(** Like {!of_string} but raises [Invalid_argument]. *)

val of_addr_mask : Ipv4.t -> Ipv4.t -> t option
(** [of_addr_mask addr netmask] for contiguous netmasks such as
    255.255.255.252; [None] if the mask is not contiguous. *)

val to_string : t -> string
(** ["a.b.c.d/len"] notation. *)

val compare : t -> t -> int
(** Address order, then mask length (supernets before subnets). *)

val equal : t -> t -> bool
(** Same network address and length. *)

val netmask : t -> Ipv4.t
(** Contiguous netmask, e.g. /30 -> 255.255.255.252. *)

val hostmask : t -> Ipv4.t
(** Complement of the netmask (Cisco wildcard form of this prefix). *)

val network : t -> Ipv4.t
(** First address. *)

val broadcast : t -> Ipv4.t
(** Last address. *)

val size : t -> int
(** Number of addresses covered ([2^(32-len)]). *)

val mem : Ipv4.t -> t -> bool
(** Address membership. *)

val subset : t -> t -> bool
(** [subset a b]: every address of [a] is in [b]. *)

val overlap : t -> t -> bool
(** The prefixes share at least one address (one contains the other). *)

val parent : t -> t option
(** One bit shorter; [None] for /0. *)

val split : t -> (t * t) option
(** The two halves; [None] for /32. *)

val nth : t -> int -> Ipv4.t
(** [nth p i] is the [i]-th address of the prefix.  Requires
    [0 <= i < size p]. *)

val nth_subnet : t -> int -> int -> t
(** [nth_subnet p sublen i] is the [i]-th /[sublen] inside [p].
    Requires [sublen >= len p] and [i] within range. *)

val default : t
(** 0.0.0.0/0. *)

val host : Ipv4.t -> t
(** /32 prefix of an address. *)
