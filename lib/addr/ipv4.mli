(** IPv4 addresses.

    An address is represented as a native [int] in [\[0, 2^32)], which keeps
    arithmetic unboxed on 64-bit platforms. *)

type t = private int
(** An IPv4 address. *)

val of_int : int -> t
(** [of_int x] with [x] in [\[0, 2^32)].  Raises [Invalid_argument]
    otherwise. *)

val to_int : t -> int
(** The address as an integer in [\[0, 2^32)]. *)

val of_octets : int -> int -> int -> int -> t
(** [of_octets a b c d] = the address [a.b.c.d].  Each octet must be in
    [\[0,255\]]. *)

val octets : t -> int * int * int * int
(** The four octets, most significant first. *)

val of_string : string -> t option
(** Parse strict dotted-quad notation.  [None] on malformed input,
    including leading-zero octets such as ["010.0.0.1"] (ambiguous:
    historically read as octal). *)

val of_string_exn : string -> t
(** Like {!of_string} but raises [Invalid_argument]. *)

val to_string : t -> string
(** Dotted-quad notation. *)

val compare : t -> t -> int
(** Numeric (= address) order. *)

val equal : t -> t -> bool
(** Address equality. *)

val succ : t -> t
(** Next address, wrapping at the top of the space. *)

val add : t -> int -> t
(** [add a n] offsets by [n], clipped into the address space by masking. *)

val zero : t
(** 0.0.0.0 *)

val broadcast_all : t
(** 255.255.255.255 *)
