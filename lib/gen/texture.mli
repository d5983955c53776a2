(** Low-level configuration texture: administrative boilerplate and
    per-interface extras.  Depends only on the PRNG so {!Builder} can use
    it without cycles. *)

val boilerplate : Rd_util.Prng.t -> hostname:string -> string
(** Administrative preamble (version, services, AAA, usernames) that real
    configurations carry; the parser accepts and ignores it.  Contributes
    realistically to configuration sizes (Figure 4). *)

val boilerplate_footer : Rd_util.Prng.t -> string
(** NTP/SNMP/logging/line sections plus the closing [end]. *)

val external_reference : Rd_util.Prng.t -> int -> Rd_addr.Prefix.t
(** A random aligned /len prefix in reserved far-away public space
    (96.0.0.0/4) for policies and statics that merely *mention* external
    destinations — nothing is consumed from the network's allocators. *)

val iface_extras : Rd_util.Prng.t -> kind:string -> string list
(** Plausible unmodelled sub-commands for an interface of the given kind
    (bandwidth, duplex, encapsulation, ...). *)
