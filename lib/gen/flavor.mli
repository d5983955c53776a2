(** Realistic texture shared by all archetypes: rare interface types,
    per-router management routing instances, and packet filters.

    These reproduce idiosyncrasies the paper documents: routers running
    several processes of the same protocol, single-router routing
    instances, interface-type diversity (Table 3), large multi-policy
    filters (the 47-clause example of §5.3). *)

open Rd_config

val rare_interfaces : Builder.net -> Device.t -> unit
(** Occasionally add Tunnel/BRI/Dialer/TokenRing/... interfaces. *)

val unnumbered_interface : Builder.net -> Device.t -> unit
(** Occasionally add an [ip unnumbered] serial anchored to a fresh
    loopback — the legacy pattern §2.1 quantifies (they cannot be matched
    into links and are counted separately). *)

val mgmt_instance : ?p:float -> Builder.net -> Device.t -> unit
(** With probability [p] (default 0.55), give the router an isolated
    management LAN covered by its own private IGP process — a
    single-router intra-domain routing instance. *)

val edge_filter :
  ?extra:int -> Builder.net -> Device.t -> name:string -> internal_block:Rd_addr.Prefix.t -> unit
(** Define an anti-spoofing edge ACL (deny own block and RFC bogons, then
    [extra] customer-prefix permits, then permit any) — the RFC 2267
    conventional wisdom the paper contrasts internal filtering against. *)

val mgmt_instances : Builder.net -> Device.t -> tries:int -> unit
(** Run {!mgmt_instance} [tries] times at its default probability (big
    operational networks often carry several per-router processes). *)

val internal_filter : Builder.net -> Device.t -> name:string -> ?clauses:int -> unit -> unit
(** Define a multi-policy internal packet filter (port/protocol blocking)
    with roughly [clauses] clauses, mimicking §5.3's internal filters. *)

val apply_filter_to_lan :
  Builder.net -> Device.t -> acl:string -> kind:string -> unit
(** Attach a fresh LAN whose inbound traffic passes through [acl]. *)

val staging_weights : (float * Ast.protocol) list
(** OSPF-heavy mix for customer-facing staging instances (Table 1's
    inter-domain IGP column). *)
