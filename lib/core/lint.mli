(** Config-lint: the catalogue of per-file and design diagnostics,
    reported as {!Rd_config.Diag} values, and the rule shape
    {!Netlint} shares.

    Two families share one code space:
    - {b per-file} rules ({!lint_config}, {!lint_files}) are queries on
      one configuration's {!Rd_config.Locator} index, the one walk of
      its text outside the parser, so every finding points at a
      concrete [file:line].  The pass folds in the parser's own
      [parse-*] diagnostics (malformed/unmodelled lines).
    - {b design} rules ({!design}) reason about the routing design
      derived from the whole network: the operational checks of the
      paper's §8.1.  Each is a {!rule}, the shape of {!Netlint}'s rule
      families too.  They report Warnings and Infos only.  A finding
      about one BGP neighbor or one interface is anchored to its line
      when the raw texts are supplied; a finding about a whole process,
      an area or several routers has no line.

    Codes (stable), with severity, family and paper section:
    - [lint-undefined-acl] (Error, per-file, §8.1): an access-group,
      distribute-list, access-class or route-map [match] references an
      ACL the file never defines.
    - [lint-undefined-route-map] (Error, per-file, §8.1): a redistribute
      or neighbor statement references an undefined route-map.
    - [lint-undefined-prefix-list] (Error, per-file, §8.1): a neighbor or
      route-map [match] references an undefined prefix-list.
    - [lint-neighbor-no-remote-as] (Error, per-file, §8.1): a BGP
      neighbor is configured (filters, update-source, ...) but never
      given [remote-as] — the session cannot establish.
    - [lint-duplicate-acl] (Warning, per-file, §8.1): an
      [ip access-list] block redefines an already-defined ACL name.
    - [lint-duplicate-route-map-seq] (Warning, per-file, §8.1): the same
      route-map sequence number is defined twice.
    - [lint-unused-acl] (Warning, per-file, §8.1): an ACL is defined but
      never applied.
    - [lint-unused-route-map] (Warning, per-file, §8.1): a route-map is
      defined but never applied.
    - [lint-redistribute-no-metric] (Warning, per-file, §3.1):
      redistribution of another routing protocol into OSPF without an
      explicit [metric] — the classic silently-wrong-cost pitfall.
    - [lint-interface-overlap] (Warning, per-file, §2.1): two interface
      addresses on the same router lie in overlapping subnets.
    - [lint-unfiltered-peering] (Warning, design, §8.1): an external BGP
      session with no distribute-list, prefix-list or route-map.  A
      filter in either direction silences it, so a session with only an
      inbound [distribute-list] counts as filtered; whether routes can
      still leak through it is a property of the path, which
      [netlint-route-leak] checks.  Line: the [neighbor] statement.
    - [lint-unfiltered-edge-interface] (Warning, design, §8.1): an
      external-facing interface with no packet filter.  Line: its
      [ip address].
    - [lint-half-covered-link] (Warning, design, §8.1): an internal link
      covered by a routing process on only one endpoint, so the
      adjacency cannot form.  Line: the covered endpoint's
      [ip address].
    - [lint-duplicate-address] (Warning, design, §8.1): an interface
      address also configured on another router.  Line: the second
      interface's [ip address].
    - [lint-unresolved-next-hop] (Warning, design, §8.1): a static route
      whose next hop lies on no connected subnet, or names an undefined
      interface.
    - [lint-ospf-no-backbone-area] (Warning, design, §8.1): a multi-area
      OSPF instance without area 0, so inter-area routes cannot flow.
    - [lint-isolated-process] (Info, design, §8.1): an IGP process with
      no adjacency in a multi-router network.
    - [lint-shared-static-destination] (Info, design, §8.1): several
      routers hold static routes to the same prefix — a maintenance
      scheduling hazard.
    - [lint-single-abr-area] (Info, design, §8.1): an OSPF area reached
      through a single area border router. *)

type rule = Rd_config.Locator.table -> Analysis.t -> Rd_config.Diag.t list
(** A network-scope rule: the findings over an analyzed network, with
    lines looked up in the locator table of its texts. *)

val router_file : Analysis.t -> int -> string
(** The configuration file of the router with this index. *)

val lint_config : file:string -> string -> Rd_config.Diag.t list
(** Lint one configuration file: the parser's diagnostics followed by
    per-file rule findings in line order.  Never raises on any input. *)

val lint_files : ?jobs:int -> (string * string) list -> Rd_config.Diag.t list
(** Lint a network's (file name, text) pairs; fans out across the domain
    pool, result in file order. *)

val design : ?files:(string * string) list -> Analysis.t -> Rd_config.Diag.t list
(** The six design rules over an analyzed network, Warnings first, each
    naming the implicated router's file.  [files] are the (file name,
    text) pairs the analysis was built from; with them, neighbor and
    interface findings carry the line (one locator table per call). *)
