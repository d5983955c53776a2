(** Network-wide semantic lint.

    Where {!Lint} checks each file and the structural hygiene of the
    design, this pass reasons about route *dataflow* across
    routers: it abstract-interprets prefix sets over the routing
    instance graph (paper §6.2) to find designs that are syntactically
    fine on every router yet wrong as a whole.  Four rule families:

    - {b redistribution-loop}: an instance-graph cycle around which a
      non-empty prefix set can circulate and be re-redistributed, with
      no tag or filter cut on any edge.  Mutual redistribution confined
      to a single router is skipped — route preference on that box
      breaks the loop, and the paper's designs use it deliberately
      (net2's splice, the two-way corporate/branch gateways).  Severity
      [Error] when the cycle is completely open; [Warning] when some
      filter restricts the cycle but a non-empty set still escapes it,
      or when every cut candidate names a policy that is not exact
      ({!Rd_policy.Acl.exact}, {!Rd_policy.Route_map.exact}; the loop
      may be cut by what the over-approximation dropped).
      Code [netlint-redistribution-loop].

    - {b route-leak}: prefixes originating in an interior (non-BGP)
      instance that can reach an external BGP session along a path with
      no filter at any hop, reported with the full leak path ([Warning],
      code [netlint-route-leak]).  {!leaks} exposes the structured form
      the cross-check's [netlint-sim-agree] invariant consumes.

    - {b peer-consistency}: BGP neighbor statements whose [remote-as]
      contradicts the peer router's configured AS
      ([netlint-peer-as-mismatch]), sessions with no matching neighbor
      statement back ([netlint-peer-one-sided]), OSPF interfaces
      sharing a link with mismatched areas
      ([netlint-ospf-area-mismatch]), and link endpoints whose subnet
      masks disagree ([netlint-mask-mismatch]).

    - {b shadowed-rules}: ACL clauses, prefix-list entries, and
      route-map entries subsumed by the union of the entries before
      them — dead configuration that first-match evaluation can never
      reach ([netlint-shadowed-acl-clause],
      [netlint-shadowed-prefix-list-entry],
      [netlint-shadowed-route-map-entry]).  Soundness: an entry is only
      flagged when the claim survives approximation — the candidate's
      own set may be over-approximated (a subset of the union is still
      a subset), but inexactly-lowered {e earlier} entries contribute
      nothing to the union, so a flagged entry is provably dead.

    Findings are {!Rd_config.Diag} values with stable kebab-case codes,
    located (via {!Rd_config.Locator}) at the line an operator should
    edit when the raw file text is supplied. *)

open Rd_addr

type leak = {
  leak_origin : int;  (** interior instance the prefixes originate in. *)
  leak_asn : int;  (** external AS they can reach. *)
  leak_router : int;  (** router holding the final EBGP session. *)
  leak_peer : Ipv4.t;  (** session peer address. *)
  leak_path : Rd_routing.Instance_graph.edge list;
      (** unfiltered edges, origin instance to external AS, in order. *)
  leak_prefixes : Prefix_set.t;  (** what escapes. *)
}

val leaks : Analysis.t -> leak list
(** Structured route-leak analysis: for every interior instance with a
    non-empty origin set, the external ASs it can reach along
    completely unfiltered paths, one leak per (origin, AS) pair with a
    shortest witness path.  This is the form the cross-check's
    [netlint-sim-agree] invariant compares against the simulator. *)

val shadowed_acl_clauses : Rd_config.Ast.acl -> int list
(** 0-based indices of clauses subsumed by the union of the clauses
    before them (first-match can never reach them).  Exposed for the
    property test: deleting a flagged clause never changes any
    address's verdict. *)

type report = {
  network : string;
  routers : int;
  instances : int;
  rules : string list;  (** rule families run, in run order. *)
  findings : Rd_config.Diag.t list;
}

val all_rules : string list
(** [["redistribution-loop"; "route-leak"; "peer-consistency";
    "shadowed-rules"]] — every rule family, in default run order. *)

val run_analysis :
  ?trace:Rd_util.Trace.t ->
  ?metrics:Rd_util.Metrics.t ->
  ?cancel:Rd_util.Cancel.t ->
  ?rules:string list ->
  ?files:(string * string) list ->
  Analysis.t ->
  report
(** Lint an analyzed network.  [rules] selects rule families (default
    {!all_rules}; unknown names raise [Invalid_argument]).  [files]
    supplies the raw configuration text so findings carry line numbers
    (omitted: findings carry file names only).  Each family runs in a
    [netlint.<rule>] trace span and accumulates [netlint.*] metrics;
    [cancel] is polled between families.  Findings per family are
    capped at 20 per network with an explicit [netlint-truncated]
    [Info] diagnostic — never a silent cut. *)

val run :
  ?cancel:Rd_util.Cancel.t ->
  ?rules:string list ->
  name:string ->
  (string * string) list ->
  report
(** [run ~name files] — {!Analysis.analyze} then {!run_analysis}, with
    line numbers resolved from the given texts. *)

val has_errors : report list -> bool

val counts : report list -> int * int * int
(** Total [(errors, warnings, infos)] across the reports. *)

val render : report list -> string
(** Summary table (one row per network) followed by a per-network
    diagnostic table for each network with findings. *)

val to_json : report list -> Rd_util.Json.t
(** [{"networks": [...], "errors": n, "warnings": n, "infos": n}]. *)
