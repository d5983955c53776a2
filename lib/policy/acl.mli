(** Access-list evaluation.

    ACLs serve two distinct roles in a configuration (paper §2.4): as
    packet filters attached to interfaces, and as route filters referenced
    by distribute-lists and route-maps.  Both use first-match semantics
    with an implicit trailing deny. *)

open Rd_addr
open Rd_config

type verdict = Ast.action  (** [Permit] or [Deny]. *)

val eval_addr : Ast.acl -> Ipv4.t -> verdict
(** Match a single source address (standard-ACL semantics). *)

val eval_route : Ast.acl -> Prefix.t -> verdict
(** Route-filtering semantics: a clause matches a route if the route's
    network address matches the clause's source spec.  This is how IOS
    applies standard ACLs in distribute-lists. *)

val permitted_set : ?diag:Diag.collector -> Ast.acl -> Prefix_set.t
(** The set of addresses permitted by the ACL, honouring first-match
    order.  Never raises: non-contiguous source wildcards are decomposed
    into their exact prefix cover via {!Rd_addr.Wildcard.to_prefixes}
    (exact up to 12 enumerated wildcard bits; beyond that the clause set
    is over-approximated by its smallest contiguous cover and an
    [acl-wildcard-approx] warning is reported to [diag]).

    Diag-less lowerings are memoized per domain on the physical identity
    of the ACL value — the common path for instance-graph edges, which
    reference the same parsed ACL many times.  Passing [diag] bypasses
    the memo so warnings are reported on every explicit request. *)

val clause_src_set : Ast.acl_clause -> Prefix_set.t * bool
(** Source-address coverage of one clause and whether it is exact
    ([false] when a non-contiguous wildcard forced the contiguous-cover
    over-approximation of {!permitted_set}).  The shadowed-rule analysis
    ([Rd_core.Netlint]) only trusts exact earlier-clause sets. *)

val clause_dst_set : Ast.acl_clause -> Prefix_set.t * bool
(** Destination coverage of one clause ({!Prefix_set.full} for a
    standard clause, which matches any destination), with the same
    exactness flag. *)
