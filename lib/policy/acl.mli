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

val permitted_set : Ast.acl -> Prefix_set.t
(** The set of addresses permitted by the ACL, honouring first-match
    order.  Never raises: each clause's source wildcard lowers to
    {!clause_src_set}, an over-approximation where the ACL is not
    {!exact}.

    Memoized per domain on the physical identity of the ACL value — the
    common path for instance-graph edges, which reference the same parsed
    ACL many times. *)

val exact : Ast.acl -> bool
(** {!permitted_set} is exactly the permitted addresses: every clause's
    source wildcard is {!Rd_addr.Wildcard.exact}. *)

val clause_src_set : Ast.acl_clause -> Prefix_set.t * bool
(** Source-address coverage of one clause and whether it is exact: a
    non-contiguous wildcard expands to its exact prefix cover
    ({!Rd_addr.Wildcard.to_prefixes}) when it is
    {!Rd_addr.Wildcard.exact}, else to its smallest contiguous cover,
    flagged [false].  The shadowed-rule analysis ([Rd_core.Netlint]) only
    trusts exact earlier-clause sets. *)

val clause_dst_set : Ast.acl_clause -> Prefix_set.t * bool
(** Destination coverage of one clause ({!Prefix_set.full} for a
    standard clause, which matches any destination), with the same
    exactness flag. *)
