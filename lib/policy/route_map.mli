(** Route-map evaluation.

    A route-map is an ordered list of permit/deny entries; each entry may
    match on prefix (via ACLs) and tag, and may set attributes (tag,
    metric, local-preference).  Route-maps annotate redistribution edges
    (paper §2.4); tags propagated through IGPs are the mechanism behind
    net5's IBGP-free design (§6.1). *)

open Rd_addr
open Rd_config

type route = { net : Prefix.t; tag : int option; metric : int option }
(** The attributes a route-map can inspect or rewrite. *)

type result =
  | Permitted of route  (** possibly rewritten. *)
  | Denied

val eval :
  Ast.route_map ->
  lookup_acl:(string -> Ast.acl option) ->
  ?lookup_prefix_list:(string -> Ast.prefix_list option) ->
  route ->
  result
(** First entry whose every match clause holds decides; an entry with no
    match clauses matches everything; falling off the end denies (IOS
    semantics for redistribution route-maps). *)

val permitted_set :
  Ast.route_map ->
  lookup_acl:(string -> Ast.acl option) ->
  ?lookup_prefix_list:(string -> Ast.prefix_list option) ->
  unit ->
  Prefix_set.t
(** Addresses whose routes can pass the map ignoring tag matches (a
    conservative over-approximation when tag matches are present; exact
    otherwise).  A permit entry with a tag match contributes its prefixes
    but claims nothing from later entries; a deny entry with a tag match
    claims nothing at all — either way the result only ever grows, never
    shrinks, relative to the exact semantics.  Unresolvable ACL
    references match nothing; resolved ones lower through
    {!Acl.permitted_set}. *)

val exact : Ast.route_map -> lookup_acl:(string -> Ast.acl option) -> bool
(** {!permitted_set} is exactly the passing addresses: no entry matches
    on tag, and every ACL an entry matches that [lookup_acl] resolves is
    {!Acl.exact}. *)
