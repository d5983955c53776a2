(** Route filters as prefix-set transformers.

    Redistribution edges and routing-protocol sessions carry policies
    (distribute-lists, per-neighbor filters, route-maps).  For
    instance-level reachability analysis (paper §6.2) each policy is
    abstracted to the set of destination addresses whose routes it lets
    through; composing edges is then set intersection. *)

open Rd_addr
open Rd_config

type t
(** A filter: semantically a predicate on route prefixes. *)

val everything : t
(** The unrestricted filter (permits every route). *)

val compile :
  Ast.t ->
  acls:string list ->
  prefix_lists:string list ->
  route_maps:string list ->
  unit ->
  t
(** Lower a conjunction of config-named policies to one prefix set.
    Each name is resolved against [cfg]; names that resolve to nothing
    contribute no restriction (matching IOS behaviour for references to
    undefined policies, which the lint pass reports separately).  Named
    lowerings are memoized per domain on the physical identity of the
    AST value, so every edge that references the same policy shares one
    computed set — this is the route-filter "compile" step of the
    hash-consed kernel (DESIGN.md §12).  The set over-approximates where
    a policy is not exact ({!Acl.exact}, {!Route_map.exact}). *)

val of_prefix_set : Prefix_set.t -> t
(** A filter permitting exactly the given destination set — used to
    inject synthetic policies, e.g. the cross-check's deny-filter
    monotonicity invariant conjoining every edge with the complement of a
    probe prefix. *)

val conj : t -> t -> t
(** Both filters must permit. *)

val permits : t -> Prefix.t -> bool
(** The filter lets a route to this prefix through. *)

val apply : t -> Prefix_set.t -> Prefix_set.t
(** Restrict a set of destinations to those the filter permits. *)

val permitted : t -> Prefix_set.t
(** The permitted address set itself. *)

val is_unrestricted : t -> bool
(** The filter permits the whole address space ({!everything} or an
    equivalent). *)
