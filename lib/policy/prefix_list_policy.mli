(** [ip prefix-list] evaluation.

    A prefix list matches routes by prefix bits and mask length: an entry
    [permit P/L ge G le E] matches a route [R/l] when the first [L] bits
    of [R] equal [P] and [l] lies in the accepted mask range (exactly [L]
    when neither [ge] nor [le] is given).  First match wins; falling off
    the end denies. *)

open Rd_addr
open Rd_config

val entry_bounds : Ast.prefix_list_entry -> int * int
(** Effective inclusive [(lo, hi)] route-length bounds the entry can
    match ([lo > hi] for an unsatisfiable entry).  [lo] is never below
    the entry prefix's own length, and [hi] never above 32.  The
    shadowed-rule analysis ([Rd_core.Netlint]) walks lengths [lo..hi] to
    compare entries without the address-level approximation of
    {!permitted_set}. *)

val eval : Ast.prefix_list -> Prefix.t -> Ast.action
(** First matching entry's action; [Deny] when nothing matches. *)

val permitted_set : Ast.prefix_list -> Prefix_set.t
(** Address-space over-approximation used by instance-level reachability:
    mask-length constraints are dropped, only prefix coverage is kept
    (exact when no [ge]/[le] narrowing matters for the addresses
    involved). *)
