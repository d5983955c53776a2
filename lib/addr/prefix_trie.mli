(** Maps keyed by prefix with longest-prefix-match lookup.

    Forwarding decisions (next-hop selection) and address-block association
    both need "most specific covering prefix" queries; this trie provides
    them in O(32) per lookup. *)

type 'a t

val empty : 'a t
(** The map with no bindings. *)

val is_empty : 'a t -> bool
(** No bindings at all. *)

val add : Prefix.t -> 'a -> 'a t -> 'a t
(** Bind a prefix, replacing any existing binding of the same prefix. *)

val of_bindings : (Prefix.t * 'a) list -> 'a t
(** The map holding exactly these bindings, which must be strictly
    increasing by {!Prefix.compare} (address order, as {!bindings}
    returns them); built in one pass, without the path copying of
    repeated {!add}.  Raises [Invalid_argument] on unsorted or duplicate
    prefixes. *)

val remove : Prefix.t -> 'a t -> 'a t
(** Drop the exact binding of the prefix, if any. *)

val find : Prefix.t -> 'a t -> 'a option
(** Exact-prefix lookup. *)

val longest_match : Ipv4.t -> 'a t -> (Prefix.t * 'a) option
(** Most specific bound prefix containing the address. *)

val matches : Ipv4.t -> 'a t -> (Prefix.t * 'a) list
(** All bound prefixes containing the address, shortest first. *)

val covering : Prefix.t -> 'a t -> (Prefix.t * 'a) option
(** Most specific bound prefix that contains the whole query prefix. *)

val covered_by : Prefix.t -> 'a t -> (Prefix.t * 'a) list
(** All bindings whose prefix is inside the query prefix. *)

val fold : (Prefix.t -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
(** Fold over bindings in address order. *)

val iter : (Prefix.t -> 'a -> unit) -> 'a t -> unit
(** Iterate over bindings in address order. *)

val bindings : 'a t -> (Prefix.t * 'a) list
(** All bindings in address order. *)

val cardinal : 'a t -> int
(** Number of bindings. *)

val update : Prefix.t -> ('a option -> 'a option) -> 'a t -> 'a t
(** Rewrite one binding in place: the callback sees the current value
    ([None] if unbound) and returns the new one ([None] removes). *)
