(** Sets of IPv4 addresses represented as hash-consed canonical binary
    tries of prefixes.

    The trie shape is canonical (a node never has two [Empty] or two
    [Full] children), so two sets are semantically equal iff their tries
    have the same shape — this is the workhorse for reasoning about
    routing policies, e.g. the paper's net15 result that the route sets
    admitted by policies on opposite sides of the network have empty
    intersection (A2 ∩ A5 = ∅, §6.2).

    On top of canonicity the module hash-conses nodes per domain and
    memoizes {!union}/{!inter}/{!diff}/{!subset}, so within one domain
    {!equal} is an O(1) id comparison and repeated set algebra over the
    same operands costs one cache probe (see DESIGN.md §12).  Values are
    immutable and safe to share across {!Rd_util.Pool} worker domains;
    sets that crossed a domain boundary compare via a structural
    fallback, so semantic equality is never lost — only sharing.

    The test suite keeps the original structural implementation as the
    executable reference semantics and checks this kernel against it on
    random sets. *)

type t
(** An immutable set of IPv4 addresses. *)

val empty : t
(** The empty set. *)

val full : t
(** The whole IPv4 space. *)

val of_prefix : Prefix.t -> t
(** All addresses covered by one prefix. *)

val of_prefixes : Prefix.t list -> t
(** Union of the given prefixes, in any order (overlaps and duplicates
    are fine).  Built in one pass over the prefixes sorted by
    {!Prefix.compare}: one hash-cons probe per trie node and no
    {!union} memo traffic, so this is the way to build a set from many
    prefixes rather than a fold of {!union}. *)

val union : t -> t -> t
(** Set union.  Memoized; returns an operand physically when the other
    side adds nothing. *)

val inter : t -> t -> t
(** Set intersection.  Memoized. *)

val diff : t -> t -> t
(** [diff a b]: addresses in [a] but not [b].  Memoized. *)

val complement : t -> t
(** All addresses not in the set. *)

val is_empty : t -> bool
(** O(1) thanks to canonicity: only the [Empty] node is empty. *)

val is_full : t -> bool
(** O(1): only the [Full] node covers the whole space. *)

val equal : t -> t -> bool
(** Semantic equality.  O(1) when hash-consing handed both sides the
    same node (the common case within one domain — an unchanged union
    returns its operand); otherwise a structural descent that
    short-circuits on shared subtrees.  Matching node ids only ever
    decide positively: values imported across a {!Rd_util.Pool} domain
    boundary (or rebuilt after a cache reset) may duplicate a local
    shape under a fresh id, and still compare equal. *)

val subset : t -> t -> bool
(** [subset a b]: [a] ⊆ [b].  Memoized per operand pair. *)

val mem : Ipv4.t -> t -> bool
(** Single-address membership: one trie descent, no allocation. *)

val mem_prefix : Prefix.t -> t -> bool
(** Whole prefix covered. *)

val overlaps : t -> t -> bool
(** [overlaps a b]: the intersection is non-empty (without building
    it when a shared subtree answers early). *)

val to_prefixes : t -> Prefix.t list
(** Minimal list of disjoint prefixes covering exactly the set, in address
    order. *)

val count_addresses : t -> int
(** Number of addresses in the set (beware: can be [2^32]). *)

val count_subtree : depth:int -> t -> int
(** [count_subtree ~depth s] counts the addresses of a subtree rooted
    [depth] bits down the trie (a [Full] subtree there covers
    [2^(32-depth)] addresses).  Memoized per (node, depth); address-block
    recovery ({!Rd_addrspace.Blocks}) calls this against one shared
    "used" set for every candidate supernet. *)

type view = Empty_v | Full_v | Split_v of t * t

val view : t -> view
(** Structural view of the canonical trie: either the set is empty, or it
    covers the whole (sub)space, or it splits into the zero-bit and
    one-bit halves.  Lets algorithms walk the trie in lockstep with their
    own recursion without re-intersecting. *)

type stats = { nodes : int; memo_hits : int; memo_misses : int }

val stats : unit -> stats
(** Cumulative kernel counters summed over every domain that touched the
    kernel since program start: hash-consed nodes allocated, and memo
    cache hits/misses across all memoized operations.  Reads of other
    domains' counters are unsynchronized (advisory numbers for metrics —
    surfaced as the [pset.nodes]/[pset.memo_hits]/[pset.memo_misses]
    counters by {!Rd_reach.Reachability.compute}). *)

val pp : Format.formatter -> t -> unit
(** Prints the covering prefixes of {!to_prefixes}, comma-separated
    ([<empty>]/[<full>] for the extremes). *)
