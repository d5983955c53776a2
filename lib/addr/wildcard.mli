(** Cisco wildcard (inverse) masks.

    A wildcard pair [base/wild] matches address [a] iff the bits of [a]
    agree with [base] everywhere the wildcard bit is 0.  Unlike netmasks,
    wildcard bits need not be contiguous, so a wildcard match is strictly
    more general than a prefix match.  Wildcards appear in `network`
    statements and access-list clauses. *)

type t = private { base : Ipv4.t; wild : Ipv4.t }

val make : Ipv4.t -> Ipv4.t -> t
(** [make base wild]; [base] is normalized so wildcard bits are zero. *)

val base : t -> Ipv4.t
(** The pattern bits (wildcarded positions forced to zero). *)

val wild : t -> Ipv4.t
(** The wildcard mask: 1-bits are don't-care positions. *)

val matches : t -> Ipv4.t -> bool
(** Address matches the pattern on every non-wildcarded bit. *)

val of_prefix : Prefix.t -> t
(** The contiguous wildcard equivalent to the prefix. *)

val to_prefix : t -> Prefix.t option
(** [Some p] when the wildcard is contiguous, [None] otherwise. *)

val to_prefixes : t -> Prefix.t list * bool
(** [to_prefixes w] decomposes the wildcard into prefixes covering the
    addresses it matches.  A contiguous wildcard is one prefix.  A
    non-contiguous wildcard's low contiguous run of wild bits folds into
    the prefix length and each wild bit above it is enumerated, yielding
    [2^scattered] disjoint prefixes — exact, flagged [true].  When more
    than 12 bits would need enumeration, the result
    is instead the single smallest contiguous cover, a strict
    over-approximation flagged [false]. *)

val any : t
(** Matches everything (0.0.0.0 255.255.255.255). *)

val host : Ipv4.t -> t
(** Matches exactly one address. *)

val is_contiguous : t -> bool
(** The wild bits form one low-order run — i.e. the wildcard is an
    inverted netmask and {!to_prefix} succeeds. *)

val to_string : t -> string
(** ["base wild"] in Cisco config notation. *)

val equal : t -> t -> bool
(** Same base and wildcard bits. *)
