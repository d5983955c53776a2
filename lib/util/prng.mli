(** Deterministic pseudo-random number generation.

    All randomness in the repository flows through this module so that
    experiments are reproducible bit-for-bit from a seed.  The generator is
    splitmix64 (Steele, Lea, Flood 2014): a tiny, fast, well-distributed
    64-bit generator that supports cheap stream splitting. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)].  Requires [n > 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive.  Requires
    [lo <= hi]. *)

val float : t -> float -> float
(** [float t x] is uniform in [\[0, x)]. *)

val bool : t -> bool
(** Fair coin flip. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val choice : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val weighted : t -> (float * 'a) list -> 'a
(** [weighted t choices] picks proportionally to the non-negative weights.
    Requires at least one strictly positive weight. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val sample : t -> int -> 'a list -> 'a list
(** [sample t k xs] draws [min k (length xs)] distinct elements, preserving
    no particular order. *)

val pareto_int : t -> alpha:float -> xmin:int -> int
(** Heavy-tailed integer sample: discretized Pareto with shape [alpha] and
    minimum [xmin].  Used for realistic size distributions. *)
