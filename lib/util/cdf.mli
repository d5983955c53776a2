(** Empirical cumulative distribution functions and ASCII plots.

    Figures 4, 8 and 11 of the paper are distribution plots; the benchmark
    harness renders them as ASCII so the series can be compared by eye and
    by machine. *)

type t
(** An empirical CDF over float samples. *)

val of_samples : float list -> t
(** Build from raw samples.  The empty sample list yields an empty CDF. *)

val eval : t -> float -> float
(** [eval t x] = fraction of samples [<= x], in [\[0,1\]]; 0 for an empty
    CDF. *)

val size : t -> int
(** Number of samples the CDF was built from. *)

val plot : ?x_label:string -> t -> string
(** ASCII art rendering of the CDF curve, 60 columns by 16 rows. *)
