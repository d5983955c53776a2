(** Summary statistics over float and int samples. *)

val mean : float list -> float
(** Arithmetic mean; 0 on the empty list. *)

val median : float list -> float
(** Median (average of middle two for even length); 0 on the empty list. *)

val percentile : float -> float list -> float
(** [percentile p xs] with [p] in [\[0,100\]], nearest-rank on the sorted
    sample; 0 on the empty list. *)

val imean : int list -> float
(** {!mean} over integer samples. *)

val imedian : int list -> float
(** {!median} over integer samples. *)

val imin : int list -> int
(** Smallest element; 0 on the empty list. *)

val imax : int list -> int
(** Largest element; 0 on the empty list. *)

val histogram : edges:float list -> float list -> int array
(** [histogram ~edges xs] counts samples per bucket.  With [edges]
    [\[e1; …; ek\]] the buckets are (-inf, e1], (e1, e2], …, (ek, +inf):
    [k+1] counts. *)
