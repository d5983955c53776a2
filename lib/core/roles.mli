(** IGP/EGP role classification (paper §5.2, Table 1).

    A protocol instance serves an *inter-domain* (EGP) role when it has an
    adjacency with an instance of another network — for IGPs, a process
    speaking on an external-facing link; for EBGP, a session whose peer is
    outside the configuration set.  Everything else is *intra-domain*. *)

type role = Intra | Inter
(** Intra-domain vs inter-domain use of a protocol instance. *)

type counts = {
  ospf : int * int;  (** (intra, inter) instance counts. *)
  eigrp : int * int;  (** includes IGRP, as in the paper. *)
  rip : int * int;
  isis : int * int;
  ebgp_sessions : int * int;  (** (intra, inter) *session* counts. *)
}

val count : Analysis.t -> counts
(** Per-protocol (intra, inter) tallies for one network — one row of the
    paper's Table 1. *)

val add : counts -> counts -> counts
(** Pointwise sum, for aggregating across networks. *)

val zero : counts
(** All-zero tallies (identity for {!add}). *)

val uses_bgp : Analysis.t -> bool
(** Whether any router in the network runs a BGP process. *)

val total_conventional_fraction : counts -> float * float
(** (fraction of IGP instances used intra, fraction of EBGP sessions used
    inter) — the paper reports both near 0.9. *)
