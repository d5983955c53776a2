(** Disjoint-set forest with union by rank and path compression.

    Used to group routing processes into routing instances (§3.2 of the
    paper): the transitive closure of same-protocol adjacency is exactly a
    union-find over processes. *)

type t
(** A disjoint-set forest over integer elements. *)

val create : int -> t
(** [create n] makes [n] singleton sets labelled [0 .. n-1]. *)

val find : t -> int -> int
(** Canonical representative of the element's set. *)

val union : t -> int -> int -> unit
(** Merge two sets.  No-op if already together. *)

val groups : t -> (int, int list) Hashtbl.t
(** Map from representative to the members of its set. *)
