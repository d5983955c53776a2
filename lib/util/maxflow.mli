(** Integer max-flow (Dinic's algorithm) and derived connectivity queries.

    The paper asks questions such as "how many routers need to fail before
    instance 1 is partitioned from instance 2?" (§5.1).  That is a minimum
    vertex cut, computed here by node splitting over a unit-capacity flow
    network. *)

type t

val create : int -> t
(** [create n] makes an empty flow network on vertices [0 .. n-1]. *)

val add_edge : t -> int -> int -> int -> unit
(** [add_edge g u v cap] adds a directed edge of capacity [cap] (a residual
    reverse edge of capacity 0 is added automatically). *)

val max_flow : t -> source:int -> sink:int -> int
(** Value of a maximum [source]->[sink] flow.  Destructive: consume the
    network once. *)

val min_vertex_cut_set :
  n:int ->
  edges:(int * int) list ->
  sources:int list ->
  sinks:int list ->
  int * int list
(** Multi-source/multi-sink variant where *every* vertex (including
    sources and sinks) may be removed at unit cost: the minimum number of
    vertices whose removal leaves no path from a surviving source to a
    surviving sink, together with one minimising vertex set.  A vertex in
    both [sources] and [sinks] is itself a path and must be cut. *)
