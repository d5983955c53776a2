(** Route pathway graphs (paper §3.3, Figures 7 and 10).

    For a given router, a breadth-first search upstream through the
    instance graph records where the routes in that router's RIB can have
    come from: the instances the router participates in directly, then
    every instance or external AS with an edge delivering routes into an
    already-discovered vertex. *)

type t = {
  router : int;
  depth_of : (Instance_graph.endpoint * int) list;
      (** discovered vertices with their BFS depth (0 = on the router). *)
  edges : Instance_graph.edge list;
      (** instance-graph edges traversed (oriented toward the router). *)
  reaches_external : bool;
      (** some pathway reaches the external world. *)
}

val build : Instance_graph.t -> router:int -> t
(** BFS upstream from [router]. *)

val render : Instance_graph.t -> t -> string
(** Text rendering, deepest sources first. *)
