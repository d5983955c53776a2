(** Graphviz DOT emission.

    The paper's figures 5, 6, 9, 10 and 12 are graphs; the CLI can export
    every derived graph as DOT for rendering. *)

type t
(** A graph under construction: nodes, edges and cluster subgraphs. *)

val create : string -> t
(** [create name] starts an empty directed graph. *)

val node : t -> ?label:string -> ?shape:string -> string -> unit
(** Declare a node by id with optional attributes.  Redeclaring an id
    overwrites its attributes. *)

val edge : t -> ?label:string -> ?style:string -> string -> string -> unit
(** [edge g u v] adds an edge from node id [u] to [v] with optional
    attributes.  Endpoints need not have been declared with {!node}. *)

val subgraph : t -> label:string -> string -> string list -> unit
(** [subgraph g ~label id nodes] clusters existing node ids. *)

val to_string : t -> string
(** Render the accumulated graph as DOT source. *)
