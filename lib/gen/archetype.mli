(** Archetype registry: the design families observed in the paper's 31
    networks, with convenience constructors that pick sensible secondary
    parameters from the size and a seed. *)

type t =
  | Backbone  (** textbook transit backbone (§3.1). *)
  | Enterprise  (** textbook enterprise (§3.1). *)
  | Compartment  (** net5-style compartmentalized design (§5.1/§6.1). *)
  | Restricted  (** net15-style restricted reachability (§6.2). *)
  | Tier2  (** backbone-like BGP with staging IGP instances (§7.1). *)
  | Hub_spoke  (** hub-and-spoke enterprise (§8.2). *)
  | Igp_only  (** single-IGP network without BGP. *)

val all : t list
(** Every archetype, in declaration order. *)

val to_string : t -> string
(** Kebab-case archetype name as accepted by [rdna generate]. *)

val of_string : string -> t option
(** Inverse of {!to_string}; [None] for any other name. *)

val generate :
  t -> seed:int -> n:int -> ?use_bgp:bool -> ?use_filters:bool -> index:int -> unit -> Builder.net
(** [generate arch ~seed ~n ~index ()] builds a network of roughly [n]
    routers ([Compartment] and [Restricted] have fixed case-study sizes
    when [n] matches the paper, otherwise they scale).  [index] (the
    network's number in a population) diversifies address space and AS
    numbers. *)
