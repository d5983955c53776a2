(** The one text index of a configuration file: the one walk of its
    raw text outside the parser ({!Lexer.lines_of_string}, each indented
    line read in the context of its top-level block).  The AST drops
    physical positions; the index keeps, each with its line, the facts
    lint findings cite.  [Rd_core.Lint]'s per-file rules are queries on
    it; the design rules and [Rd_core.Netlint] look lines up through a
    {!table}, which indexes a file on first lookup, so only the files
    that findings cite are ever lexed.  Lookups are total: what the
    index cannot resolve yields [None], and the finding goes out without
    a line. *)

type kind = Acl | Route_map | Prefix_list

type entry = { name : string; seq : int option; line : int }
(** An ACL clause ([seq] is [None]), route-map header or prefix-list line. *)

type neighbor = { block : int; proto : string; peer : string; args : string list; line : int }
(** [neighbor <peer> <args>] in the [block]-th top-level block, a
    [router <proto>] block. *)

type redistribution = { proto : string; source : string; args : string list; line : int }
(** [redistribute <source> <args>] in a [router <proto>] block. *)

type address = { ifname : string; words : string list; line : int }
(** [ip address <words>] in an [interface <ifname>] block. *)

(** A per-file index, every list in document order. *)
type t = {
  definitions : (kind * string * int) list;
      (** every line defining a name: [access-list] lines, [ip access-list
          standard|extended] headers, [route-map] headers, [ip
          prefix-list] lines. *)
  acl_blocks : (string * int) list;  (** the [ip access-list] headers. *)
  acl_clauses : entry list;
  route_maps : entry list;
  prefix_lists : entry list;
  references : (kind * string * int) list;
      (** [access-group], [distribute-list], [access-class], [match ip
          address [prefix-list]], [redistribute ... route-map] and
          per-neighbor filters. *)
  neighbors : neighbor list;
  redistributions : redistribution list;
  addresses : address list;
}

val of_text : string -> t
(** Index one configuration file's raw text. *)

type table
(** Per-file indexes of one network, keyed by file name, each built on
    the first {!find} that names its file.  The indexing is a [Lazy.t],
    which is not domain-safe: build a table per lint run and use it from
    the domain that built it; never share one across domains. *)

val of_files : ?files:(string * string) list -> unit -> table
(** [of_files ?files ()] holds each (file name, text) pair for indexing
    on first lookup; a name given twice keeps its last text.  No
    [files], no index. *)

val find : table -> string -> (t -> int option) -> int option
(** [find table file lookup] runs [lookup] on [file]'s index, indexing
    the file on first use; [None] when [files] did not name [file]. *)

val definition_line : t -> kind -> string -> int option
(** The first of the name's {!t.definitions}. *)

(** {1 Lines} *)

val neighbor_line : t -> Rd_addr.Ipv4.t -> int option
(** First [neighbor <addr> ...] line for the peer address. *)

val redistribute_line : t -> proto:string -> source:string -> int option
(** First [redistribute <source> ...] line inside a [router <proto> ...]
    block.  [source] is the first token after [redistribute]
    (["connected"], ["static"], ["ospf"], ...). *)

val acl_clause_line : t -> string -> int -> int option
(** Line of the 0-based [i]-th clause of the named access list, counting
    both numbered [access-list <name> ...] lines and the clauses of an
    [ip access-list standard|extended <name>] block, in document order. *)

val prefix_list_line : t -> string -> seq:int option -> index:int -> int option
(** Line of a prefix-list entry: by its [seq <n>] number when the text
    carries one, else by 0-based occurrence [index]. *)

val route_map_line : t -> string -> seq:int option -> index:int -> int option
(** Line of a [route-map <name> <action> <seq>] entry header, by
    sequence number with an occurrence-order fallback. *)

val interface_address_line : t -> string -> int option
(** Line of the first [ip address ...] command of the named interface. *)
