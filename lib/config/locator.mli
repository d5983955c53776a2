(** Source-line index for semantic findings.

    The AST deliberately drops physical positions — parsing normalizes
    away line structure — but the network-wide lint pass
    ([Rd_core.Netlint]) and the design rules of [Rd_core.Lint] must
    point their diagnostics at the line an operator should edit: the
    [neighbor] statement of a mismatched or unfiltered peering, the
    shadowed [access-list] clause, the [redistribute] command closing a
    loop.  A locator is one extra {!Lexer} pass over
    the raw text of a file, indexing the definition lines of the
    entities findings cite.  Lookups are total: anything the index
    cannot resolve (synthetic configurations, entities introduced by a
    transformation) simply yields [None] and the finding goes out
    without a line. *)

type t
(** A per-file line index. *)

val of_text : string -> t
(** Index one configuration file's raw text. *)

type table
(** Per-file indexes of one network, keyed by file name. *)

val of_files : ?files:(string * string) list -> (string -> bool) -> table
(** [of_files ?files known] indexes each (file name, text) pair whose
    name satisfies [known] (the files the analysis was built from); no
    [files], no index. *)

val find : table -> string -> (t -> int option) -> int option
(** [find table file lookup] runs [lookup] on [file]'s index; [None]
    when the file was not indexed. *)

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
(** Line of the [ip address ...] command of the named interface. *)
