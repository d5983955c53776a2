(** Source-line index for semantic findings.

    The AST deliberately drops physical positions — parsing normalizes
    away line structure — but the network-wide lint pass
    ([Rd_core.Netlint]) and the design rules of [Rd_core.Lint] must
    point their diagnostics at the line an operator should edit: the
    [neighbor] statement of a mismatched or unfiltered peering, the
    shadowed [access-list] clause, the [redistribute] command closing a
    loop.  A locator is a {!Lexer} pass over the raw text of a file,
    indexing the definition lines of the entities findings cite; a file
    is indexed on first lookup, so only the files that findings cite
    are ever lexed.  Lookups are total: anything the index
    cannot resolve (synthetic configurations, entities introduced by a
    transformation) simply yields [None] and the finding goes out
    without a line. *)

type t
(** A per-file line index. *)

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
