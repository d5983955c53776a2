open Rd_addr

type kind = Acl | Route_map | Prefix_list
type entry = { name : string; seq : int option; line : int }
type neighbor = { block : int; proto : string; peer : string; args : string list; line : int }
type redistribution = { proto : string; source : string; args : string list; line : int }
type address = { ifname : string; words : string list; line : int }

type t = {
  definitions : (kind * string * int) list;
  acl_blocks : (string * int) list;
  acl_clauses : entry list;
  route_maps : entry list;
  prefix_lists : entry list;
  references : (kind * string * int) list;
  neighbors : neighbor list;
  redistributions : redistribution list;
  addresses : address list;
}

let empty =
  { definitions = []; acl_blocks = []; acl_clauses = []; route_maps = []; prefix_lists = [];
    references = []; neighbors = []; redistributions = []; addresses = [] }

let rec route_map_refs = function
  | "route-map" :: name :: _ -> [ (Route_map, name) ]
  | _ :: tl -> route_map_refs tl
  | [] -> []

(* [match ip address [prefix-list] N1 N2 ...] anywhere in a route-map line *)
let rec match_refs = function
  | "match" :: "ip" :: "address" :: "prefix-list" :: names ->
    List.map (fun n -> (Prefix_list, n)) names
  | "match" :: "ip" :: "address" :: names -> List.map (fun n -> (Acl, n)) names
  | _ :: rest -> match_refs rest
  | [] -> []

(* The one mode-tracking walk over a file's lines: a top-level line opens
   a block and names its context, an indented line belongs to the block
   the context names.  Facts are consed from the last line back, so each
   list comes out in document order. *)
let of_text text =
  let _, lines =
    List.fold_left_map
      (fun (block, context) (l : Lexer.line) ->
        let block, context = if l.indent = 0 then (block + 1, l.words) else (block, context) in
        ((block, context), (block, context, l)))
      (0, [])
      (fst (Lexer.lines_of_string text))
  in
  let step (block, context, (l : Lexer.line)) t =
    let line = l.lineno in
    let def kind name t = { t with definitions = (kind, name, line) :: t.definitions } in
    let refs l t = { t with references = List.map (fun (k, n) -> (k, n, line)) l @ t.references } in
    if l.indent = 0 then
      match l.words with
      | "access-list" :: name :: _ ->
        def Acl name { t with acl_clauses = { name; seq = None; line } :: t.acl_clauses }
      | [ "ip"; "access-list"; ("standard" | "extended"); name ] ->
        def Acl name { t with acl_blocks = (name, line) :: t.acl_blocks }
      | "route-map" :: name :: rest ->
        let seq = match rest with [ _action; n ] -> int_of_string_opt n | _ -> None in
        def Route_map name { t with route_maps = { name; seq; line } :: t.route_maps }
      | "ip" :: "prefix-list" :: name :: rest ->
        let seq = match rest with "seq" :: n :: _ -> int_of_string_opt n | _ -> None in
        def Prefix_list name { t with prefix_lists = { name; seq; line } :: t.prefix_lists }
      | _ -> t
    else
      match (context, l.words) with
      | "ip" :: "access-list" :: _ :: name :: _, ("permit" | "deny") :: _ ->
        { t with acl_clauses = { name; seq = None; line } :: t.acl_clauses }
      | "interface" :: _ :: _, "ip" :: "access-group" :: name :: _ -> refs [ (Acl, name) ] t
      | "interface" :: ifname :: _, "ip" :: "address" :: words ->
        { t with addresses = { ifname; words; line } :: t.addresses }
      | "router" :: _ :: _, "distribute-list" :: name :: _ -> refs [ (Acl, name) ] t
      | "router" :: proto :: _, "redistribute" :: source :: args ->
        refs (route_map_refs args)
          { t with redistributions = { proto; source; args; line } :: t.redistributions }
      | "router" :: proto :: _, "neighbor" :: peer :: args ->
        refs
          (match args with
           | "distribute-list" :: name :: _ -> [ (Acl, name) ]
           | "prefix-list" :: name :: _ -> [ (Prefix_list, name) ]
           | "route-map" :: name :: _ -> [ (Route_map, name) ]
           | _ -> [])
          { t with neighbors = { block; proto; peer; args; line } :: t.neighbors }
      | "route-map" :: _, words -> refs (match_refs words) t
      | "line" :: _, "access-class" :: name :: _ -> refs [ (Acl, name) ] t
      | _ -> t
  in
  List.fold_right step lines empty

(* Each file is indexed on the first [find] that names it; a file no
   finding cites costs one table entry and is never lexed. *)
type table = (string, t Lazy.t) Hashtbl.t

let of_files ?(files = []) () =
  let table = Hashtbl.create 16 in
  List.iter (fun (name, text) -> Hashtbl.replace table name (lazy (of_text text))) files;
  table

let find table file lookup =
  Option.bind (Hashtbl.find_opt table file) (fun t -> lookup (Lazy.force t))

let definition_line t kind name =
  List.find_map (fun (k, n, line) -> if k = kind && n = name then Some line else None) t.definitions

(* ------------------------------------------------------------ lines --- *)

let named name es = List.filter (fun (e : entry) -> e.name = name) es

let nth_entry es ~seq ~index =
  match List.find_opt (fun (e : entry) -> seq <> None && e.seq = seq) es with
  | Some e -> Some e.line
  | None -> Option.map (fun (e : entry) -> e.line) (List.nth_opt es index)

let neighbor_line t addr =
  List.find_map
    (fun (n : neighbor) ->
      match Ipv4.of_string n.peer with
      | Some a when Ipv4.equal a addr -> Some n.line
      | _ -> None)
    t.neighbors

let redistribute_line t ~proto ~source =
  List.find_map
    (fun (r : redistribution) -> if r.proto = proto && r.source = source then Some r.line else None)
    t.redistributions

let acl_clause_line t name i =
  Option.map (fun (e : entry) -> e.line) (List.nth_opt (named name t.acl_clauses) i)

let prefix_list_line t name ~seq ~index = nth_entry (named name t.prefix_lists) ~seq ~index
let route_map_line t name ~seq ~index = nth_entry (named name t.route_maps) ~seq ~index

let interface_address_line t name =
  List.find_map (fun (a : address) -> if a.ifname = name then Some a.line else None) t.addresses
