open Rd_addr

type entry = { seq : int option; line : int }

type t = {
  neighbors : (int, int) Hashtbl.t;  (* peer address (as int) -> first line *)
  redists : (string * string, int) Hashtbl.t;  (* (router proto, source) -> first line *)
  acl_clauses : (string, entry list ref) Hashtbl.t;  (* name -> clause lines, reversed *)
  pl_entries : (string, entry list ref) Hashtbl.t;
  rm_entries : (string, entry list ref) Hashtbl.t;
  if_addrs : (string, int) Hashtbl.t;  (* interface name -> ip-address line *)
}

let push tbl name e =
  match Hashtbl.find_opt tbl name with
  | Some r -> r := e :: !r
  | None -> Hashtbl.add tbl name (ref [ e ])

let first tbl key line = if not (Hashtbl.mem tbl key) then Hashtbl.add tbl key line

(* The same mode-tracking walk as [Rd_core.Lint]: top-level lines reset
   the context, indented lines belong to the block the context names. *)
let of_text text =
  let t =
    {
      neighbors = Hashtbl.create 16;
      redists = Hashtbl.create 8;
      acl_clauses = Hashtbl.create 8;
      pl_entries = Hashtbl.create 8;
      rm_entries = Hashtbl.create 8;
      if_addrs = Hashtbl.create 16;
    }
  in
  let context = ref [] in
  let neighbor_of peer line =
    match Ipv4.of_string peer with
    | Some a -> first t.neighbors (Ipv4.to_int a) line
    | None -> ()
  in
  let prefix_list_entry name rest line =
    let seq =
      match rest with "seq" :: n :: _ -> int_of_string_opt n | _ -> None
    in
    push t.pl_entries name { seq; line }
  in
  let top (l : Lexer.line) =
    context := l.words;
    match l.words with
    | "access-list" :: name :: _ -> push t.acl_clauses name { seq = None; line = l.lineno }
    | "route-map" :: name :: rest ->
      let seq =
        match rest with [ _action; n ] -> int_of_string_opt n | _ -> None
      in
      push t.rm_entries name { seq; line = l.lineno }
    | "ip" :: "prefix-list" :: name :: rest -> prefix_list_entry name rest l.lineno
    | _ -> ()
  in
  let sub (l : Lexer.line) =
    match !context with
    | "ip" :: "access-list" :: _ :: name :: _ -> (
      match l.words with
      | ("permit" | "deny") :: _ -> push t.acl_clauses name { seq = None; line = l.lineno }
      | _ -> ())
    | "interface" :: ifname :: _ -> (
      match l.words with
      | "ip" :: "address" :: _ -> first t.if_addrs ifname l.lineno
      | _ -> ())
    | "router" :: proto :: _ -> (
      match l.words with
      | "neighbor" :: peer :: _ -> neighbor_of peer l.lineno
      | "redistribute" :: source :: _ -> first t.redists (proto, source) l.lineno
      | _ -> ())
    | _ -> ()
  in
  List.iter
    (fun (l : Lexer.line) -> if l.indent = 0 then top l else sub l)
    (fst (Lexer.lines_of_string text));
  t

(* Each file is indexed on the first [find] that names it; a file no
   finding cites costs one table entry and is never lexed. *)
type table = (string, t Lazy.t) Hashtbl.t

let of_files ?(files = []) () =
  let table = Hashtbl.create 16 in
  List.iter (fun (name, text) -> Hashtbl.replace table name (lazy (of_text text))) files;
  table

let find table file lookup =
  Option.bind (Hashtbl.find_opt table file) (fun t -> lookup (Lazy.force t))

let entries tbl name =
  match Hashtbl.find_opt tbl name with Some r -> List.rev !r | None -> []

let nth_entry es ~seq ~index =
  let by_seq =
    match seq with
    | None -> None
    | Some s -> List.find_opt (fun e -> e.seq = Some s) es
  in
  match by_seq with
  | Some e -> Some e.line
  | None -> Option.map (fun e -> e.line) (List.nth_opt es index)

let neighbor_line t addr = Hashtbl.find_opt t.neighbors (Ipv4.to_int addr)
let redistribute_line t ~proto ~source = Hashtbl.find_opt t.redists (proto, source)

let acl_clause_line t name i =
  Option.map (fun e -> e.line) (List.nth_opt (entries t.acl_clauses name) i)

let prefix_list_line t name ~seq ~index = nth_entry (entries t.pl_entries name) ~seq ~index
let route_map_line t name ~seq ~index = nth_entry (entries t.rm_entries name) ~seq ~index
let interface_address_line t name = Hashtbl.find_opt t.if_addrs name
