open Rd_addr

type state = {
  mutable hostname : string option;
  mutable interfaces : Ast.interface list;  (* reverse order *)
  mutable processes : Ast.router_process list;
  mutable acls : (string * bool * Ast.acl_clause list) list;  (* name, extended, rev clauses *)
  mutable route_maps : (string * Ast.route_map_entry list) list;  (* name, rev entries *)
  mutable prefix_lists : (string * Ast.prefix_list_entry list) list;  (* name, rev entries *)
  mutable statics : Ast.static_route list;
  mutable unknown : (int * string) list;  (* (lineno, raw) *)
  diag : Diag.collector;
}

let fresh ?file () =
  {
    hostname = None;
    interfaces = [];
    processes = [];
    acls = [];
    route_maps = [];
    prefix_lists = [];
    statics = [];
    unknown = [];
    diag = Diag.create ?file ();
  }

(* A line the parser could not model: it goes to [unknown] with its line
   number and produces a diagnostic.  [severity] distinguishes commands we
   simply do not model (Warning) from modeled commands whose arguments are
   malformed (Error) — the latter mean real data loss. *)
let reject st ?(severity = Diag.Error) ~code ~what (l : Lexer.line) =
  st.unknown <- (l.lineno, l.raw) :: st.unknown;
  Diag.report st.diag ~line:l.lineno severity ~code "%s: %s" what (String.trim l.raw)

let direction_of_string = function
  | "in" -> Some Ast.In
  | "out" -> Some Ast.Out
  | _ -> None

(* --- address helpers ------------------------------------------------- *)

let addr s = Ipv4.of_string s

let addr2 a b =
  match (addr a, addr b) with Some x, Some y -> Some (x, y) | _ -> None

(* --- ACL clause parsing ---------------------------------------------- *)

let port_match = function
  | "eq" :: p :: rest -> (match int_of_string_opt p with Some n -> Some (Ast.Port_eq n, rest) | None -> None)
  | "gt" :: p :: rest -> (match int_of_string_opt p with Some n -> Some (Ast.Port_gt n, rest) | None -> None)
  | "lt" :: p :: rest -> (match int_of_string_opt p with Some n -> Some (Ast.Port_lt n, rest) | None -> None)
  | "range" :: p :: q :: rest -> (
    match (int_of_string_opt p, int_of_string_opt q) with
    | Some a, Some b -> Some (Ast.Port_range (a, b), rest)
    | _ -> None)
  | _ -> None

(* Parse an address spec: any | host A | A W | A (bare address = host in
   standard ACL source position). *)
let addr_spec = function
  | "any" :: rest -> Some (Wildcard.any, rest)
  | "host" :: a :: rest -> Option.map (fun a -> (Wildcard.host a, rest)) (addr a)
  | a :: w :: rest when addr a <> None && addr w <> None ->
    Some (Wildcard.make (Option.get (addr a)) (Option.get (addr w)), rest)
  | a :: rest when addr a <> None -> Some (Wildcard.host (Option.get (addr a)), rest)
  | _ -> None

let known_ip_protocols =
  [ "ip"; "tcp"; "udp"; "icmp"; "igmp"; "pim"; "ospf"; "eigrp"; "gre"; "esp"; "ahp" ]

let standard_clause action rest =
  match addr_spec rest with
  | Some (src, []) ->
    Some
      {
        Ast.clause_action = action;
        src;
        ip_proto = None;
        dst = None;
        src_port = None;
        dst_port = None;
      }
  | _ -> None

let extended_clause action = function
  | proto :: rest when List.mem proto known_ip_protocols -> (
    match addr_spec rest with
    | None -> None
    | Some (src, rest) ->
      let src_port, rest =
        match port_match rest with Some (p, r) -> (Some p, r) | None -> (None, rest)
      in
      (match addr_spec rest with
       | None -> None
       | Some (dst, rest) ->
         let dst_port, rest =
           match port_match rest with Some (p, r) -> (Some p, r) | None -> (None, rest)
         in
         let rest = List.filter (fun w -> w <> "log" && w <> "established") rest in
         if rest <> [] then None
         else
           Some
             {
               Ast.clause_action = action;
               src;
               ip_proto = Some proto;
               dst = Some dst;
               src_port;
               dst_port;
             }))
  | _ -> None

let acl_clause ~extended action rest =
  (* IOS tolerates standard-form clauses under extended-range numbers (the
     paper's own Figure 2 does this with list 143); try the declared form
     first, then the other. *)
  if extended then
    match extended_clause action rest with
    | Some c -> Some c
    | None -> standard_clause action rest
  else begin
    match standard_clause action rest with
    | Some c -> Some c
    | None -> extended_clause action rest
  end

(* --- state mutation helpers ------------------------------------------ *)

let add_acl_clause st name ~extended clause =
  match List.assoc_opt name (List.map (fun (n, e, c) -> (n, (e, c))) st.acls) with
  | Some _ ->
    st.acls <-
      List.map
        (fun (n, e, c) -> if n = name then (n, e, clause :: c) else (n, e, c))
        st.acls
  | None -> st.acls <- (name, extended, [ clause ]) :: st.acls

let ensure_acl st name ~extended =
  if not (List.exists (fun (n, _, _) -> n = name) st.acls) then
    st.acls <- (name, extended, []) :: st.acls

let add_prefix_list_entry st name entry =
  if List.mem_assoc name st.prefix_lists then
    st.prefix_lists <-
      List.map
        (fun (n, es) -> if n = name then (n, entry :: es) else (n, es))
        st.prefix_lists
  else st.prefix_lists <- (name, [ entry ]) :: st.prefix_lists

let add_route_map_entry st name entry =
  if List.mem_assoc name st.route_maps then
    st.route_maps <-
      List.map (fun (n, es) -> if n = name then (n, entry :: es) else (n, es)) st.route_maps
  else st.route_maps <- (name, [ entry ]) :: st.route_maps

(* --- sub-command parsers ---------------------------------------------- *)

let interface_sub (i : Ast.interface) (l : Lexer.line) st : Ast.interface =
  match l.words with
  | [ "ip"; "address"; a; m ] -> (
    match addr2 a m with
    | Some am -> { i with if_address = Some am }
    | None ->
      reject st ~code:"parse-bad-address" ~what:"malformed interface address" l;
      i)
  | [ "ip"; "address"; a; m; "secondary" ] -> (
    match addr2 a m with
    | Some am -> { i with secondary_addresses = am :: i.secondary_addresses }
    | None ->
      reject st ~code:"parse-bad-address" ~what:"malformed secondary address" l;
      i)
  | [ "ip"; "unnumbered"; ifname ] -> { i with unnumbered = Some ifname }
  | [ "ip"; "access-group"; acl; dir ] -> (
    match direction_of_string dir with
    | Some d -> { i with access_groups = (acl, d) :: i.access_groups }
    | None ->
      reject st ~code:"parse-bad-direction" ~what:"access-group direction must be in|out" l;
      i)
  | "description" :: rest -> { i with if_description = Some (String.concat " " rest) }
  | [ "shutdown" ] -> { i with shutdown = true }
  | _ -> { i with if_extras = String.trim l.raw :: i.if_extras }

let redistribute_of_words words =
  let source_of = function
    | [ "connected" ] -> Some (Ast.From_connected, [])
    | [ "static" ] -> Some (Ast.From_static, [])
    | "connected" :: rest -> Some (Ast.From_connected, rest)
    | "static" :: rest -> Some (Ast.From_static, rest)
    | proto :: rest -> (
      match Ast.protocol_of_string proto with
      | None -> None
      | Some p -> (
        match rest with
        | id :: rest' when int_of_string_opt id <> None ->
          Some (Ast.From_protocol (p, int_of_string_opt id), rest')
        | _ -> Some (Ast.From_protocol (p, None), rest)))
    | [] -> None
  in
  match source_of words with
  | None -> None
  | Some (source, opts) ->
    let rec scan (r : Ast.redistribute) = function
      | [] -> Some r
      | "metric" :: v :: rest when int_of_string_opt v <> None ->
        scan { r with metric = int_of_string_opt v } rest
      | "metric-type" :: v :: rest when int_of_string_opt v <> None ->
        scan { r with metric_type = int_of_string_opt v } rest
      | "subnets" :: rest -> scan { r with subnets = true } rest
      | "route-map" :: name :: rest -> scan { r with route_map = Some name } rest
      | _ -> None
    in
    scan { source; metric = None; metric_type = None; route_map = None; subnets = false } opts

let network_of_words (protocol : Ast.protocol) words =
  match words with
  | [ a; "mask"; m ] -> (
    match addr2 a m with
    | Some (a, m) -> Option.map (fun p -> Ast.Net_mask p) (Prefix.of_addr_mask a m)
    | None -> None)
  | [ a; w; "area"; area ] when protocol = Ospf -> (
    match (addr2 a w, int_of_string_opt area) with
    | Some (a, w), Some area -> Some (Ast.Net_wildcard (Wildcard.make a w, Some area))
    | _ -> None)
  | [ a; w ] -> (
    match addr2 a w with
    | Some (a, w) -> Some (Ast.Net_wildcard (Wildcard.make a w, None))
    | None -> None)
  | [ a ] -> Option.map (fun a -> Ast.Net_classful a) (addr a)
  | _ -> None

let update_neighbor (p : Ast.router_process) peer f : Ast.router_process =
  let found = ref false in
  let neighbors =
    List.map
      (fun (n : Ast.neighbor) ->
        if Ipv4.equal n.peer peer then begin
          found := true;
          f n
        end
        else n)
      p.neighbors
  in
  if !found then { p with neighbors }
  else { p with neighbors = f (Ast.empty_neighbor peer 0) :: p.neighbors }

let router_sub (p : Ast.router_process) (l : Lexer.line) st : Ast.router_process =
  let bad_neighbor () =
    reject st ~code:"parse-bad-address" ~what:"malformed neighbor command" l;
    p
  in
  match l.words with
  | "network" :: rest -> (
    match network_of_words p.protocol rest with
    | Some n -> { p with networks = n :: p.networks }
    | None ->
      reject st ~code:"parse-bad-network" ~what:"malformed network statement" l;
      p)
  | "aggregate-address" :: a :: m :: rest
    when (rest = [] || rest = [ "summary-only" ]) -> (
    match addr2 a m with
    | Some (a, m) -> (
      match Prefix.of_addr_mask a m with
      | Some pr -> { p with aggregates = (pr, rest <> []) :: p.aggregates }
      | None ->
        reject st ~code:"parse-bad-aggregate" ~what:"aggregate mask is not contiguous" l;
        p)
    | None ->
      reject st ~code:"parse-bad-aggregate" ~what:"malformed aggregate-address" l;
      p)
  | "redistribute" :: rest -> (
    match redistribute_of_words rest with
    | Some r -> { p with redistributes = r :: p.redistributes }
    | None ->
      reject st ~code:"parse-bad-redistribute" ~what:"malformed redistribute" l;
      p)
  | [ "distribute-list"; acl; dir ] -> (
    match direction_of_string dir with
    | Some d ->
      { p with dlists = { Ast.dl_acl = acl; dl_direction = d; dl_interface = None } :: p.dlists }
    | None ->
      reject st ~code:"parse-bad-direction" ~what:"distribute-list direction must be in|out" l;
      p)
  | [ "distribute-list"; acl; dir; ifname ] -> (
    match direction_of_string dir with
    | Some d ->
      {
        p with
        dlists = { Ast.dl_acl = acl; dl_direction = d; dl_interface = Some ifname } :: p.dlists;
      }
    | None ->
      reject st ~code:"parse-bad-direction" ~what:"distribute-list direction must be in|out" l;
      p)
  | [ "neighbor"; ip; "remote-as"; asn ] -> (
    match (addr ip, int_of_string_opt asn) with
    | Some peer, Some remote_as -> update_neighbor p peer (fun n -> { n with remote_as })
    | _ -> bad_neighbor ())
  | [ "neighbor"; ip; "distribute-list"; acl; dir ] -> (
    match (addr ip, direction_of_string dir) with
    | Some peer, Some d ->
      update_neighbor p peer (fun n -> { n with nb_dlists = (acl, d) :: n.nb_dlists })
    | _ -> bad_neighbor ())
  | [ "neighbor"; ip; "prefix-list"; name; dir ] -> (
    match (addr ip, direction_of_string dir) with
    | Some peer, Some d ->
      update_neighbor p peer (fun n ->
          { n with nb_prefix_lists = (name, d) :: n.nb_prefix_lists })
    | _ -> bad_neighbor ())
  | [ "neighbor"; ip; "route-map"; name; dir ] -> (
    match (addr ip, direction_of_string dir) with
    | Some peer, Some d ->
      update_neighbor p peer (fun n -> { n with nb_route_maps = (name, d) :: n.nb_route_maps })
    | _ -> bad_neighbor ())
  | [ "neighbor"; ip; "update-source"; ifname ] -> (
    match addr ip with
    | Some peer -> update_neighbor p peer (fun n -> { n with update_source = Some ifname })
    | None -> bad_neighbor ())
  | [ "neighbor"; ip; "next-hop-self" ] -> (
    match addr ip with
    | Some peer -> update_neighbor p peer (fun n -> { n with next_hop_self = true })
    | None -> bad_neighbor ())
  | [ "neighbor"; ip; "route-reflector-client" ] -> (
    match addr ip with
    | Some peer -> update_neighbor p peer (fun n -> { n with route_reflector_client = true })
    | None -> bad_neighbor ())
  | "neighbor" :: ip :: "description" :: rest -> (
    match addr ip with
    | Some peer ->
      update_neighbor p peer (fun n -> { n with nb_description = Some (String.concat " " rest) })
    | None -> bad_neighbor ())
  | [ "passive-interface"; ifname ] ->
    { p with passive_interfaces = ifname :: p.passive_interfaces }
  | [ "default-information"; "originate" ] -> { p with default_originate = true }
  | [ "maximum-paths"; n ] -> { p with maximum_paths = int_of_string_opt n }
  | [ "router-id"; a ] -> (
    match addr a with
    | Some a -> { p with proc_router_id = Some a }
    | None ->
      reject st ~code:"parse-bad-address" ~what:"malformed router-id" l;
      p)
  | [ "no"; "auto-summary" ] | [ "auto-summary" ] | [ "no"; "synchronization" ] | [ "synchronization" ]
  | [ "version"; _ ] | [ "log-adjacency-changes" ] ->
    p (* common noise commands we accept and ignore *)
  | _ ->
    reject st ~severity:Diag.Warning ~code:"parse-unknown-subcommand"
      ~what:"unmodelled router sub-command" l;
    p

let route_map_sub (e : Ast.route_map_entry) (l : Lexer.line) st : Ast.route_map_entry =
  match l.words with
  | "match" :: "ip" :: "address" :: "prefix-list" :: pls when pls <> [] ->
    { e with match_prefix_lists = e.match_prefix_lists @ pls }
  | "match" :: "ip" :: "address" :: acls when acls <> [] ->
    { e with match_acls = e.match_acls @ acls }
  | "match" :: "tag" :: tags when tags <> [] && List.for_all (fun t -> int_of_string_opt t <> None) tags ->
    { e with match_tags = e.match_tags @ List.map int_of_string tags }
  | [ "set"; "tag"; t ] when int_of_string_opt t <> None -> { e with set_tag = int_of_string_opt t }
  | [ "set"; "metric"; m ] when int_of_string_opt m <> None ->
    { e with set_metric = int_of_string_opt m }
  | [ "set"; "local-preference"; l' ] when int_of_string_opt l' <> None ->
    { e with set_local_pref = int_of_string_opt l' }
  | _ ->
    reject st ~severity:Diag.Warning ~code:"parse-unknown-subcommand"
      ~what:"unmodelled route-map sub-command" l;
    e

(* --- mode machine ------------------------------------------------------ *)

type mode =
  | Top
  | In_interface of Ast.interface
  | In_router of Ast.router_process
  | In_named_acl of string * bool  (* name, extended *)
  | In_route_map of string * Ast.route_map_entry
  | In_ignored  (* administrivia block (line vty, aaa, ...) *)

let finish_mode st = function
  | Top | In_ignored -> ()
  | In_interface i -> st.interfaces <- i :: st.interfaces
  | In_router p -> st.processes <- p :: st.processes
  | In_named_acl _ -> ()
  | In_route_map (name, e) -> add_route_map_entry st name e

(* Top-level administrivia that carries no routing design.  Commands whose
   first word is here are accepted and ignored; those marked as blocks
   swallow their indented sub-commands too. *)
let ignored_block_heads =
  [ "line"; "banner"; "aaa"; "controller"; "class-map"; "policy-map"; "vrf"; "key" ]

let ignored_heads =
  [
    "version"; "end"; "service"; "snmp-server"; "ntp"; "logging"; "enable"; "clock";
    "username"; "alias"; "boot"; "memory-size"; "scheduler"; "spanning-tree"; "vtp";
    "cdp"; "tacacs-server"; "radius-server"; "exception"; "privilege"; "prompt";
    "hostname-prefix"; "mpls"; "card"; "redundancy"; "dial-peer"; "voice";
  ]

let top_level st (l : Lexer.line) : mode =
  match l.words with
  | [ "hostname"; h ] ->
    st.hostname <- Some h;
    Top
  | "interface" :: name :: rest ->
    let i = Ast.empty_interface name in
    In_interface { i with point_to_point = List.mem "point-to-point" rest }
  | [ "router"; proto ] -> (
    match Ast.protocol_of_string proto with
    | Some p -> In_router (Ast.empty_process p None)
    | None ->
      reject st ~code:"parse-bad-protocol" ~what:"unknown routing protocol" l;
      Top)
  | [ "router"; proto; id ] -> (
    match (Ast.protocol_of_string proto, int_of_string_opt id) with
    | Some p, Some id -> In_router (Ast.empty_process p (Some id))
    | _ ->
      reject st ~code:"parse-bad-protocol" ~what:"malformed router command" l;
      Top)
  | "access-list" :: name :: action :: rest -> (
    let act = match action with "permit" -> Some Ast.Permit | "deny" -> Some Ast.Deny | _ -> None in
    let extended = Ast.is_extended_number name in
    match act with
    | Some act -> (
      match acl_clause ~extended act rest with
      | Some c ->
        add_acl_clause st name ~extended c;
        Top
      | None ->
        reject st ~code:"parse-bad-acl-clause" ~what:"malformed access-list clause" l;
        Top)
    | None ->
      reject st ~code:"parse-bad-acl-clause" ~what:"access-list action must be permit|deny" l;
      Top)
  | "ip" :: "prefix-list" :: name :: rest -> (
    (* ip prefix-list NAME [seq N] permit|deny a.b.c.d/len [ge n] [le n] *)
    let seq, rest =
      match rest with
      | "seq" :: n :: rest' when int_of_string_opt n <> None -> (int_of_string n, rest')
      | _ -> (5 * (1 + List.length (try List.assoc name st.prefix_lists with Not_found -> [])), rest)
    in
    let entry =
      match rest with
      | action :: pfx :: opts -> (
        let act =
          match action with "permit" -> Some Ast.Permit | "deny" -> Some Ast.Deny | _ -> None
        in
        match (act, Prefix.of_string pfx) with
        | Some pl_action, Some pl_prefix -> (
          (* a mask length as IOS accepts it, 0 to 32 *)
          let length v =
            match int_of_string_opt v with Some n when n >= 0 && n <= 32 -> Some n | _ -> None
          in
          let rec scan ge le = function
            | [] -> Some (ge, le)
            | "ge" :: v :: rest' when length v <> None -> scan (length v) le rest'
            | "le" :: v :: rest' when length v <> None -> scan ge (length v) rest'
            | _ -> None
          in
          match scan None None opts with
          | Some (pl_ge, pl_le) ->
            Some { Ast.pl_seq = seq; pl_action; pl_prefix; pl_ge; pl_le }
          | None -> None)
        | _ -> None)
      | _ -> None
    in
    match entry with
    | Some e ->
      add_prefix_list_entry st name e;
      Top
    | None ->
      reject st ~code:"parse-bad-prefix-list" ~what:"malformed prefix-list entry" l;
      Top)
  | [ "ip"; "access-list"; kind; name ] when kind = "standard" || kind = "extended" ->
    let extended = kind = "extended" in
    ensure_acl st name ~extended;
    In_named_acl (name, extended)
  | [ "route-map"; name; action; seq ] -> (
    let act = match action with "permit" -> Some Ast.Permit | "deny" -> Some Ast.Deny | _ -> None in
    match (act, int_of_string_opt seq) with
    | Some act, Some seq ->
      In_route_map
        ( name,
          {
            Ast.seq;
            rm_action = act;
            match_acls = [];
            match_prefix_lists = [];
            match_tags = [];
            set_tag = None;
            set_metric = None;
            set_local_pref = None;
          } )
    | _ ->
      reject st ~code:"parse-bad-route-map" ~what:"malformed route-map header" l;
      Top)
  | "ip" :: "route" :: a :: m :: rest -> (
    match addr2 a m with
    | Some (a, m) -> (
      match Prefix.of_addr_mask a m with
      | None ->
        reject st ~code:"parse-bad-route" ~what:"static route mask is not contiguous" l;
        Top
      | Some dest -> (
        let nh, rest' =
          match rest with
          | nh :: r when addr nh <> None -> (Some (Ast.Nh_addr (Option.get (addr nh))), r)
          | nh :: r -> (Some (Ast.Nh_iface nh), r)
          | [] -> (None, [])
        in
        let distance =
          match rest' with [ d ] -> int_of_string_opt d | _ -> None
        in
        match nh with
        | Some sr_next_hop ->
          st.statics <- { Ast.sr_dest = dest; sr_next_hop; sr_distance = distance } :: st.statics;
          Top
        | None ->
          reject st ~code:"parse-bad-route" ~what:"static route has no next hop" l;
          Top))
    | None ->
      reject st ~code:"parse-bad-route" ~what:"malformed static route" l;
      Top)
  | "ip" :: "classless" :: _ | "no" :: _ -> Top (* accepted-and-ignored *)
  | "ip" :: sub :: _
    when List.mem sub
           [ "domain-name"; "name-server"; "host"; "subnet-zero"; "cef"; "http";
             "finger"; "source-route"; "tcp"; "ssh"; "ftp"; "bootp" ] ->
    Top
  | head :: _ when List.mem head ignored_block_heads -> In_ignored
  | head :: _ when List.mem head ignored_heads -> Top
  | _ ->
    reject st ~severity:Diag.Warning ~code:"parse-unknown-command" ~what:"unrecognized command" l;
    Top

let sub_level st mode (l : Lexer.line) : mode =
  match mode with
  | In_ignored -> In_ignored
  | Top ->
    reject st ~severity:Diag.Warning ~code:"parse-orphan-subcommand"
      ~what:"indented line outside any block" l;
    Top
  | In_interface i -> In_interface (interface_sub i l st)
  | In_router p -> In_router (router_sub p l st)
  | In_named_acl (name, extended) -> (
    match l.words with
    | action :: rest -> (
      let act =
        match action with "permit" -> Some Ast.Permit | "deny" -> Some Ast.Deny | _ -> None
      in
      match act with
      | Some act -> (
        match acl_clause ~extended act rest with
        | Some c ->
          add_acl_clause st name ~extended c;
          mode
        | None ->
          reject st ~code:"parse-bad-acl-clause" ~what:"malformed access-list clause" l;
          mode)
      | None ->
        reject st ~code:"parse-bad-acl-clause" ~what:"access-list action must be permit|deny" l;
        mode)
    | [] -> mode)
  | In_route_map (name, e) -> In_route_map (name, route_map_sub e l st)

(* One batched metrics update per file (not per line): parser counters
   are bumped from pool workers, so per-line updates would contend on
   the registry mutex. *)
let record_metrics metrics (ast : Ast.t) diags =
  match metrics with
  | None -> ()
  | Some _ ->
    Rd_util.Metrics.incr metrics "parse.files";
    Rd_util.Metrics.incr metrics ~by:ast.total_lines "parse.lines";
    Rd_util.Metrics.incr metrics ~by:ast.command_count "parse.commands";
    Rd_util.Metrics.incr metrics ~by:(List.length ast.unknown) "parse.unknown_lines";
    let per_code = Hashtbl.create 8 in
    List.iter
      (fun (d : Diag.t) ->
        Hashtbl.replace per_code d.code
          (1 + Option.value ~default:0 (Hashtbl.find_opt per_code d.code)))
      diags;
    Hashtbl.iter (fun code n -> Rd_util.Metrics.incr metrics ~by:n ("diag." ^ code)) per_code

let parse_with_diags ?file ?metrics ?cancel text =
  let st = fresh ?file () in
  let lines, (total_lines, command_count) = Lexer.lines_of_string text in
  let mode = ref Top in
  (* Poll the cancel token every few hundred lines: cheap enough to be
     invisible on real configs, frequent enough that even a single
     giant file stops within milliseconds of a deadline. *)
  let countdown = ref 0 in
  List.iter
    (fun (l : Lexer.line) ->
      decr countdown;
      if !countdown <= 0 then begin
        countdown := 256;
        Rd_util.Cancel.check ~site:"parse.lines" cancel
      end;
      if l.indent = 0 then begin
        finish_mode st !mode;
        mode := top_level st l
      end
      else mode := sub_level st !mode l)
    lines;
  finish_mode st !mode;
  let interfaces =
    List.rev_map
      (fun (i : Ast.interface) ->
        {
          i with
          Ast.secondary_addresses = List.rev i.secondary_addresses;
          access_groups = List.rev i.access_groups;
          if_extras = List.rev i.if_extras;
        })
      st.interfaces
  in
  let processes =
    List.rev_map
      (fun (p : Ast.router_process) ->
        {
          p with
          Ast.networks = List.rev p.networks;
          aggregates = List.rev p.aggregates;
          redistributes = List.rev p.redistributes;
          dlists = List.rev p.dlists;
          neighbors =
            List.rev_map
              (fun (n : Ast.neighbor) ->
                {
                  n with
                  Ast.nb_dlists = List.rev n.nb_dlists;
                  nb_route_maps = List.rev n.nb_route_maps;
                  nb_prefix_lists = List.rev n.nb_prefix_lists;
                })
              p.neighbors;
          passive_interfaces = List.rev p.passive_interfaces;
        })
      st.processes
  in
  let acls =
    List.rev_map
      (fun (name, extended, clauses) -> { Ast.acl_name = name; extended; clauses = List.rev clauses })
      st.acls
  in
  let route_maps =
    List.rev_map
      (fun (name, entries) ->
        let entries = List.sort (fun (a : Ast.route_map_entry) b -> Int.compare a.seq b.seq) entries in
        { Ast.rm_name = name; entries })
      st.route_maps
  in
  let prefix_lists =
    List.rev_map
      (fun (name, entries) ->
        let entries =
          List.sort (fun (a : Ast.prefix_list_entry) b -> Int.compare a.pl_seq b.pl_seq) entries
        in
        { Ast.pl_name = name; pl_entries = entries })
      st.prefix_lists
  in
  let ast =
    {
      Ast.hostname = st.hostname;
      interfaces;
      processes;
      acls;
      route_maps;
      prefix_lists;
      statics = List.rev st.statics;
      total_lines;
      command_count;
      unknown = List.rev st.unknown;
    }
  in
  let diags = Diag.to_list st.diag in
  record_metrics metrics ast diags;
  (ast, diags)

let parse text = fst (parse_with_diags text)
