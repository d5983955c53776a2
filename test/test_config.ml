(* Tests for rd_config: lexer, parser, printer round-trip, anonymizer,
   line locators. *)

open Rd_addr
open Rd_config

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let figure2 =
  {|interface Ethernet0
 ip address 66.251.75.144 255.255.255.128
 ip access-group 143 in
!
interface Serial1/0.5 point-to-point
 ip address 66.253.32.85 255.255.255.252
 ip access-group 143 in
 frame-relay interface-dlci 28
!
interface Hssi2/0 point-to-point
 ip address 66.253.160.67 255.255.255.252
!
router ospf 64
 redistribute connected metric-type 1 subnets
 redistribute bgp 64780 metric 1 subnets
 network 66.251.75.128 0.0.0.127 area 0
!
router ospf 128
 redistribute connected metric-type 1 subnets
 network 66.253.32.84 0.0.0.3 area 11
 distribute-list 44 in Serial1/0.5
 distribute-list 45 out
!
router bgp 64780
 redistribute ospf 64 route-map 8aTzlvBrbaW
 neighbor 66.253.160.68 remote-as 12762
 neighbor 66.253.160.68 distribute-list 4 in
 neighbor 66.253.160.68 distribute-list 3 out
!
access-list 143 deny 134.161.0.0 0.0.255.255
access-list 143 permit any
route-map 8aTzlvBrbaW deny 10
 match ip address 4
route-map 8aTzlvBrbaW permit 20
 match ip address 7
ip route 10.235.240.71 255.255.0.0 10.234.12.7
|}

(* --------------------------------------------------------------- lexer --- *)

let lines_of text = fst (Lexer.lines_of_string text)

let counts_of text = snd (Lexer.lines_of_string text)

let check_counts msg expected text =
  Alcotest.(check (pair int int)) msg expected (counts_of text)

let check_words msg expected text =
  Alcotest.(check (list (list string))) msg expected
    (List.map (fun (l : Lexer.line) -> l.words) (lines_of text))

let test_lexer_lines () =
  let lines = lines_of "a b\n c d\n!comment\n\n  e\n" in
  check_int "logical lines" 3 (List.length lines);
  let l1 = List.nth lines 0 in
  check_int "indent top" 0 l1.indent;
  Alcotest.(check (list string)) "words" [ "a"; "b" ] l1.words;
  check_int "indent sub" 1 (List.nth lines 1).indent;
  check_int "indent deep" 2 (List.nth lines 2).indent;
  check_int "lineno" 5 (List.nth lines 2).lineno

let test_lexer_stats () =
  check_counts "physical, commands" (5, 3) "a\n!\n\nb\nc\n";
  check_counts "empty text" (0, 0) "";
  check_int "empty text: no lines" 0 (List.length (lines_of ""));
  (* the segment after a final newline is not a line, the one before is *)
  check_counts "a lone newline" (1, 0) "\n";
  check_counts "no final newline" (2, 2) "a\nb";
  check_counts "CRLF blank line" (1, 0) "\r\n";
  check_counts "CRLF lines" (2, 2) "a\r\nb\r\n";
  check_counts "whitespace after the last newline" (2, 1) "a\n \t";
  check_counts "commands = logical lines" (4, 2) " ! x\nip x\n\t!\n y"

let test_lexer_tabs_and_cr () =
  let lines = lines_of "a\tb\r\n" in
  Alcotest.(check (list string)) "tab split" [ "a"; "b" ] (List.hd lines).words;
  check_string "CR trimmed from raw" "a\tb" (List.hd lines).raw;
  (* a tab indents by one, like a space *)
  Alcotest.(check (list int)) "tab indent" [ 1; 2; 3 ]
    (List.map (fun (l : Lexer.line) -> l.indent) (lines_of "\tx\n\t\tx\n \t x"));
  (* a '\r' inside a line is not whitespace: it stays in its word *)
  check_words "mid-line CR" [ [ "a\rb"; "c" ] ] "a\rb c\r";
  check_string "mid-line CR raw" "a\rb c" (List.hd (lines_of "a\rb c\r")).raw

let test_lexer_comments () =
  check_int "indented ! line is a comment" 0 (List.length (lines_of "  !x\n\t! y\n"));
  check_counts "indented ! lines counted as physical only" (2, 0) "  !x\n\t! y\n";
  (* only a leading '!' makes a comment; later ones are words *)
  check_words "a !b" [ [ "a"; "!b" ] ] "a !b";
  check_words "spaces and tabs between words" [ [ "a"; "b"; "c" ] ] " a  \t b\t\tc  "

let test_lexer_lineno_after_blanks () =
  Alcotest.(check (list int)) "physical line numbers" [ 4; 7 ]
    (List.map (fun (l : Lexer.line) -> l.lineno) (lines_of "\n\n \t\r\nx\n!\n\ny\n"))

let test_lexer_words () =
  Alcotest.(check (list string)) "words of a string" [ "ip"; "address"; "a\rb" ]
    (Lexer.words "\tip  address\ta\rb ");
  Alcotest.(check (list string)) "no words" [] (Lexer.words " \t ")

(* -------------------------------------------------------------- parser --- *)

let test_parse_figure2 () =
  let c = Parser.parse figure2 in
  check_int "interfaces" 3 (List.length c.interfaces);
  check_int "processes" 3 (List.length c.processes);
  check_int "acls" 1 (List.length c.acls);
  check_int "route maps" 1 (List.length c.route_maps);
  check_int "statics" 1 (List.length c.statics);
  check_int "unknown" 0 (List.length c.unknown);
  check_int "lines" 36 c.total_lines;
  check_int "commands" 30 c.command_count

let test_parse_interface_detail () =
  let c = Parser.parse figure2 in
  let eth = Option.get (Ast.find_interface c "Ethernet0") in
  (match eth.if_address with
   | Some (a, m) ->
     check_string "addr" "66.251.75.144" (Ipv4.to_string a);
     check_string "mask" "255.255.255.128" (Ipv4.to_string m)
   | None -> Alcotest.fail "no address");
  check_bool "acl in" true (eth.access_groups = [ ("143", Ast.In) ]);
  let serial = Option.get (Ast.find_interface c "Serial1/0.5") in
  check_bool "p2p" true serial.point_to_point;
  check_int "extras kept" 1 (List.length serial.if_extras);
  check_bool "subnet" true
    (Ast.interface_prefixes serial = [ Prefix.of_string_exn "66.253.32.84/30" ])

let test_parse_process_detail () =
  let c = Parser.parse figure2 in
  let ospf64 =
    List.find (fun (p : Ast.router_process) -> p.proc_id = Some 64 && p.protocol = Ast.Ospf) c.processes
  in
  check_int "redistributes" 2 (List.length ospf64.redistributes);
  (match ospf64.redistributes with
   | [ r1; r2 ] ->
     check_bool "connected first" true (r1.source = Ast.From_connected);
     check_bool "metric-type" true (r1.metric_type = Some 1);
     check_bool "subnets" true r1.subnets;
     check_bool "bgp source" true (r2.source = Ast.From_protocol (Ast.Bgp, Some 64780));
     check_bool "metric" true (r2.metric = Some 1)
   | _ -> Alcotest.fail "redistribute shape");
  (match ospf64.networks with
   | [ Ast.Net_wildcard (w, Some 0) ] ->
     check_string "network" "66.251.75.128 0.0.0.127" (Wildcard.to_string w)
   | _ -> Alcotest.fail "network shape");
  let ospf128 =
    List.find (fun (p : Ast.router_process) -> p.proc_id = Some 128) c.processes
  in
  check_int "dlists" 2 (List.length ospf128.dlists);
  (match ospf128.dlists with
   | [ d1; d2 ] ->
     check_bool "dlist iface" true (d1.dl_interface = Some "Serial1/0.5");
     check_bool "dlist in" true (d1.dl_direction = Ast.In);
     check_bool "dlist out" true (d2.dl_direction = Ast.Out && d2.dl_acl = "45")
   | _ -> Alcotest.fail "dlist shape");
  let bgp = List.find (fun (p : Ast.router_process) -> p.protocol = Ast.Bgp) c.processes in
  check_bool "asn" true (bgp.proc_id = Some 64780);
  (match bgp.neighbors with
   | [ n ] ->
     check_string "peer" "66.253.160.68" (Ipv4.to_string n.peer);
     check_int "remote-as" 12762 n.remote_as;
     check_int "neighbor dlists" 2 (List.length n.nb_dlists)
   | _ -> Alcotest.fail "neighbor shape");
  (match bgp.redistributes with
   | [ r ] -> check_bool "route-map ref" true (r.route_map = Some "8aTzlvBrbaW")
   | _ -> Alcotest.fail "bgp redistribute")

let test_parse_route_map_order () =
  let c = Parser.parse figure2 in
  let rm = Option.get (Ast.find_route_map c "8aTzlvBrbaW") in
  check_int "entries" 2 (List.length rm.entries);
  (match rm.entries with
   | [ e1; e2 ] ->
     check_int "seq order" 10 e1.seq;
     check_bool "deny first" true (e1.rm_action = Ast.Deny);
     check_bool "match acls" true (e1.match_acls = [ "4" ]);
     check_int "seq 20" 20 e2.seq;
     check_bool "permit second" true (e2.rm_action = Ast.Permit)
   | _ -> Alcotest.fail "entry shape")

let test_parse_static () =
  let c = Parser.parse figure2 in
  match c.statics with
  | [ s ] ->
    (* note the paper's own example has host bits set in the destination;
       the parser normalizes to the masked network *)
    check_string "dest" "10.235.0.0/16" (Prefix.to_string s.sr_dest);
    check_bool "nh" true (s.sr_next_hop = Ast.Nh_addr (Ipv4.of_string_exn "10.234.12.7"))
  | _ -> Alcotest.fail "static shape"

let test_parse_acl_variants () =
  let text =
    {|access-list 10 permit 10.0.0.0 0.255.255.255
access-list 10 deny any
access-list 110 permit tcp any host 10.1.1.1 eq 80
access-list 110 deny udp 10.0.0.0 0.0.0.255 range 100 200 any
access-list 110 permit ip any any
ip access-list standard mylist
 permit 192.168.0.0 0.0.255.255
 deny any
ip access-list extended webonly
 permit tcp any any eq 443
|}
  in
  let c = Parser.parse text in
  check_int "unknown" 0 (List.length c.unknown);
  check_int "acls" 4 (List.length c.acls);
  let a10 = Option.get (Ast.find_acl c "10") in
  check_bool "standard" false a10.extended;
  check_int "clauses 10" 2 (List.length a10.clauses);
  let a110 = Option.get (Ast.find_acl c "110") in
  check_bool "extended" true a110.extended;
  check_int "clauses 110" 3 (List.length a110.clauses);
  (match a110.clauses with
   | c1 :: c2 :: _ ->
     check_bool "proto tcp" true (c1.ip_proto = Some "tcp");
     check_bool "dst port" true (c1.dst_port = Some (Ast.Port_eq 80));
     check_bool "src range" true (c2.src_port = Some (Ast.Port_range (100, 200)))
   | _ -> Alcotest.fail "clause shape");
  let named = Option.get (Ast.find_acl c "mylist") in
  check_int "named clauses" 2 (List.length named.clauses);
  check_bool "webonly extended" true (Option.get (Ast.find_acl c "webonly")).extended

let test_parse_aggregate () =
  let text =
    {|router bgp 65000
 aggregate-address 10.8.0.0 255.255.254.0 summary-only
 aggregate-address 10.10.0.0 255.255.0.0
|}
  in
  let c = Parser.parse text in
  check_int "unknown" 0 (List.length c.unknown);
  let bgp = List.hd c.processes in
  (match bgp.aggregates with
   | [ (p1, true); (p2, false) ] ->
     check_string "first" "10.8.0.0/23" (Prefix.to_string p1);
     check_string "second" "10.10.0.0/16" (Prefix.to_string p2)
   | _ -> Alcotest.fail "aggregate shape");
  let c2 = Parser.parse (Printer.to_string c) in
  check_bool "roundtrip" true ((List.hd c2.processes).aggregates = bgp.aggregates)

let test_parse_prefix_lists () =
  let text =
    {|ip prefix-list CUSTOMER seq 5 permit 198.18.0.0/15 le 24
ip prefix-list CUSTOMER seq 10 deny 0.0.0.0/0 le 32
ip prefix-list NOSEQ permit 10.0.0.0/8
!
router bgp 65000
 neighbor 192.0.2.2 remote-as 7018
 neighbor 192.0.2.2 prefix-list CUSTOMER in
|}
  in
  let c = Parser.parse text in
  check_int "unknown" 0 (List.length c.unknown);
  check_int "two lists" 2 (List.length c.prefix_lists);
  let cust = Option.get (Ast.find_prefix_list c "CUSTOMER") in
  check_int "entries" 2 (List.length cust.pl_entries);
  (match cust.pl_entries with
   | [ e1; e2 ] ->
     check_int "seq" 5 e1.pl_seq;
     check_bool "le" true (e1.pl_le = Some 24);
     check_bool "deny all" true (e2.pl_action = Ast.Deny && e2.pl_le = Some 32)
   | _ -> Alcotest.fail "entry shape");
  let bgp = List.find (fun (p : Ast.router_process) -> p.protocol = Ast.Bgp) c.processes in
  (match bgp.neighbors with
   | [ n ] -> check_bool "neighbor ref" true (n.nb_prefix_lists = [ ("CUSTOMER", Ast.In) ])
   | _ -> Alcotest.fail "neighbor");
  (* round trip *)
  let c2 = Parser.parse (Printer.to_string c) in
  check_bool "roundtrip" true (c.prefix_lists = c2.prefix_lists)

let test_parse_tolerant () =
  (* unknown commands are preserved, never fatal *)
  let text = "hostname r1\nfrobnicate the widget\ninterface Ethernet0\n mystery subcommand\n" in
  let c = Parser.parse text in
  check_bool "hostname" true (c.hostname = Some "r1");
  check_int "top unknown" 1 (List.length c.unknown);
  let eth = Option.get (Ast.find_interface c "Ethernet0") in
  check_int "iface extra" 1 (List.length eth.if_extras)

let test_parse_ignored_blocks () =
  let text =
    "line vty 0 4\n password secret\n login\naaa new-model\n aaa authentication login default\nbanner motd hello\nntp server 1.2.3.4\n"
  in
  let c = Parser.parse text in
  check_int "all ignored" 0 (List.length c.unknown)

let test_parse_secondary_and_unnumbered () =
  let text =
    {|interface Ethernet0
 ip address 10.0.0.1 255.255.255.0
 ip address 10.0.1.1 255.255.255.0 secondary
!
interface Serial0/0
 ip unnumbered Ethernet0
|}
  in
  let c = Parser.parse text in
  let eth = Option.get (Ast.find_interface c "Ethernet0") in
  check_int "secondary" 1 (List.length eth.secondary_addresses);
  check_int "prefixes" 2 (List.length (Ast.interface_prefixes eth));
  let ser = Option.get (Ast.find_interface c "Serial0/0") in
  check_bool "unnumbered" true (ser.unnumbered = Some "Ethernet0")

let test_parse_rip_and_eigrp () =
  let text =
    {|router rip
 network 10.0.0.0
 redistribute static
!
router eigrp 99
 network 10.1.0.0 0.0.255.255
 passive-interface Ethernet0
 no auto-summary
|}
  in
  let c = Parser.parse text in
  check_int "unknown" 0 (List.length c.unknown);
  let rip = List.find (fun (p : Ast.router_process) -> p.protocol = Ast.Rip) c.processes in
  check_bool "rip no id" true (rip.proc_id = None);
  (match rip.networks with
   | [ Ast.Net_classful a ] -> check_string "classful" "10.0.0.0" (Ipv4.to_string a)
   | _ -> Alcotest.fail "rip network");
  let eigrp = List.find (fun (p : Ast.router_process) -> p.protocol = Ast.Eigrp) c.processes in
  check_bool "eigrp asn" true (eigrp.proc_id = Some 99);
  check_bool "passive" true (eigrp.passive_interfaces = [ "Ethernet0" ])

(* ------------------------------------------------------------- printer --- *)

let strip_bookkeeping (c : Ast.t) =
  (c.hostname, c.interfaces, c.processes, c.acls, c.route_maps, c.prefix_lists, c.statics)

let test_roundtrip_figure2 () =
  let c = Parser.parse figure2 in
  let c2 = Parser.parse (Printer.to_string c) in
  check_bool "roundtrip" true (strip_bookkeeping c = strip_bookkeeping c2)

let test_roundtrip_generated () =
  (* every archetype round-trips through text *)
  List.iteri
    (fun i arch ->
      let net = Rd_gen.Archetype.generate arch ~seed:(100 + i) ~n:14 ~index:i () in
      List.iter
        (fun (name, ast) ->
          let printed = Printer.to_string ast in
          let reparsed = Parser.parse printed in
          if strip_bookkeeping ast <> strip_bookkeeping reparsed then
            Alcotest.failf "round trip failed for %s (archetype %s)" name
              (Rd_gen.Archetype.to_string arch))
        (Rd_gen.Builder.to_configs net))
    [
      Rd_gen.Archetype.Backbone; Rd_gen.Archetype.Enterprise; Rd_gen.Archetype.Compartment;
      Rd_gen.Archetype.Restricted; Rd_gen.Archetype.Tier2; Rd_gen.Archetype.Hub_spoke;
      Rd_gen.Archetype.Igp_only;
    ]

let test_generated_parse_clean () =
  (* generated full texts (with boilerplate) leave no unknown lines *)
  let net = Rd_gen.Archetype.generate Rd_gen.Archetype.Enterprise ~seed:5 ~n:20 ~index:2 () in
  List.iter
    (fun (name, text) ->
      let c = Parser.parse text in
      if c.unknown <> [] then
        Alcotest.failf "unknown lines in %s: %s" name (snd (List.hd c.unknown)))
    (Rd_gen.Builder.to_texts net)

(* ---------------------------------------------------------- anonymizer --- *)

let test_anon_dictionary () =
  check_bool "keyword" true (Anonymizer.in_dictionary "redistribute");
  check_bool "iface" true (Anonymizer.in_dictionary "Serial1/0.5");
  check_bool "iface2" true (Anonymizer.in_dictionary "FastEthernet0/1");
  check_bool "free token" false (Anonymizer.in_dictionary "companyname");
  check_bool "not quite iface" false (Anonymizer.in_dictionary "Serialx")

let test_anon_tokens_stable () =
  let t = Anonymizer.create ~key:"k" in
  let a = Anonymizer.anonymize_token t "secretname" in
  check_string "stable" a (Anonymizer.anonymize_token t "secretname");
  check_int "length" 11 (String.length a);
  check_bool "differs" true (a <> Anonymizer.anonymize_token t "othername");
  let t2 = Anonymizer.create ~key:"other" in
  check_bool "keyed" true (a <> Anonymizer.anonymize_token t2 "secretname")

let test_anon_prefix_preserving () =
  let t = Anonymizer.create ~key:"k" in
  let pairs =
    [
      ("10.1.2.3", "10.1.2.4");
      ("10.1.2.3", "10.1.3.3");
      ("10.1.2.3", "10.200.0.0");
      ("10.1.2.3", "192.168.0.1");
      ("66.253.32.85", "66.253.32.86");
    ]
  in
  let common_bits a b =
    let x = Ipv4.to_int a lxor Ipv4.to_int b in
    let rec go i = if i = 32 || x land (1 lsl (31 - i)) <> 0 then i else go (i + 1) in
    go 0
  in
  List.iter
    (fun (sa, sb) ->
      let a = Ipv4.of_string_exn sa and b = Ipv4.of_string_exn sb in
      let a' = Anonymizer.anonymize_addr t a and b' = Anonymizer.anonymize_addr t b in
      check_int
        (Printf.sprintf "shared prefix preserved %s/%s" sa sb)
        (common_bits a b) (common_bits a' b'))
    pairs

let test_anon_as_numbers () =
  let t = Anonymizer.create ~key:"k" in
  check_int "private kept" 64780 (Anonymizer.anonymize_as t 64780);
  check_int "private kept 2" 65001 (Anonymizer.anonymize_as t 65001);
  let m = Anonymizer.anonymize_as t 7018 in
  check_bool "public remapped" true (m <> 7018);
  check_bool "into public range" true (m >= 1 && m <= 64511);
  check_int "stable" m (Anonymizer.anonymize_as t 7018)

let test_anon_as_injective () =
  (* a few thousand distinct public ASNs must stay distinct — the PRF's
     starting slots collide at birthday rates, and a collision merges two
     external peers into one (caught by the cross-check on the seven
     largest BGP study networks) *)
  let t = Anonymizer.create ~key:"k" in
  let seen = Hashtbl.create 4096 in
  for n = 1 to 4000 do
    let v = Anonymizer.anonymize_as t n in
    check_bool "in range" true (v >= 1 && v <= 64511);
    (match Hashtbl.find_opt seen v with
     | Some prev -> Alcotest.failf "AS %d and AS %d both anonymize to %d" prev n v
     | None -> Hashtbl.replace seen v n);
    check_int "memoized" v (Anonymizer.anonymize_as t n)
  done

let test_anon_as_space_exhausted () =
  (* 64,512 public inputs (1-64511 and 65535) for 64,511 slots: once every
     slot is handed out there is no free slot left to probe for, so the
     next new input is a budget trip *)
  let t = Anonymizer.create ~key:"k" in
  let seen = Hashtbl.create 65536 in
  for n = 1 to 64511 do
    Hashtbl.replace seen (Anonymizer.anonymize_as t n) ()
  done;
  check_int "every slot handed out" 64511 (Hashtbl.length seen);
  (match Anonymizer.anonymize_as t 65535 with
   | v -> Alcotest.failf "AS 65535 anonymized to %d with every slot taken" v
   | exception Rd_util.Limits.Budget_exceeded { site; budget } ->
     check_string "site" "anonymize.as-space" site;
     check_int "budget" 64511 budget);
  check_bool "mapped inputs still answer" true (Hashtbl.mem seen (Anonymizer.anonymize_as t 7018));
  check_int "private still kept" 65001 (Anonymizer.anonymize_as t 65001)

let test_anon_config_structure () =
  let t = Anonymizer.create ~key:"k" in
  let anon = Anonymizer.anonymize_config t figure2 in
  let c = Parser.parse anon in
  check_int "interfaces" 3 (List.length c.interfaces);
  check_int "processes" 3 (List.length c.processes);
  check_int "acls" 1 (List.length c.acls);
  check_int "unknown" 0 (List.length c.unknown);
  (* masks survive; addresses change *)
  let eth = Option.get (Ast.find_interface c "Ethernet0") in
  (match eth.if_address with
   | Some (a, m) ->
     check_string "mask kept" "255.255.255.128" (Ipv4.to_string m);
     check_bool "address changed" true (Ipv4.to_string a <> "66.251.75.144")
   | None -> Alcotest.fail "no address");
  (* private ASN survives in the BGP stanza *)
  let bgp = List.find (fun (p : Ast.router_process) -> p.protocol = Ast.Bgp) c.processes in
  check_bool "private asn kept" true (bgp.proc_id = Some 64780);
  (match bgp.neighbors with
   | [ n ] -> check_bool "public asn remapped" true (n.remote_as <> 12762)
   | _ -> Alcotest.fail "neighbor")

let test_anon_parse_round_trip_archetypes () =
  (* anonymized configs must re-parse to the same AST shape: same interface,
     process, ACL and route-map counts, for every archetype *)
  let t = Anonymizer.create ~key:"rt" in
  List.iter
    (fun arch ->
      let net = Rd_gen.Archetype.generate arch ~seed:9 ~n:10 ~index:3 () in
      List.iter
        (fun (name, text) ->
          let before = Parser.parse text in
          let after = Parser.parse (Anonymizer.anonymize_config t text) in
          let label what = Printf.sprintf "%s %s %s" (Rd_gen.Archetype.to_string arch) name what in
          check_int (label "interfaces") (List.length before.interfaces) (List.length after.interfaces);
          check_int (label "processes") (List.length before.processes) (List.length after.processes);
          check_int (label "acls") (List.length before.acls) (List.length after.acls);
          check_int (label "route-maps") (List.length before.route_maps) (List.length after.route_maps);
          check_int (label "statics") (List.length before.statics) (List.length after.statics);
          check_int (label "unknown") (List.length before.unknown) (List.length after.unknown))
        (Rd_gen.Builder.to_texts net))
    [
      Rd_gen.Archetype.Backbone; Rd_gen.Archetype.Enterprise; Rd_gen.Archetype.Compartment;
      Rd_gen.Archetype.Restricted; Rd_gen.Archetype.Tier2; Rd_gen.Archetype.Hub_spoke;
      Rd_gen.Archetype.Igp_only;
    ]

let test_anon_whitespace_preserved () =
  (* leading tabs / multi-space indents and blank lines survive verbatim,
     so indentation-sensitive structure re-parses identically *)
  let t = Anonymizer.create ~key:"ws" in
  let text = "interface Ethernet0\n\tip address 10.0.0.1 255.255.255.0\n   description up\n\nrouter ospf 1\n network 10.0.0.0 0.0.0.255 area 0\n" in
  let anon = Anonymizer.anonymize_config t text in
  let leading s =
    let n = ref 0 in
    while !n < String.length s && (s.[!n] = ' ' || s.[!n] = '\t') do incr n done;
    String.sub s 0 !n
  in
  List.iter2
    (fun a b -> check_string "indent" (leading a) (leading b))
    (String.split_on_char '\n' text) (String.split_on_char '\n' anon);
  check_int "line count" (List.length (String.split_on_char '\n' text))
    (List.length (String.split_on_char '\n' anon));
  (* exact trailing-newline behaviour, with and without *)
  check_bool "trailing newline kept" true (String.length anon > 0 && anon.[String.length anon - 1] = '\n');
  let no_nl = Anonymizer.anonymize_config t "hostname r1" in
  check_bool "no trailing newline added" true
    (String.length no_nl > 0 && no_nl.[String.length no_nl - 1] <> '\n');
  (* tab-indented sub-commands still parse as sub-commands *)
  let c = Parser.parse anon in
  check_int "iface parsed" 1 (List.length c.interfaces);
  check_bool "address survived as address" true
    ((List.hd c.interfaces).if_address <> None)

(* ------------------------------------------------------------ diagnostics --- *)

let test_parse_with_diags () =
  let text =
    "interface Ethernet0\n ip address 10.1.1.300 255.255.255.0\nrouter bgp 65001\n neighbor bogus remote-as 7\nfrobnicate widget\n"
  in
  let c, diags = Parser.parse_with_diags ~file:"r.cfg" text in
  (* unknown bookkeeping carries line numbers *)
  check_bool "unknown has linenos" true
    (List.exists (fun (n, raw) -> n = 5 && raw = "frobnicate widget") c.unknown);
  let e, w, _ = Diag.counts diags in
  check_int "errors" 2 e;
  check_bool "warnings include unknown command" true (w >= 1);
  let find code = List.filter (fun (d : Diag.t) -> d.code = code) diags in
  (match find "parse-bad-address" with
   | d :: _ ->
     check_bool "file stamped" true (d.file = Some "r.cfg");
     check_int "bad address line" 2 (Option.value d.line ~default:(-1))
   | [] -> Alcotest.fail "expected parse-bad-address");
  (match find "parse-unknown-command" with
   | d :: _ -> check_int "unknown line" 5 (Option.value d.line ~default:(-1))
   | [] -> Alcotest.fail "expected parse-unknown-command");
  (* plain parse is diag-free and equivalent *)
  let c2 = Parser.parse text in
  check_int "same unknown count" (List.length c.unknown) (List.length c2.unknown)

let test_parse_leading_zero_octets () =
  (* 010.0.0.1 must not silently parse as 10.0.0.1 *)
  let c, diags = Parser.parse_with_diags "interface Ethernet0\n ip address 010.0.0.1 255.255.255.0\n" in
  check_bool "address rejected" true ((List.hd c.interfaces).if_address = None);
  check_bool "diagnosed" true
    (List.exists (fun (d : Diag.t) -> d.code = "parse-bad-address") diags)

(* A ge/le past 32 is rejected as IOS rejects it: the line is dropped
   with a coded diag, so no analysis meets a route length above 32. *)
let test_parse_prefix_list_length_range () =
  let text =
    {|ip prefix-list P seq 10 permit 10.0.0.0/19 le 44
ip prefix-list P seq 20 permit 10.0.0.0/8 ge 33
ip prefix-list P seq 30 permit 10.0.0.0/8 ge 24 le 32
|}
  in
  let c, diags = Parser.parse_with_diags ~file:"r.cfg" text in
  let bad =
    List.filter_map
      (fun (d : Diag.t) -> if d.code = "parse-bad-prefix-list" then d.line else None)
      diags
  in
  Alcotest.(check (list int)) "rejected lines" [ 1; 2 ] (List.sort compare bad);
  match Ast.find_prefix_list c "P" with
  | Some pl ->
    Alcotest.(check (list int)) "in-range entry kept" [ 30 ]
      (List.map (fun (e : Ast.prefix_list_entry) -> e.pl_seq) pl.pl_entries)
  | None -> Alcotest.fail "prefix-list lost"

let test_anon_subnet_matching_preserved () =
  (* two interfaces on the same /30 must still share a subnet after
     anonymization — the linchpin of link inference on anonymized data *)
  let t = Anonymizer.create ~key:"k" in
  let a = Ipv4.of_string_exn "10.0.0.1" and b = Ipv4.of_string_exn "10.0.0.2" in
  let a' = Anonymizer.anonymize_addr t a and b' = Anonymizer.anonymize_addr t b in
  let p30 x = Prefix.make x 30 in
  check_bool "same /30 after" true (Prefix.equal (p30 a') (p30 b'))

(* -------------------------------------------------------------- locator --- *)

let locator_cfg =
  {|hostname r1
interface Ethernet0
 ip address 10.0.12.1 255.255.255.0
interface Serial0
 ip address 7.0.0.1 255.255.255.252
router ospf 1
 network 10.0.12.0 0.0.0.255 area 0
 redistribute static subnets
router bgp 65001
 neighbor 7.0.0.2 remote-as 65002
 neighbor 10.0.12.2 remote-as 65001
 redistribute ospf 1
access-list 10 permit 10.0.0.0 0.255.255.255
access-list 10 deny any
ip access-list extended EDGE
 permit tcp any any eq 22
 deny ip any any
ip prefix-list PL seq 5 permit 10.0.0.0/8
ip prefix-list PL seq 10 deny 0.0.0.0/0 le 32
ip prefix-list NOSEQ permit 192.168.0.0/16
route-map RM permit 10
 match ip address prefix-list PL
route-map RM deny 20
|}

(* Every lookup kind, hits and misses alike. *)
let locator_queries =
  let addr s = Option.get (Ipv4.of_string s) in
  [
    ("neighbor ext", fun t -> Locator.neighbor_line t (addr "7.0.0.2"));
    ("neighbor int", fun t -> Locator.neighbor_line t (addr "10.0.12.2"));
    ("neighbor miss", fun t -> Locator.neighbor_line t (addr "10.9.9.9"));
    ("redist static", fun t -> Locator.redistribute_line t ~proto:"ospf" ~source:"static");
    ("redist ospf", fun t -> Locator.redistribute_line t ~proto:"bgp" ~source:"ospf");
    ("redist miss", fun t -> Locator.redistribute_line t ~proto:"rip" ~source:"ospf");
    ("acl 10 #1", fun t -> Locator.acl_clause_line t "10" 1);
    ("acl EDGE #0", fun t -> Locator.acl_clause_line t "EDGE" 0);
    ("acl EDGE #1", fun t -> Locator.acl_clause_line t "EDGE" 1);
    ("acl EDGE #2", fun t -> Locator.acl_clause_line t "EDGE" 2);
    ("pl seq 10", fun t -> Locator.prefix_list_line t "PL" ~seq:(Some 10) ~index:0);
    ("pl index", fun t -> Locator.prefix_list_line t "NOSEQ" ~seq:None ~index:0);
    ("rm seq 20", fun t -> Locator.route_map_line t "RM" ~seq:(Some 20) ~index:0);
    ("rm index", fun t -> Locator.route_map_line t "RM" ~seq:(Some 99) ~index:0);
    ("if Serial0", fun t -> Locator.interface_address_line t "Serial0");
    ("if miss", fun t -> Locator.interface_address_line t "Loopback0");
  ]

let test_locator_lazy_table () =
  (* the reference: each query on a table of its own, indexed for it *)
  let fresh q = Locator.find (Locator.of_files ~files:[ ("r1.cfg", locator_cfg) ] ()) "r1.cfg" q in
  let table =
    Locator.of_files
      ~files:
        [
          ("r1.cfg", locator_cfg);
          ("never.cfg", figure2);
          ("dup.cfg", "hostname x\n");
          ("dup.cfg", locator_cfg);
        ]
      ()
  in
  let line = Alcotest.(check (option int)) in
  (* Twice over r1.cfg: the second pass reads the index the first built. *)
  List.iter
    (fun pass ->
      List.iter
        (fun (label, q) ->
          line (Printf.sprintf "%s (%s)" label pass) (fresh q) (Locator.find table "r1.cfg" q))
        locator_queries)
    [ "first lookup"; "second lookup" ];
  List.iter
    (fun (label, q) ->
      line (label ^ " (last text of a name)") (fresh q) (Locator.find table "dup.cfg" q))
    locator_queries;
  line "hits resolve" (Some 10)
    (Locator.find table "r1.cfg" (List.assoc "neighbor ext" locator_queries));
  line "clause in a named block" (Some 17)
    (Locator.find table "r1.cfg" (List.assoc "acl EDGE #1" locator_queries));
  line "unknown file" None (Locator.find table "missing.cfg" (fun _ -> Some 1));
  line "no files" None (Locator.find (Locator.of_files ()) "r1.cfg" (fun _ -> Some 1))

(* ------------------------------------------------------------ properties --- *)

(* Texts built from the lexer's delimiters and short words, with and
   without a final newline. *)
let arb_lexer_text =
  let piece =
    QCheck.Gen.(
      frequency
        [
          (3, oneofl [ " "; "\t"; "\r"; "!"; "\n" ]);
          (2, oneofl [ "a"; "ip"; "bgp"; "10.0.0.1"; "x!"; "\r\n" ]);
        ])
  in
  QCheck.make ~print:(Printf.sprintf "%S")
    QCheck.Gen.(
      let* pieces = list_size (int_bound 30) piece in
      let* final_newline = bool in
      let text = String.concat "" pieces in
      return (if final_newline then text ^ "\n" else text))

let prop_lexer_reference =
  QCheck.Test.make ~name:"one pass = reference lexer" ~count:2000 arb_lexer_text
    (fun text ->
      Lexer.lines_of_string text = (Lexer_ref.lines_of_string text, Lexer_ref.stats text))


(* printable-ish config-shaped fuzz: the parser must never raise and must
   account for every physical line *)
let arb_config_text =
  let keyword =
    QCheck.Gen.oneofl
      [
        "interface"; "router"; "ip"; "access-list"; "route-map"; "network"; "neighbor";
        "redistribute"; "hostname"; "!"; "no"; "address"; "ospf"; "bgp"; "permit"; "deny";
        "10.0.0.1"; "255.255.255.0"; "0.0.0.255"; "64512"; "area"; "Serial0/0"; "x"; "%$#@";
        "match"; "set"; "distribute-list"; "in"; "out"; "999999999999999999999"; "-5";
      ]
  in
  let line =
    QCheck.Gen.(
      let* indent = oneofl [ ""; " "; "  " ] in
      let* words = list_size (int_bound 6) keyword in
      return (indent ^ String.concat " " words))
  in
  QCheck.make
    ~print:(fun s -> s)
    QCheck.Gen.(
      let* lines = list_size (int_bound 40) line in
      return (String.concat "\n" lines))

let prop_parser_total =
  QCheck.Test.make ~name:"parser never raises on fuzz" ~count:500 arb_config_text (fun text ->
      let c = Parser.parse text in
      c.total_lines >= 0 && c.command_count >= 0)

let prop_parser_accounts_lines =
  QCheck.Test.make ~name:"parser accounts for physical lines" ~count:200 arb_config_text
    (fun text ->
      let c = Parser.parse text in
      let physical =
        match List.rev (String.split_on_char '\n' text) with
        | "" :: rest -> List.length rest
        | all -> List.length all
      in
      c.total_lines = physical)

let prop_anonymizer_total =
  QCheck.Test.make ~name:"anonymizer never raises on fuzz" ~count:200 arb_config_text
    (fun text ->
      let t = Anonymizer.create ~key:"fuzz" in
      let anon = Anonymizer.anonymize_config t text in
      (* anonymizing is line-preserving for non-comment lines *)
      List.length (String.split_on_char '\n' anon)
      = List.length (String.split_on_char '\n' text)
      || String.length anon >= 0)

let prop_anonymize_idempotent_tokens =
  QCheck.Test.make ~name:"token anonymization stable across calls" ~count:200
    QCheck.(string_of_size (Gen.int_range 1 20))
    (fun s ->
      let t = Anonymizer.create ~key:"k" in
      Anonymizer.anonymize_token t s = Anonymizer.anonymize_token t s)

let prop_prefix_preservation =
  (* the tcpdpriv property on random address pairs *)
  QCheck.Test.make ~name:"prefix preservation on random pairs" ~count:300
    QCheck.(pair (int_bound 0xFFFFFF) (int_bound 0xFFFFFF))
    (fun (x, y) ->
      let t = Anonymizer.create ~key:"p" in
      let a = Ipv4.of_int (x * 251 mod (1 lsl 32 - 1)) in
      let b = Ipv4.of_int (y * 17 mod (1 lsl 32 - 1)) in
      let common u v =
        let z = Ipv4.to_int u lxor Ipv4.to_int v in
        let rec go i = if i = 32 || z land (1 lsl (31 - i)) <> 0 then i else go (i + 1) in
        go 0
      in
      common a b = common (Anonymizer.anonymize_addr t a) (Anonymizer.anonymize_addr t b))

(* The prefix-preserving map written out bit by bit, with no memoization:
   output bit i is input bit i xored with the low bit of the keyed PRF of
   the first i input bits, except the leading class bits.  The PRF is the
   reference SHA-1's, so the oracle shares no code with the map it checks. *)
let reference_anonymize_addr ~key a =
  let x = Ipv4.to_int a in
  let class_bits =
    if x lsr 31 = 0 then 1 else if x lsr 30 = 0b10 then 2 else if x lsr 29 = 0b110 then 3 else 4
  in
  let out = ref 0 in
  for i = 0 to 31 do
    let flip =
      if i < class_bits then 0
      else
        let prefix = if i = 0 then 0 else x lsr (32 - i) in
        Int64.to_int (Int64.logand (Sha1_ref.prf ~key (Printf.sprintf "ip:%d:%d" i prefix)) 1L)
    in
    out := (!out lsl 1) lor (((x lsr (31 - i)) land 1) lxor flip)
  done;
  Ipv4.of_int !out

(* Random addresses, half of them inside one /16 so the per-prefix flip
   cache is exercised on shared prefixes.  Each list is mapped by a fresh
   state (cold), then again by the same state (warm). *)
let prop_anonymize_addr_reference =
  QCheck.Test.make ~name:"memoized address map = per-bit reference, cold and warm" ~count:50
    QCheck.(list_of_size (Gen.int_range 1 40) (pair bool (int_bound 0xFFFFFFF)))
    (fun draws ->
      let addrs =
        List.map
          (fun (local, r) ->
            Ipv4.of_int
              (if local then 0x0A2A0000 lor (r land 0xFFFF)
               else (r * 16 + r mod 16) land 0xFFFFFFFF))
          draws
      in
      let t = Anonymizer.create ~key:"memo" in
      let expected = List.map (reference_anonymize_addr ~key:"memo") addrs in
      let cold = List.map (Anonymizer.anonymize_addr t) addrs in
      let warm = List.map (Anonymizer.anonymize_addr t) (List.rev addrs) in
      List.for_all2 Ipv4.equal expected cold && List.for_all2 Ipv4.equal (List.rev expected) warm)

let prop_roundtrip_random_enterprise =
  QCheck.Test.make ~name:"generated networks round trip (random seeds)" ~count:15
    QCheck.(int_bound 10000)
    (fun seed ->
      let net = Rd_gen.Archetype.generate Rd_gen.Archetype.Enterprise ~seed ~n:10 ~index:(seed mod 7) () in
      List.for_all
        (fun (_, ast) ->
          strip_bookkeeping ast = strip_bookkeeping (Parser.parse (Printer.to_string ast)))
        (Rd_gen.Builder.to_configs net))

let () =
  Alcotest.run "rd_config"
    [
      ( "lexer",
        [
          Alcotest.test_case "logical lines" `Quick test_lexer_lines;
          Alcotest.test_case "stats" `Quick test_lexer_stats;
          Alcotest.test_case "tabs and CR" `Quick test_lexer_tabs_and_cr;
          Alcotest.test_case "comments and words" `Quick test_lexer_comments;
          Alcotest.test_case "lineno after blank lines" `Quick test_lexer_lineno_after_blanks;
          Alcotest.test_case "words" `Quick test_lexer_words;
          QCheck_alcotest.to_alcotest prop_lexer_reference;
        ] );
      ( "parser",
        [
          Alcotest.test_case "figure 2 configlet" `Quick test_parse_figure2;
          Alcotest.test_case "interface details" `Quick test_parse_interface_detail;
          Alcotest.test_case "process details" `Quick test_parse_process_detail;
          Alcotest.test_case "route-map ordering" `Quick test_parse_route_map_order;
          Alcotest.test_case "static routes" `Quick test_parse_static;
          Alcotest.test_case "acl variants" `Quick test_parse_acl_variants;
          Alcotest.test_case "prefix lists" `Quick test_parse_prefix_lists;
          Alcotest.test_case "aggregate-address" `Quick test_parse_aggregate;
          Alcotest.test_case "tolerant of unknown" `Quick test_parse_tolerant;
          Alcotest.test_case "ignored admin blocks" `Quick test_parse_ignored_blocks;
          Alcotest.test_case "secondary and unnumbered" `Quick test_parse_secondary_and_unnumbered;
          Alcotest.test_case "rip and eigrp" `Quick test_parse_rip_and_eigrp;
        ] );
      ( "printer",
        [
          Alcotest.test_case "figure 2 round trip" `Quick test_roundtrip_figure2;
          Alcotest.test_case "all archetypes round trip" `Quick test_roundtrip_generated;
          Alcotest.test_case "generated text parses clean" `Quick test_generated_parse_clean;
        ] );
      ( "anonymizer",
        [
          Alcotest.test_case "dictionary" `Quick test_anon_dictionary;
          Alcotest.test_case "token hashing stable" `Quick test_anon_tokens_stable;
          Alcotest.test_case "prefix preservation" `Quick test_anon_prefix_preserving;
          Alcotest.test_case "AS number policy" `Quick test_anon_as_numbers;
          Alcotest.test_case "AS mapping injective" `Quick test_anon_as_injective;
          Alcotest.test_case "AS space exhausted" `Quick test_anon_as_space_exhausted;
          Alcotest.test_case "structure preserved" `Quick test_anon_config_structure;
          Alcotest.test_case "subnet matching preserved" `Quick test_anon_subnet_matching_preserved;
          Alcotest.test_case "anonymize->parse round trip (archetypes)" `Quick
            test_anon_parse_round_trip_archetypes;
          Alcotest.test_case "whitespace preserved" `Quick test_anon_whitespace_preserved;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "parse_with_diags codes and lines" `Quick test_parse_with_diags;
          Alcotest.test_case "leading-zero octets rejected" `Quick test_parse_leading_zero_octets;
          Alcotest.test_case "prefix-list ge/le past 32" `Quick test_parse_prefix_list_length_range;
        ] );
      ("locator", [ Alcotest.test_case "lazy table = of_text" `Quick test_locator_lazy_table ]);
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_parser_total;
            prop_parser_accounts_lines;
            prop_anonymizer_total;
            prop_anonymize_idempotent_tokens;
            prop_prefix_preservation;
            prop_anonymize_addr_reference;
            prop_roundtrip_random_enterprise;
          ] );
    ]
