(* Tests for rd_policy: ACL evaluation, route maps, route filters, filter
   statistics. *)

open Rd_addr
open Rd_config

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let ip = Ipv4.of_string_exn
let pfx = Prefix.of_string_exn

let mk_std name clauses =
  {
    Ast.acl_name = name;
    extended = false;
    clauses =
      List.map
        (fun (action, p) ->
          {
            Ast.clause_action = action;
            src = Wildcard.of_prefix (pfx p);
            ip_proto = None;
            dst = None;
            src_port = None;
            dst_port = None;
          })
        clauses;
  }

(* ------------------------------------------------------------------ acl --- *)

let test_acl_first_match () =
  let acl =
    mk_std "1" [ (Ast.Deny, "10.1.0.0/16"); (Ast.Permit, "10.0.0.0/8"); (Ast.Deny, "0.0.0.0/0") ]
  in
  check_bool "deny wins first" true (Rd_policy.Acl.eval_addr acl (ip "10.1.2.3") = Ast.Deny);
  check_bool "permit second" true (Rd_policy.Acl.eval_addr acl (ip "10.2.0.0") = Ast.Permit);
  check_bool "deny catch" true (Rd_policy.Acl.eval_addr acl (ip "11.0.0.0") = Ast.Deny)

let test_acl_implicit_deny () =
  let acl = mk_std "2" [ (Ast.Permit, "10.0.0.0/8") ] in
  check_bool "implicit deny" true (Rd_policy.Acl.eval_addr acl (ip "11.0.0.0") = Ast.Deny);
  check_bool "empty denies" true (Rd_policy.Acl.eval_addr (mk_std "3" []) (ip "1.1.1.1") = Ast.Deny)

let test_acl_permitted_set () =
  let acl =
    mk_std "5" [ (Ast.Deny, "10.1.0.0/16"); (Ast.Permit, "10.0.0.0/8") ]
  in
  let s = Rd_policy.Acl.permitted_set acl in
  check_bool "permits most" true (Prefix_set.mem (ip "10.2.0.0") s);
  check_bool "denied carved out" false (Prefix_set.mem (ip "10.1.2.3") s);
  check_int "count" (Prefix.size (pfx "10.0.0.0/8") - Prefix.size (pfx "10.1.0.0/16"))
    (Prefix_set.count_addresses s);
  (* first-match order matters: permit-then-deny permits everything *)
  let acl2 = mk_std "6" [ (Ast.Permit, "10.0.0.0/8"); (Ast.Deny, "10.1.0.0/16") ] in
  check_bool "order matters" true
    (Prefix_set.mem (ip "10.1.2.3") (Rd_policy.Acl.permitted_set acl2))

let mk_wild name clauses =
  {
    Ast.acl_name = name;
    extended = false;
    clauses =
      List.map
        (fun (action, base, wild) ->
          {
            Ast.clause_action = action;
            src = Wildcard.make (ip base) (ip wild);
            ip_proto = None;
            dst = None;
            src_port = None;
            dst_port = None;
          })
        clauses;
  }

let test_acl_noncontiguous_wildcard () =
  (* 0.0.255.0: third octet free, fourth fixed — used to raise
     Invalid_argument, must now produce the exact set *)
  let acl = mk_wild "nc" [ (Ast.Permit, "10.1.0.7", "0.0.255.0") ] in
  let s = Rd_policy.Acl.permitted_set acl in
  check_bool "member" true (Prefix_set.mem (ip "10.1.200.7") s);
  check_bool "non-member" false (Prefix_set.mem (ip "10.1.200.8") s);
  check_int "exactly 256 hosts" 256 (Prefix_set.count_addresses s)

let test_acl_wildcard_over_approx () =
  (* 23 scattered wildcard bits exceed the enumeration cap: the set is
     over-approximated (never under) and the ACL is not exact *)
  let acl = mk_wild "big" [ (Ast.Permit, "10.0.0.1", "0.255.255.254") ] in
  let s = Rd_policy.Acl.permitted_set acl in
  check_bool "inexact" false (Rd_policy.Acl.exact acl);
  check_bool "12 scattered bits are exact" true
    (Rd_policy.Acl.exact (mk_wild "edge" [ (Ast.Permit, "10.0.0.1", "0.0.31.254") ]));
  (* every address the wildcard matches is in the over-approximation *)
  check_bool "superset" true (Prefix_set.mem (ip "10.7.7.1") s)

(* permitted_set vs brute-force first-match evaluation, on ACLs whose
   wildcards live in the low 9 bits (so membership can be enumerated) *)
let arb_nc_acl =
  QCheck.make
    ~print:(fun (acl : Ast.acl) ->
      String.concat "; "
        (List.map
           (fun (c : Ast.acl_clause) ->
             Printf.sprintf "%s %s"
               (match c.clause_action with Ast.Permit -> "permit" | Ast.Deny -> "deny")
               (Wildcard.to_string c.src))
           acl.clauses))
    QCheck.Gen.(
      let clause =
        let* permit = bool in
        let* base = int_bound 511 in
        let* wild = int_bound 511 in
        return
          {
            Ast.clause_action = (if permit then Ast.Permit else Ast.Deny);
            src = Wildcard.make (Ipv4.of_int (0x0A000000 lor base)) (Ipv4.of_int wild);
            ip_proto = None;
            dst = None;
            src_port = None;
            dst_port = None;
          }
      in
      let* clauses = list_size (int_range 1 4) clause in
      return { Ast.acl_name = "prop"; extended = false; clauses })

let prop_acl_set_matches_eval =
  QCheck.Test.make ~name:"permitted_set = brute-force eval (non-contiguous wildcards)"
    ~count:100 arb_nc_acl (fun acl ->
      let s = Rd_policy.Acl.permitted_set acl in
      List.for_all
        (fun i ->
          let a = Ipv4.of_int (0x0A000000 lor i) in
          Prefix_set.mem a s = (Rd_policy.Acl.eval_addr acl a = Ast.Permit))
        (List.init 512 Fun.id)
      && not (Prefix_set.mem (ip "11.0.0.1") s))

(* ACLs whose clauses carry 0-20 scattered wild bits: [exact] agrees
   with the per-clause exactness flag on both sides of the 12-bit cap. *)
let prop_acl_exact =
  let clause =
    QCheck.Gen.(
      let* k = int_range 0 20 in
      let* above = shuffle_l (List.init 31 (fun i -> i + 1)) in
      let wild =
        List.fold_left (fun acc p -> acc lor (1 lsl p)) 0 (List.filteri (fun i _ -> i < k) above)
      in
      return
        {
          Ast.clause_action = Ast.Permit;
          src = Wildcard.make (Ipv4.of_int 0x0A000000) (Ipv4.of_int wild);
          ip_proto = None;
          dst = None;
          src_port = None;
          dst_port = None;
        })
  in
  QCheck.Test.make ~name:"exact = every clause source set exact" ~count:100
    (QCheck.make
       QCheck.Gen.(
         map
           (fun clauses -> { Ast.acl_name = "prop"; extended = false; clauses })
           (list_size (int_range 1 3) clause)))
    (fun acl ->
      Rd_policy.Acl.exact acl
      = List.for_all (fun c -> snd (Rd_policy.Acl.clause_src_set c)) acl.clauses)

let test_acl_route_semantics () =
  let acl = mk_std "7" [ (Ast.Permit, "10.0.0.0/8") ] in
  check_bool "route matched by network addr" true
    (Rd_policy.Acl.eval_route acl (pfx "10.5.0.0/16") = Ast.Permit);
  check_bool "outside denied" true (Rd_policy.Acl.eval_route acl (pfx "11.0.0.0/8") = Ast.Deny)

(* ------------------------------------------------------------ route_map --- *)

let lookup acls name = List.find_opt (fun (a : Ast.acl) -> a.acl_name = name) acls

let test_route_map_eval () =
  let acls = [ mk_std "1" [ (Ast.Permit, "10.0.0.0/8") ] ] in
  let rm =
    {
      Ast.rm_name = "m";
      entries =
        [
          {
            Ast.seq = 10;
            rm_action = Ast.Deny;
            match_acls = [ "1" ];
            match_prefix_lists = [];
            match_tags = [];
            set_tag = None;
            set_metric = None;
            set_local_pref = None;
          };
          {
            Ast.seq = 20;
            rm_action = Ast.Permit;
            match_acls = [];
            match_prefix_lists = [];
            match_tags = [];
            set_tag = Some 77;
            set_metric = Some 5;
            set_local_pref = None;
          };
        ];
    }
  in
  let eval net = Rd_policy.Route_map.eval rm ~lookup_acl:(lookup acls) { net; tag = None; metric = None } in
  (match eval (pfx "10.1.0.0/16") with
   | Rd_policy.Route_map.Denied -> ()
   | _ -> Alcotest.fail "expected deny");
  (match eval (pfx "192.168.0.0/16") with
   | Rd_policy.Route_map.Permitted r ->
     check_bool "tag set" true (r.tag = Some 77);
     check_bool "metric set" true (r.metric = Some 5)
   | _ -> Alcotest.fail "expected permit")

let test_route_map_tag_match () =
  let rm =
    {
      Ast.rm_name = "m";
      entries =
        [
          {
            Ast.seq = 10;
            rm_action = Ast.Permit;
            match_acls = [];
            match_prefix_lists = [];
            match_tags = [ 100; 200 ];
            set_tag = None;
            set_metric = None;
            set_local_pref = None;
          };
        ];
    }
  in
  let eval tag =
    Rd_policy.Route_map.eval rm ~lookup_acl:(fun _ -> None)
      { net = pfx "10.0.0.0/8"; tag; metric = None }
  in
  check_bool "tag hit" true (eval (Some 100) <> Rd_policy.Route_map.Denied);
  check_bool "tag miss" true (eval (Some 5) = Rd_policy.Route_map.Denied);
  check_bool "untagged miss" true (eval None = Rd_policy.Route_map.Denied)

let test_route_map_falloff_denies () =
  let acls = [ mk_std "1" [ (Ast.Permit, "10.0.0.0/8") ] ] in
  let rm =
    {
      Ast.rm_name = "m";
      entries =
        [
          {
            Ast.seq = 10;
            rm_action = Ast.Permit;
            match_acls = [ "1" ];
            match_prefix_lists = [];
            match_tags = [];
            set_tag = None;
            set_metric = None;
            set_local_pref = None;
          };
        ];
    }
  in
  check_bool "fall off denies" true
    (Rd_policy.Route_map.eval rm ~lookup_acl:(lookup acls)
       { net = pfx "11.0.0.0/8"; tag = None; metric = None }
     = Rd_policy.Route_map.Denied)

let test_route_map_permitted_set () =
  let acls =
    [ mk_std "1" [ (Ast.Permit, "10.0.0.0/8") ]; mk_std "2" [ (Ast.Permit, "192.168.0.0/16") ] ]
  in
  let rm =
    {
      Ast.rm_name = "m";
      entries =
        [
          {
            Ast.seq = 10;
            rm_action = Ast.Deny;
            match_acls = [ "2" ];
            match_prefix_lists = [];
            match_tags = [];
            set_tag = None;
            set_metric = None;
            set_local_pref = None;
          };
          {
            Ast.seq = 20;
            rm_action = Ast.Permit;
            match_acls = [ "1"; "2" ];
            match_prefix_lists = [];
            match_tags = [];
            set_tag = None;
            set_metric = None;
            set_local_pref = None;
          };
        ];
    }
  in
  let s = Rd_policy.Route_map.permitted_set rm ~lookup_acl:(lookup acls) () in
  check_bool "10/8 in" true (Prefix_set.mem (ip "10.0.0.1") s);
  check_bool "192.168 denied earlier" false (Prefix_set.mem (ip "192.168.1.1") s);
  check_bool "others out" false (Prefix_set.mem (ip "8.8.8.8") s)

let mk_entry ?(acls = []) ?(tags = []) seq action =
  {
    Ast.seq;
    rm_action = action;
    match_acls = acls;
    match_prefix_lists = [];
    match_tags = tags;
    set_tag = None;
    set_metric = None;
    set_local_pref = None;
  }

(* A deny entry that also matches on tag must claim nothing from the
   prefix-set view: an untagged route falls through it to the permit
   below, so excluding its prefixes would under-approximate.  This is
   the sim⊆static containment bug the crosscheck oracle flags. *)
let test_route_map_deny_tag_over_approx () =
  let acls = [ mk_std "1" [ (Ast.Permit, "10.0.0.0/8") ] ] in
  let rm =
    {
      Ast.rm_name = "m";
      entries = [ mk_entry ~acls:[ "1" ] ~tags:[ 77 ] 10 Ast.Deny; mk_entry 20 Ast.Permit ];
    }
  in
  let s = Rd_policy.Route_map.permitted_set rm ~lookup_acl:(lookup acls) () in
  check_bool "deny+tag claims nothing" true (Prefix_set.mem (ip "10.1.2.3") s);
  check_bool "still over-approximates" true (Prefix_set.is_full s);
  (* an untagged deny still claims its set *)
  let rm' =
    {
      Ast.rm_name = "m2";
      entries = [ mk_entry ~acls:[ "1" ] 10 Ast.Deny; mk_entry 20 Ast.Permit ];
    }
  in
  let s' = Rd_policy.Route_map.permitted_set rm' ~lookup_acl:(lookup acls) () in
  check_bool "plain deny claims" false (Prefix_set.mem (ip "10.1.2.3") s')

let test_route_map_tag_approx_diag () =
  let acls = [ mk_std "1" [ (Ast.Permit, "10.0.0.0/8") ] ] in
  let rm =
    {
      Ast.rm_name = "tagged";
      entries =
        [ mk_entry ~acls:[ "1" ] ~tags:[ 5 ] 10 Ast.Permit; mk_entry ~tags:[ 6 ] 20 Ast.Deny ];
    }
  in
  check_bool "tag match is inexact" false
    (Rd_policy.Route_map.exact rm ~lookup_acl:(lookup acls));
  let s = Rd_policy.Route_map.permitted_set rm ~lookup_acl:(lookup acls) () in
  check_bool "10/8 permitted" true (Prefix_set.mem (ip "10.0.0.1") s);
  (* without tag matches the map is exact exactly when its ACLs are *)
  let untagged = { rm with entries = [ mk_entry ~acls:[ "1"; "big" ] 10 Ast.Permit ] } in
  check_bool "exact acls" true (Rd_policy.Route_map.exact untagged ~lookup_acl:(lookup acls));
  let big = mk_wild "big" [ (Ast.Permit, "10.0.0.1", "0.255.255.254") ] in
  check_bool "inexact acl" false
    (Rd_policy.Route_map.exact untagged ~lookup_acl:(lookup (big :: acls)))

(* ---------------------------------------------------------- route_filter --- *)

let test_route_filter () =
  let acl = mk_std "1" [ (Ast.Permit, "10.0.0.0/8") ] in
  let f = Rd_policy.Route_filter.of_prefix_set (Rd_policy.Acl.permitted_set acl) in
  check_bool "permits" true (Rd_policy.Route_filter.permits f (pfx "10.1.0.0/16"));
  check_bool "denies" false (Rd_policy.Route_filter.permits f (pfx "11.0.0.0/8"));
  check_bool "everything" true
    (Rd_policy.Route_filter.is_unrestricted Rd_policy.Route_filter.everything);
  let g =
    Rd_policy.Route_filter.of_prefix_set
      (Rd_policy.Acl.permitted_set (mk_std "2" [ (Ast.Permit, "10.1.0.0/16") ]))
  in
  let fg = Rd_policy.Route_filter.conj f g in
  check_bool "conj narrows" true (Rd_policy.Route_filter.permits fg (pfx "10.1.2.0/24"));
  check_bool "conj excludes" false (Rd_policy.Route_filter.permits fg (pfx "10.2.0.0/16"));
  let applied =
    Rd_policy.Route_filter.apply f (Prefix_set.of_prefixes [ pfx "10.1.0.0/16"; pfx "11.0.0.0/8" ])
  in
  check_bool "apply keeps" true (Prefix_set.mem (ip "10.1.0.0") applied);
  check_bool "apply drops" false (Prefix_set.mem (ip "11.0.0.0") applied)

(* ------------------------------------------------------------ prefix_list --- *)

let mk_pl name entries =
  {
    Ast.pl_name = name;
    pl_entries =
      List.mapi
        (fun i (action, p, ge, le) ->
          { Ast.pl_seq = 5 * (i + 1); pl_action = action; pl_prefix = pfx p; pl_ge = ge; pl_le = le })
        entries;
  }

let test_prefix_list_exact_length () =
  let pl = mk_pl "x" [ (Ast.Permit, "10.0.0.0/8", None, None) ] in
  check_bool "exact hit" true (Rd_policy.Prefix_list_policy.eval pl (pfx "10.0.0.0/8") = Ast.Permit);
  check_bool "more specific miss" true
    (Rd_policy.Prefix_list_policy.eval pl (pfx "10.1.0.0/16") = Ast.Deny);
  check_bool "outside miss" true
    (Rd_policy.Prefix_list_policy.eval pl (pfx "11.0.0.0/8") = Ast.Deny)

let test_prefix_list_le_ge () =
  let le = mk_pl "le" [ (Ast.Permit, "10.0.0.0/8", None, Some 16) ] in
  check_bool "le includes 16" true
    (Rd_policy.Prefix_list_policy.eval le (pfx "10.1.0.0/16") = Ast.Permit);
  check_bool "le excludes 24" true
    (Rd_policy.Prefix_list_policy.eval le (pfx "10.1.2.0/24") = Ast.Deny);
  let ge = mk_pl "ge" [ (Ast.Permit, "10.0.0.0/8", Some 24, None) ] in
  check_bool "ge includes 24" true
    (Rd_policy.Prefix_list_policy.eval ge (pfx "10.1.2.0/24") = Ast.Permit);
  check_bool "ge includes 32" true
    (Rd_policy.Prefix_list_policy.eval ge (pfx "10.1.2.3/32") = Ast.Permit);
  check_bool "ge excludes 16" true
    (Rd_policy.Prefix_list_policy.eval ge (pfx "10.1.0.0/16") = Ast.Deny);
  let band = mk_pl "band" [ (Ast.Permit, "10.0.0.0/8", Some 14, Some 20) ] in
  check_bool "band in" true (Rd_policy.Prefix_list_policy.eval band (pfx "10.1.0.0/16") = Ast.Permit);
  check_bool "band below" true
    (Rd_policy.Prefix_list_policy.eval band (pfx "10.0.0.0/12") = Ast.Deny);
  check_bool "band above" true
    (Rd_policy.Prefix_list_policy.eval band (pfx "10.1.2.0/24") = Ast.Deny)

let test_prefix_list_first_match () =
  let pl =
    mk_pl "fm"
      [
        (Ast.Deny, "10.1.0.0/16", None, Some 32);
        (Ast.Permit, "10.0.0.0/8", None, Some 32);
      ]
  in
  check_bool "deny first" true
    (Rd_policy.Prefix_list_policy.eval pl (pfx "10.1.2.0/24") = Ast.Deny);
  check_bool "permit later" true
    (Rd_policy.Prefix_list_policy.eval pl (pfx "10.2.0.0/16") = Ast.Permit);
  check_bool "implicit deny" true
    (Rd_policy.Prefix_list_policy.eval pl (pfx "192.168.0.0/16") = Ast.Deny)

let test_prefix_list_permitted_set () =
  let pl =
    mk_pl "ps"
      [
        (Ast.Deny, "10.1.0.0/16", None, Some 32);
        (Ast.Permit, "10.0.0.0/8", None, Some 32);
      ]
  in
  let s = Rd_policy.Prefix_list_policy.permitted_set pl in
  check_bool "covers" true (Prefix_set.mem (ip "10.2.0.0") s);
  check_bool "denied hole" false (Prefix_set.mem (ip "10.1.2.3") s)

let test_route_map_prefix_list_match () =
  let pl = mk_pl "CUST" [ (Ast.Permit, "198.18.0.0/15", None, Some 24) ] in
  let rm =
    {
      Ast.rm_name = "m";
      entries =
        [
          {
            Ast.seq = 10;
            rm_action = Ast.Permit;
            match_acls = [];
            match_prefix_lists = [ "CUST" ];
            match_tags = [];
            set_tag = None;
            set_metric = None;
            set_local_pref = None;
          };
        ];
    }
  in
  let lookup_pl n = if n = "CUST" then Some pl else None in
  let eval net =
    Rd_policy.Route_map.eval rm ~lookup_acl:(fun _ -> None) ~lookup_prefix_list:lookup_pl
      { net; tag = None; metric = None }
  in
  check_bool "matching route permitted" true (eval (pfx "198.18.5.0/24") <> Rd_policy.Route_map.Denied);
  check_bool "length out of range denied" true (eval (pfx "198.18.5.0/28") = Rd_policy.Route_map.Denied);
  check_bool "outside denied" true (eval (pfx "10.0.0.0/16") = Rd_policy.Route_map.Denied);
  (* permitted_set honours prefix-list matches too *)
  let s =
    Rd_policy.Route_map.permitted_set rm ~lookup_acl:(fun _ -> None)
      ~lookup_prefix_list:lookup_pl ()
  in
  check_bool "set covers" true (Prefix_set.mem (ip "198.18.5.1") s);
  check_bool "set excludes" false (Prefix_set.mem (ip "10.0.0.1") s)


(* ----------------------------------------------------------- filter_stats --- *)

let test_filter_stats () =
  let r1 =
    Rd_config.Parser.parse
      {|interface Serial0/0
 ip address 10.0.0.1 255.255.255.252
 ip access-group 101 in
!
interface Ethernet0
 ip address 10.1.0.1 255.255.255.0
 ip access-group 102 in
!
access-list 101 permit ip any any
access-list 102 deny tcp any any eq 23
access-list 102 permit ip any any
|}
  in
  let topo = Rd_topo.Topology.build [ ("r1", r1) ] in
  let stats = Rd_policy.Filter_stats.analyze topo in
  (* Serial0/0 is unmatched -> external (1 rule); Ethernet0 is a host LAN
     -> internal (2 rules) *)
  check_int "total" 3 stats.total_rules;
  check_int "internal" 2 stats.internal_rules;
  check_int "external" 1 stats.external_rules;
  check_int "defined" 2 stats.filters_defined;
  check_int "largest" 2 stats.largest_filter;
  (match Rd_policy.Filter_stats.internal_percentage stats with
   | Some p -> check_bool "percentage" true (abs_float (p -. 66.6667) < 0.1)
   | None -> Alcotest.fail "expected percentage");
  let empty_topo = Rd_topo.Topology.build [ ("r", Rd_config.Parser.parse "hostname r\n") ] in
  check_bool "no filters -> None" true
    (Rd_policy.Filter_stats.internal_percentage (Rd_policy.Filter_stats.analyze empty_topo) = None)

let () =
  Alcotest.run "rd_policy"
    [
      ( "acl",
        [
          Alcotest.test_case "first match" `Quick test_acl_first_match;
          Alcotest.test_case "implicit deny" `Quick test_acl_implicit_deny;
          Alcotest.test_case "permitted set" `Quick test_acl_permitted_set;
          Alcotest.test_case "non-contiguous wildcard set" `Quick test_acl_noncontiguous_wildcard;
          Alcotest.test_case "wildcard over-approximation" `Quick test_acl_wildcard_over_approx;
          Alcotest.test_case "route semantics" `Quick test_acl_route_semantics;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_acl_set_matches_eval; prop_acl_exact ] );
      ( "route_map",
        [
          Alcotest.test_case "eval with sets" `Quick test_route_map_eval;
          Alcotest.test_case "tag matching" `Quick test_route_map_tag_match;
          Alcotest.test_case "fall-off denies" `Quick test_route_map_falloff_denies;
          Alcotest.test_case "permitted set" `Quick test_route_map_permitted_set;
          Alcotest.test_case "deny+tag over-approximates" `Quick
            test_route_map_deny_tag_over_approx;
          Alcotest.test_case "tag-approx diag" `Quick test_route_map_tag_approx_diag;
        ] );
      ( "prefix_list",
        [
          Alcotest.test_case "exact length" `Quick test_prefix_list_exact_length;
          Alcotest.test_case "le/ge ranges" `Quick test_prefix_list_le_ge;
          Alcotest.test_case "first match" `Quick test_prefix_list_first_match;
          Alcotest.test_case "permitted set" `Quick test_prefix_list_permitted_set;
          Alcotest.test_case "route-map prefix-list match" `Quick test_route_map_prefix_list_match;
        ] );
      ("route_filter", [ Alcotest.test_case "filters as sets" `Quick test_route_filter ]);
      ("filter_stats", [ Alcotest.test_case "placement accounting" `Quick test_filter_stats ]);
    ]
