(* Tests for Rd_core.Netlint: one seeded-defect fixture per rule family
   (asserting stable code, implicated router file, and line), the tag-cut
   negative case for redistribution loops, the route-leak search against
   its per-origin reference, a property test that shadowed ACL-clause
   detection agrees with brute-force evaluation, and clean generated
   networks. *)

open Rd_addr
open Rd_config

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let run files = Rd_core.Netlint.run ~name:"t" files

let contains_sub ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let find code (r : Rd_core.Netlint.report) =
  List.filter (fun (d : Diag.t) -> d.code = code) r.findings

(* Assert exactly one finding with [code], pinned to [file]:[line]. *)
let assert_one ~code ~file ~line ~severity report =
  match find code report with
  | [ d ] ->
    check_bool (code ^ " severity") true (d.severity = severity);
    check_bool (code ^ " file") true (d.file = Some file);
    check_int (code ^ " line") line (Option.value d.line ~default:(-1))
  | ds -> Alcotest.failf "expected exactly one %s, got %d" code (List.length ds)

let assert_none ~code report =
  check_int (code ^ " absent") 0 (List.length (find code report))

(* ---------------------------------------------- redistribution loops --- *)

(* r1 redistributes RIP into OSPF, r2 redistributes OSPF back into RIP:
   a two-router mutual-redistribution cycle with no tag or filter cut. *)
let loop_r1 =
  "hostname r1\n\
   interface Ethernet0\n\
  \ ip address 10.0.12.1 255.255.255.0\n\
   interface Ethernet1\n\
  \ ip address 10.1.0.1 255.255.255.0\n\
   router ospf 1\n\
  \ network 10.0.12.0 0.0.0.255 area 0\n\
  \ network 10.1.0.0 0.0.0.255 area 0\n\
  \ redistribute rip subnets\n\
   router rip\n\
  \ network 10.0.0.0\n"

let loop_r2 =
  "hostname r2\n\
   interface Ethernet0\n\
  \ ip address 10.0.12.2 255.255.255.0\n\
   interface Ethernet1\n\
  \ ip address 10.2.0.1 255.255.255.0\n\
   router ospf 1\n\
  \ network 10.0.12.0 0.0.0.255 area 0\n\
  \ network 10.2.0.0 0.0.0.255 area 0\n\
   router rip\n\
  \ network 10.0.0.0\n\
  \ redistribute ospf 1\n"

let test_redistribution_loop () =
  let report = run [ ("r1.cfg", loop_r1); ("r2.cfg", loop_r2) ] in
  (* The finding is anchored at r1's [redistribute rip subnets]. *)
  assert_one ~code:"netlint-redistribution-loop" ~file:"r1.cfg" ~line:9
    ~severity:Diag.Error report;
  check_bool "report has errors" true (Rd_core.Netlint.has_errors [ report ])

let test_loop_tag_cut_is_clean () =
  (* Same cycle, but r1 stamps tag 100 on everything it redistributes and
     r2's route-map denies that tag: the loop is deliberately cut. *)
  let r1 =
    "hostname r1\n\
     interface Ethernet0\n\
    \ ip address 10.0.12.1 255.255.255.0\n\
     interface Ethernet1\n\
    \ ip address 10.1.0.1 255.255.255.0\n\
     router ospf 1\n\
    \ network 10.0.12.0 0.0.0.255 area 0\n\
    \ network 10.1.0.0 0.0.0.255 area 0\n\
    \ redistribute rip subnets route-map TAGIT\n\
     router rip\n\
    \ network 10.0.0.0\n\
     route-map TAGIT permit 10\n\
    \ set tag 100\n"
  in
  let r2 =
    "hostname r2\n\
     interface Ethernet0\n\
    \ ip address 10.0.12.2 255.255.255.0\n\
     interface Ethernet1\n\
    \ ip address 10.2.0.1 255.255.255.0\n\
     router ospf 1\n\
    \ network 10.0.12.0 0.0.0.255 area 0\n\
    \ network 10.2.0.0 0.0.0.255 area 0\n\
     router rip\n\
    \ network 10.0.0.0\n\
    \ redistribute ospf 1 route-map CUT\n\
     route-map CUT deny 10\n\
    \ match tag 100\n\
     route-map CUT permit 20\n"
  in
  let report = run [ ("r1.cfg", r1); ("r2.cfg", r2) ] in
  assert_none ~code:"netlint-redistribution-loop" report;
  check_bool "no errors" false (Rd_core.Netlint.has_errors [ report ])

(* The same cycle, cut only by a route-map on r1 whose one entry matches
   access-list 5.  [acl5] is the only policy on the loop: when it is
   inexact the permit-all cover it lowers to may be hiding a real cut,
   so the finding is downgraded to a warning; when it is exact the
   filter provably restricts nothing and the loop stays an error. *)
let loop_via_acl acl5 =
  let r1 =
    "hostname r1\n\
     interface Ethernet0\n\
    \ ip address 10.0.12.1 255.255.255.0\n\
     interface Ethernet1\n\
    \ ip address 10.1.0.1 255.255.255.0\n\
     router ospf 1\n\
    \ network 10.0.12.0 0.0.0.255 area 0\n\
    \ network 10.1.0.0 0.0.0.255 area 0\n\
    \ redistribute rip subnets route-map RM\n\
     router rip\n\
    \ network 10.0.0.0\n\
     route-map RM permit 10\n\
    \ match ip address 5\n"
    ^ acl5
  in
  run [ ("r1.cfg", r1); ("r2.cfg", loop_r2) ]

let test_loop_inexact_cut_downgrades () =
  (* 16 scattered wild bits reaching bit 31: the contiguous cover is
     0.0.0.0/0, so the lowered filter is unrestricted. *)
  let report = loop_via_acl "access-list 5 permit 0.0.0.0 170.170.170.170\n" in
  assert_one ~code:"netlint-redistribution-loop" ~file:"r1.cfg" ~line:9
    ~severity:Diag.Warning report;
  (match find "netlint-redistribution-loop" report with
   | [ d ] ->
     check_bool "downgrade reason" true
       (contains_sub ~needle:"every filter cut candidate was lowered approximately" d.message)
   | _ -> ());
  let exact = loop_via_acl "access-list 5 permit any\n" in
  assert_one ~code:"netlint-redistribution-loop" ~file:"r1.cfg" ~line:9
    ~severity:Diag.Error exact

(* ------------------------------------------------------- route leaks --- *)

let leak_r1 =
  "hostname r1\n\
   interface Ethernet0\n\
  \ ip address 10.0.12.1 255.255.255.0\n\
   interface Ethernet1\n\
  \ ip address 10.1.0.1 255.255.255.0\n\
   router ospf 1\n\
  \ network 10.0.12.0 0.0.0.255 area 0\n\
  \ network 10.1.0.0 0.0.0.255 area 0\n"

let leak_r2 =
  "hostname r2\n\
   interface Ethernet0\n\
  \ ip address 10.0.12.2 255.255.255.0\n\
   interface Serial0\n\
  \ ip address 7.0.0.1 255.255.255.0\n\
   router ospf 1\n\
  \ network 10.0.12.0 0.0.0.255 area 0\n\
   router bgp 65001\n\
  \ neighbor 7.0.0.2 remote-as 65002\n\
  \ redistribute ospf 1\n"

let test_route_leak () =
  let report = run [ ("r1.cfg", leak_r1); ("r2.cfg", leak_r2) ] in
  (* Anchored at r2's unfiltered external neighbor statement. *)
  assert_one ~code:"netlint-route-leak" ~file:"r2.cfg" ~line:9
    ~severity:Diag.Warning report

let test_leaks_structured () =
  let a =
    Rd_core.Analysis.analyze ~name:"t" [ ("r1.cfg", leak_r1); ("r2.cfg", leak_r2) ]
  in
  match Rd_core.Netlint.leaks a with
  | [ l ] ->
    check_int "leak asn" 65002 l.leak_asn;
    check_bool "leak peer" true (l.leak_peer = Option.get (Ipv4.of_string "7.0.0.2"));
    check_int "leak path hops" 2 (List.length l.leak_path);
    check_bool "interior prefixes leak" true
      (Prefix_set.mem_prefix (Prefix.of_string_exn "10.1.0.0/24") l.leak_prefixes)
  | ls -> Alcotest.failf "expected exactly one leak, got %d" (List.length ls)

(* The reference leak search: the per-origin BFS [Netlint.leaks] ran
   before it shared its [parent] and [visited] arrays across origins,
   allocating both afresh for every origin. *)
let reference_leaks (a : Rd_core.Analysis.t) =
  let module IG = Rd_routing.Instance_graph in
  let module RF = Rd_policy.Route_filter in
  let g = a.graph in
  let insts = IG.instances g in
  let n = Array.length insts in
  let origins = Rd_reach.Reachability.origins_bulk g in
  let inst_out = Array.make n [] in
  let ext_out = Array.make n [] in
  List.iter
    (fun (e : IG.edge) ->
      if RF.is_unrestricted e.filter then
        match (e.src, e.dst) with
        | IG.Inst s, IG.Inst d when s <> d -> inst_out.(s) <- (d, e) :: inst_out.(s)
        | IG.Inst s, IG.External x -> (
          match e.via with
          | IG.Ebgp_session _ -> ext_out.(s) <- (x, e) :: ext_out.(s)
          | _ -> ())
        | _ -> ())
    g.edges;
  Array.iteri (fun i l -> inst_out.(i) <- List.rev l) inst_out;
  Array.iteri (fun i l -> ext_out.(i) <- List.rev l) ext_out;
  let acc = ref [] in
  for i = 0 to n - 1 do
    if
      insts.(i).Rd_routing.Instance.protocol <> Ast.Bgp
      && not (Prefix_set.is_empty origins.(i))
    then begin
      let parent = Array.make n None in
      let visited = Array.make n false in
      visited.(i) <- true;
      let q = Queue.create () in
      Queue.add i q;
      let order = ref [] in
      while not (Queue.is_empty q) do
        let s = Queue.pop q in
        order := s :: !order;
        List.iter
          (fun (d, e) ->
            if not visited.(d) then begin
              visited.(d) <- true;
              parent.(d) <- Some (s, e);
              Queue.add d q
            end)
          inst_out.(s)
      done;
      let seen_as = Hashtbl.create 4 in
      List.iter
        (fun s ->
          List.iter
            (fun (x, (e : IG.edge)) ->
              if not (Hashtbl.mem seen_as x) then begin
                Hashtbl.add seen_as x ();
                let rec walk v tail =
                  if v = i then tail
                  else
                    match parent.(v) with
                    | Some (s', e') -> walk s' (e' :: tail)
                    | None -> tail
                in
                let peer =
                  match e.via with
                  | IG.Ebgp_session { peer_addr; _ } -> peer_addr
                  | _ -> assert false
                in
                acc :=
                  {
                    Rd_core.Netlint.leak_origin = i;
                    leak_asn = x;
                    leak_router = IG.via_router e.via;
                    leak_peer = peer;
                    leak_path = walk s [] @ [ e ];
                    leak_prefixes = origins.(i);
                  }
                  :: !acc
              end)
            ext_out.(s))
        (List.rev !order)
    end
  done;
  List.rev !acc

(* Field by field; witness paths must be the very same edges. *)
let assert_leaks_match label (a : Rd_core.Analysis.t) =
  let got = Rd_core.Netlint.leaks a and want = reference_leaks a in
  check_int (label ^ ": leak count") (List.length want) (List.length got);
  List.iter2
    (fun (g : Rd_core.Netlint.leak) (w : Rd_core.Netlint.leak) ->
      check_int (label ^ ": origin") w.leak_origin g.leak_origin;
      check_int (label ^ ": asn") w.leak_asn g.leak_asn;
      check_int (label ^ ": router") w.leak_router g.leak_router;
      check_bool (label ^ ": peer") true (Ipv4.equal w.leak_peer g.leak_peer);
      check_bool (label ^ ": path") true
        (List.length w.leak_path = List.length g.leak_path
        && List.for_all2 ( == ) w.leak_path g.leak_path);
      check_bool (label ^ ": prefixes") true (Prefix_set.equal w.leak_prefixes g.leak_prefixes))
    got want

(* Two OSPF instances on r2 both redistribute into one BGP instance with
   an unfiltered external session: the second origin's search passes
   the instances the first one reached, so a stale visit mark or parent
   would drop or misroute its witness path. *)
let shared_leak_r2 =
  "hostname r2\n\
   interface Ethernet0\n\
  \ ip address 10.0.12.2 255.255.255.0\n\
   interface Ethernet1\n\
  \ ip address 10.2.0.1 255.255.255.0\n\
   interface Serial0\n\
  \ ip address 7.0.0.1 255.255.255.0\n\
   router ospf 1\n\
  \ network 10.0.12.0 0.0.0.255 area 0\n\
   router ospf 2\n\
  \ network 10.2.0.0 0.0.0.255 area 0\n\
   router bgp 65001\n\
  \ neighbor 7.0.0.2 remote-as 65002\n\
  \ redistribute ospf 1\n\
  \ redistribute ospf 2\n"

let test_leaks_shared_session () =
  let a =
    Rd_core.Analysis.analyze ~name:"t" [ ("r1.cfg", leak_r1); ("r2.cfg", shared_leak_r2) ]
  in
  assert_leaks_match "shared session" a;
  match Rd_core.Netlint.leaks a with
  | [ l1; l2 ] ->
    check_bool "distinct origins" true (l1.leak_origin <> l2.leak_origin);
    List.iter
      (fun (l : Rd_core.Netlint.leak) ->
        check_int "same AS" 65002 l.leak_asn;
        check_int "two hops" 2 (List.length l.leak_path);
        check_bool "path starts at its origin" true
          ((List.hd l.leak_path).src = Rd_routing.Instance_graph.Inst l.leak_origin))
      [ l1; l2 ]
  | ls -> Alcotest.failf "expected two leaks, got %d" (List.length ls)

let test_leaks_match_reference_study () =
  List.iter
    (fun (spec : Rd_study.Population.spec) ->
      let files = Rd_study.Population.generate_one spec in
      assert_leaks_match spec.label (Rd_core.Analysis.analyze ~name:spec.label files))
    (Rd_study.Population.wanted_specs ~master_seed:2004 ())

let test_leak_filter_suppresses () =
  (* The same network with a distribute-list on the external session is
     no longer completely unfiltered: no leak is reported. *)
  let r2 =
    leak_r2 ^ " neighbor 7.0.0.2 distribute-list 1 out\naccess-list 1 permit 10.0.12.0 0.0.0.255\n"
  in
  let report = run [ ("r1.cfg", leak_r1); ("r2.cfg", r2) ] in
  assert_none ~code:"netlint-route-leak" report

(* -------------------------------------------------- peer consistency --- *)

let test_peer_as_mismatch () =
  let r1 =
    "hostname r1\n\
     interface Ethernet0\n\
    \ ip address 10.0.12.1 255.255.255.0\n\
     router bgp 65001\n\
    \ neighbor 10.0.12.2 remote-as 64999\n"
  in
  let r2 =
    "hostname r2\n\
     interface Ethernet0\n\
    \ ip address 10.0.12.2 255.255.255.0\n\
     router bgp 65002\n\
    \ neighbor 10.0.12.1 remote-as 65001\n"
  in
  let report = run [ ("r1.cfg", r1); ("r2.cfg", r2) ] in
  assert_one ~code:"netlint-peer-as-mismatch" ~file:"r1.cfg" ~line:5
    ~severity:Diag.Error report

let test_peer_one_sided () =
  let r1 =
    "hostname r1\n\
     interface Ethernet0\n\
    \ ip address 10.0.12.1 255.255.255.0\n\
     router bgp 65001\n\
    \ neighbor 10.0.12.2 remote-as 65002\n"
  in
  let r2 =
    "hostname r2\ninterface Ethernet0\n ip address 10.0.12.2 255.255.255.0\nrouter bgp 65002\n"
  in
  let report = run [ ("r1.cfg", r1); ("r2.cfg", r2) ] in
  assert_one ~code:"netlint-peer-one-sided" ~file:"r1.cfg" ~line:5
    ~severity:Diag.Warning report

let test_peer_symmetric_clean () =
  let r1 =
    "hostname r1\n\
     interface Ethernet0\n\
    \ ip address 10.0.12.1 255.255.255.0\n\
     router bgp 65001\n\
    \ neighbor 10.0.12.2 remote-as 65002\n"
  in
  let r2 =
    "hostname r2\n\
     interface Ethernet0\n\
    \ ip address 10.0.12.2 255.255.255.0\n\
     router bgp 65002\n\
    \ neighbor 10.0.12.1 remote-as 65001\n"
  in
  let report = run [ ("r1.cfg", r1); ("r2.cfg", r2) ] in
  assert_none ~code:"netlint-peer-as-mismatch" report;
  assert_none ~code:"netlint-peer-one-sided" report

let test_ospf_area_mismatch () =
  let r1 =
    "hostname r1\n\
     interface Ethernet0\n\
    \ ip address 10.0.12.1 255.255.255.0\n\
     router ospf 1\n\
    \ network 10.0.12.0 0.0.0.255 area 0\n"
  in
  let r2 =
    "hostname r2\n\
     interface Ethernet0\n\
    \ ip address 10.0.12.2 255.255.255.0\n\
     router ospf 1\n\
    \ network 10.0.12.0 0.0.0.255 area 1\n"
  in
  let report = run [ ("r1.cfg", r1); ("r2.cfg", r2) ] in
  assert_one ~code:"netlint-ospf-area-mismatch" ~file:"r2.cfg" ~line:3
    ~severity:Diag.Error report

let test_mask_mismatch () =
  let r1 = "hostname r1\ninterface Ethernet0\n ip address 10.0.12.1 255.255.255.0\n" in
  let r2 = "hostname r2\ninterface Ethernet0\n ip address 10.0.12.2 255.255.0.0\n" in
  let report = run [ ("r1.cfg", r1); ("r2.cfg", r2) ] in
  assert_one ~code:"netlint-mask-mismatch" ~file:"r2.cfg" ~line:3
    ~severity:Diag.Warning report

(* ----------------------------------------------------- shadowed rules --- *)

let shadow_cfg =
  "hostname r1\n\
   interface Ethernet0\n\
  \ ip address 10.1.0.1 255.255.255.0\n\
   access-list 10 permit 10.0.0.0 0.0.0.255\n\
   access-list 10 permit 10.0.0.5\n\
   ip prefix-list PL seq 5 permit 10.0.0.0/8 le 32\n\
   ip prefix-list PL seq 10 permit 10.1.0.0/16\n\
   ip prefix-list PL seq 15 permit 10.2.0.0/16 ge 24 le 20\n\
   route-map RM permit 10\n\
   route-map RM permit 20\n\
  \ match ip address 10\n"

let test_shadowed_rules () =
  let report = run [ ("r1.cfg", shadow_cfg) ] in
  assert_one ~code:"netlint-shadowed-acl-clause" ~file:"r1.cfg" ~line:5
    ~severity:Diag.Warning report;
  (* seq 10 is inside seq 5's le-32 umbrella; seq 15's ge/le range is
     empty — two prefix-list findings at their own lines. *)
  (match find "netlint-shadowed-prefix-list-entry" report with
   | [ a; b ] ->
     check_int "pl shadowed line" 7 (Option.value a.line ~default:(-1));
     check_int "pl unsat line" 8 (Option.value b.line ~default:(-1))
   | ds -> Alcotest.failf "expected two prefix-list findings, got %d" (List.length ds));
  assert_one ~code:"netlint-shadowed-route-map-entry" ~file:"r1.cfg" ~line:10
    ~severity:Diag.Warning report

let test_shadowed_first_match_not_flagged () =
  (* A deny carving a hole out of a later broader permit shadows
     nothing: order matters and both clauses are live. *)
  let cfg =
    "hostname r1\n\
     access-list 10 deny 10.0.0.5\n\
     access-list 10 permit 10.0.0.0 0.0.0.255\n"
  in
  let report = run [ ("r1.cfg", cfg) ] in
  assert_none ~code:"netlint-shadowed-acl-clause" report

(* An entry after one whose ACL lowered inexactly is never flagged: the
   inexact entry's cover (here everything) does not prove the later
   entry dead.  With an exact permit-all ACL in front it is. *)
let test_shadowed_after_inexact_acl () =
  let cfg acl5 =
    "hostname r1\n\
     interface Ethernet0\n\
    \ ip address 10.1.0.1 255.255.255.0\n"
    ^ acl5
    ^ "access-list 6 permit 10.1.0.0 0.0.255.255\n\
       route-map RM permit 10\n\
      \ match ip address 5\n\
       route-map RM permit 20\n\
      \ match ip address 6\n"
  in
  let inexact = run [ ("r1.cfg", cfg "access-list 5 permit 0.0.0.0 170.170.170.170\n") ] in
  assert_none ~code:"netlint-shadowed-route-map-entry" inexact;
  let exact = run [ ("r1.cfg", cfg "access-list 5 permit any\n") ] in
  assert_one ~code:"netlint-shadowed-route-map-entry" ~file:"r1.cfg" ~line:8
    ~severity:Diag.Warning exact

(* Brute-force agreement: deleting a clause flagged by
   [shadowed_acl_clauses] never changes any address's verdict.  The
   generator keeps wildcards in the low 9 bits so membership is
   enumerable. *)
let arb_acl =
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
      let* clauses = list_size (int_range 1 6) clause in
      return { Ast.acl_name = "prop"; extended = false; clauses })

let prop_shadowed_matches_brute_force =
  QCheck.Test.make ~name:"deleting a shadowed clause never changes a verdict"
    ~count:300 arb_acl (fun acl ->
      let verdicts (a : Ast.acl) =
        List.init 512 (fun i -> Rd_policy.Acl.eval_addr a (Ipv4.of_int (0x0A000000 lor i)))
      in
      let before = verdicts acl in
      List.for_all
        (fun idx ->
          let without =
            { acl with Ast.clauses = List.filteri (fun i _ -> i <> idx) acl.clauses }
          in
          verdicts without = before)
        (Rd_core.Netlint.shadowed_acl_clauses acl))

(* [le 44] is past any route length.  The parser drops the line, and an
   entry built with it directly (no parser in the way) still analyzes:
   its lengths stop at 32, so a later entry inside it is shadowed. *)
let test_prefix_list_le_past_32 () =
  let text = "hostname r1\nip prefix-list P seq 10 permit 10.0.0.0/19 le 44\n" in
  let files = [ ("r1.cfg", text) ] in
  let parsed = Rd_core.Analysis.analyze ~name:"t" files in
  assert_none ~code:"netlint-shadowed-prefix-list-entry"
    (Rd_core.Netlint.run_analysis ~files parsed);
  let entry seq p le =
    {
      Ast.pl_seq = seq;
      pl_action = Ast.Permit;
      pl_prefix = Prefix.of_string_exn p;
      pl_ge = None;
      pl_le = Some le;
    }
  in
  let pl =
    { Ast.pl_name = "P"; pl_entries = [ entry 10 "10.0.0.0/19" 44; entry 20 "10.0.8.0/24" 40 ] }
  in
  let ast = { (Parser.parse text) with prefix_lists = [ pl ] } in
  let built = Rd_core.Analysis.analyze_asts ~name:"t" [ ("r1.cfg", ast) ] in
  check_int "inner entry shadowed" 1
    (List.length (find "netlint-shadowed-prefix-list-entry" (Rd_core.Netlint.run_analysis built)))

(* ------------------------------------------------------------ driver --- *)

let test_rule_selection () =
  let report =
    Rd_core.Netlint.run ~name:"t" ~rules:[ "peer-consistency" ]
      [ ("r1.cfg", shadow_cfg) ]
  in
  check_bool "rules recorded" true (report.rules = [ "peer-consistency" ]);
  assert_none ~code:"netlint-shadowed-acl-clause" report;
  check_bool "unknown rule rejected" true
    (try
       ignore (Rd_core.Netlint.run ~name:"t" ~rules:[ "nope" ] [ ("r1.cfg", shadow_cfg) ]);
       false
     with Invalid_argument _ -> true)

let test_render_and_json () =
  let report = run [ ("r1.cfg", loop_r1); ("r2.cfg", loop_r2) ] in
  let text = Rd_core.Netlint.render [ report ] in
  check_bool "render names code" true
    (contains_sub ~needle:"netlint-redistribution-loop" text);
  match Rd_core.Netlint.to_json [ report ] with
  | Rd_util.Json.Obj kvs ->
    check_bool "json has networks" true (List.mem_assoc "networks" kvs);
    check_bool "json counts errors" true (List.assoc "errors" kvs = Rd_util.Json.Int 1)
  | _ -> Alcotest.fail "expected a json object"

let test_generated_networks_no_errors () =
  (* Generated networks are correct by construction: warnings are fine
     (the generator emits decoy filter clauses), errors are not. *)
  List.iter
    (fun arch ->
      let net = Rd_gen.Archetype.generate arch ~seed:11 ~n:12 ~index:1 () in
      let report =
        Rd_core.Netlint.run
          ~name:(Rd_gen.Archetype.to_string arch)
          (Rd_gen.Builder.to_texts net)
      in
      if Rd_core.Netlint.has_errors [ report ] then
        List.iter
          (fun (d : Diag.t) ->
            if d.severity = Diag.Error then
              Alcotest.failf "generated %s network has netlint error: %s"
                (Rd_gen.Archetype.to_string arch) (Diag.to_string d))
          report.findings)
    [
      Rd_gen.Archetype.Backbone; Rd_gen.Archetype.Enterprise; Rd_gen.Archetype.Compartment;
      Rd_gen.Archetype.Restricted; Rd_gen.Archetype.Tier2; Rd_gen.Archetype.Hub_spoke;
      Rd_gen.Archetype.Igp_only;
    ]

(* Re-linting an analyzed network is a pure replay of memoized work: the
   hash-consed prefix-set kernel and the filter lowerings memoized on
   physical AST identity absorb the whole second pass, so it allocates no
   kernel node and misses no memo table, and agrees finding for finding. *)
let test_relint_replays_memo () =
  List.iter
    (fun (spec : Rd_study.Population.spec) ->
      let files = Rd_study.Population.generate_one spec in
      let a = Rd_core.Analysis.analyze ~name:spec.label files in
      let cold = Rd_core.Netlint.run_analysis ~files a in
      let s0 = Prefix_set.stats () in
      let warm = Rd_core.Netlint.run_analysis ~files a in
      let s1 = Prefix_set.stats () in
      check_bool (spec.label ^ ": identical findings") true (cold.findings = warm.findings);
      check_int (spec.label ^ ": warm pass allocates no node") 0 (s1.nodes - s0.nodes);
      check_int (spec.label ^ ": warm pass misses no memo") 0 (s1.memo_misses - s0.memo_misses))
    (Rd_study.Population.wanted_specs ~only:[ 4; 15 ] ~master_seed:2004 ())

let () =
  Alcotest.run "netlint"
    [
      ( "redistribution-loop",
        [
          Alcotest.test_case "mutual redistribution loops" `Quick test_redistribution_loop;
          Alcotest.test_case "tag cut suppresses" `Quick test_loop_tag_cut_is_clean;
          Alcotest.test_case "inexact cut candidate downgrades" `Quick
            test_loop_inexact_cut_downgrades;
        ] );
      ( "route-leak",
        [
          Alcotest.test_case "unfiltered path to eBGP" `Quick test_route_leak;
          Alcotest.test_case "structured leaks" `Quick test_leaks_structured;
          Alcotest.test_case "filter suppresses" `Quick test_leak_filter_suppresses;
          Alcotest.test_case "two origins, one session" `Quick test_leaks_shared_session;
          Alcotest.test_case "seed-2004 study = reference" `Slow
            test_leaks_match_reference_study;
        ] );
      ( "peer-consistency",
        [
          Alcotest.test_case "remote-as mismatch" `Quick test_peer_as_mismatch;
          Alcotest.test_case "one-sided session" `Quick test_peer_one_sided;
          Alcotest.test_case "symmetric clean" `Quick test_peer_symmetric_clean;
          Alcotest.test_case "ospf area mismatch" `Quick test_ospf_area_mismatch;
          Alcotest.test_case "mask mismatch" `Quick test_mask_mismatch;
        ] );
      ( "shadowed-rules",
        [
          Alcotest.test_case "acl, prefix-list, route-map" `Quick test_shadowed_rules;
          Alcotest.test_case "first-match order respected" `Quick
            test_shadowed_first_match_not_flagged;
          Alcotest.test_case "entry after an inexact acl" `Quick
            test_shadowed_after_inexact_acl;
          Alcotest.test_case "prefix-list le past 32" `Quick test_prefix_list_le_past_32;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_shadowed_matches_brute_force ] );
      ( "driver",
        [
          Alcotest.test_case "rule selection" `Quick test_rule_selection;
          Alcotest.test_case "render and json" `Quick test_render_and_json;
          Alcotest.test_case "generated networks error-free" `Quick
            test_generated_networks_no_errors;
          Alcotest.test_case "re-lint replays the memo" `Quick test_relint_replays_memo;
        ] );
    ]
