(* Tests for the §8.1 operational tools: Whatif and Inventory. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let analyze files = Rd_core.Analysis.analyze ~name:"t" files

let contains_sub ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* --------------------------------------------------------------- whatif --- *)

let linear_net =
  (* a1 -- glue -- b1, single OSPF instance *)
  [
    ( "a1",
      {|interface Serial0/0
 ip address 10.0.0.1 255.255.255.252
!
interface Ethernet0
 ip address 10.1.0.1 255.255.255.0
!
router ospf 1
 network 10.0.0.0 0.0.0.3 area 0
 network 10.1.0.0 0.0.0.255 area 0
|} );
    ( "glue",
      {|interface Serial0/0
 ip address 10.0.0.2 255.255.255.252
!
interface Serial0/1
 ip address 10.0.0.5 255.255.255.252
!
router ospf 1
 network 10.0.0.0 0.0.0.3 area 0
 network 10.0.0.4 0.0.0.3 area 0
|} );
    ( "b1",
      {|interface Serial0/0
 ip address 10.0.0.6 255.255.255.252
!
interface Ethernet0
 ip address 10.2.0.1 255.255.255.0
!
router ospf 1
 network 10.0.0.4 0.0.0.3 area 0
 network 10.2.0.0 0.0.0.255 area 0
|} );
  ]

let test_whatif_remove_router () =
  let a = analyze linear_net in
  check_int "one instance before" 1 (Rd_core.Analysis.instance_count a);
  let d = Rd_core.Whatif.run a [ Rd_core.Whatif.Remove_router "glue" ] in
  check_int "router gone" 2 (Rd_core.Analysis.router_count d.after);
  check_bool "instance partitioned" true (List.length d.split_instances = 1);
  check_bool "reachability lost" true (List.length d.lost_reachability > 0);
  check_bool "render" true (String.length (Rd_core.Whatif.render d) > 0)

let test_whatif_remove_link () =
  let a = analyze linear_net in
  let d =
    Rd_core.Whatif.run a
      [ Rd_core.Whatif.Remove_link (Rd_addr.Prefix.of_string_exn "10.0.0.4/30") ]
  in
  check_int "routers unchanged" 3 (Rd_core.Analysis.router_count d.after);
  check_bool "partitioned" true (List.length d.split_instances = 1)

let test_whatif_shutdown_interface () =
  let a = analyze linear_net in
  let d =
    Rd_core.Whatif.run a [ Rd_core.Whatif.Shutdown_interface ("glue", "Serial0/1") ]
  in
  check_bool "partitioned" true (List.length d.split_instances = 1)

let test_whatif_noop () =
  let a = analyze linear_net in
  let d = Rd_core.Whatif.run a [ Rd_core.Whatif.Remove_router "no-such-router" ] in
  check_int "nothing changed" 1 d.instances_after;
  check_int "no splits" 0 (List.length d.split_instances);
  check_int "no lost pairs" 0 (List.length d.lost_reachability);
  (* ... but the typo is surfaced, not swallowed *)
  check_int "one warning" 1 (List.length d.warnings);
  check_bool "warning names the target" true
    (List.exists (fun w -> contains_sub ~needle:"no-such-router" w) d.warnings);
  check_bool "render shows warning" true
    (contains_sub ~needle:"WARNING" (Rd_core.Whatif.render d))

let test_whatif_unknown_targets_warn () =
  let a = analyze linear_net in
  let { Rd_core.Whatif.warnings; _ } =
    Rd_core.Whatif.apply a
      [
        Rd_core.Whatif.Remove_router "glue";
        Rd_core.Whatif.Remove_link (Rd_addr.Prefix.of_string_exn "192.0.2.0/30");
        Rd_core.Whatif.Shutdown_interface ("a1", "Serial9/9");
        Rd_core.Whatif.Shutdown_interface ("ghost", "Serial0/0");
      ]
  in
  (* the matching change warns nothing; the three typos warn once each *)
  check_int "three warnings" 3 (List.length warnings);
  let has needle = List.exists (fun w -> contains_sub ~needle w) warnings in
  check_bool "unknown subnet" true (has "192.0.2.0/30");
  check_bool "unknown interface" true (has "Serial9/9");
  check_bool "unknown router" true (has "ghost");
  (* matched changes stay warning-free *)
  let clean = Rd_core.Whatif.apply a [ Rd_core.Whatif.Remove_router "glue" ] in
  check_int "no warnings when matched" 0 (List.length clean.warnings)

let test_whatif_redundant_link_harmless () =
  (* add a second link between a1 and b1: removing one keeps the instance whole *)
  let extended =
    linear_net
    @ [
        ( "a1b",
          {|interface Serial0/0
 ip address 10.0.0.9 255.255.255.252
!
router ospf 1
 network 10.0.0.8 0.0.0.3 area 0
|} );
      ]
  in
  ignore extended;
  (* simpler: remove a leaf router instead; the rest stays connected *)
  let a = analyze linear_net in
  let d = Rd_core.Whatif.run a [ Rd_core.Whatif.Remove_router "b1" ] in
  check_int "no split" 0 (List.length d.split_instances)

(* ------------------------------------------------ scenarios and engine --- *)

let test_scenario_parsing () =
  let ok = function Ok v -> v | Error e -> Alcotest.fail e in
  (* one labelled line, ';'-chained changes *)
  let s =
    ok
      (Rd_core.Whatif.parse_scenario
         "core-out: remove-router glue; shutdown-interface a1 Serial0/0")
  in
  check_string "label" "core-out" s.label;
  check_int "two changes" 2 (List.length s.changes);
  (* parse/print round trip *)
  let s2 = ok (Rd_core.Whatif.parse_scenario (Rd_core.Whatif.scenario_to_string s)) in
  check_string "round trip" (Rd_core.Whatif.scenario_to_string s)
    (Rd_core.Whatif.scenario_to_string s2);
  (* whole file: comments and blanks skipped, default labels in order *)
  let file =
    "# sweep\n\nlink-out: remove-link 10.0.0.4/30\nremove-router b1\n  # trailing comment\n"
  in
  let ss = ok (Rd_core.Whatif.parse_scenarios file) in
  check_int "two scenarios" 2 (List.length ss);
  check_string "explicit label" "link-out" (List.nth ss 0).label;
  check_string "default label" "s2" (List.nth ss 1).label;
  (* errors carry the 1-based line number and reject junk *)
  (match Rd_core.Whatif.parse_scenarios "remove-router a1\nfrobnicate x\n" with
  | Ok _ -> Alcotest.fail "junk accepted"
  | Error e -> check_bool "line number in error" true (contains_sub ~needle:"line 2" e));
  (match Rd_core.Whatif.parse_change "remove-link not-a-prefix" with
  | Ok _ -> Alcotest.fail "bad prefix accepted"
  | Error _ -> ());
  match Rd_core.Whatif.parse_scenario "label-only:" with
  | Ok _ -> Alcotest.fail "empty scenario accepted"
  | Error e -> check_bool "no-changes error" true (contains_sub ~needle:"no changes" e)

let test_whatif_touched_files () =
  let a = analyze linear_net in
  let d =
    Rd_core.Whatif.apply a
      [
        Rd_core.Whatif.Shutdown_interface ("glue", "Serial0/1");
        Rd_core.Whatif.Remove_link (Rd_addr.Prefix.of_string_exn "10.0.0.0/30");
      ]
  in
  (* shutdown touches glue; the link removal touches both endpoints *)
  check_bool "glue touched" true (List.mem "glue" d.touched);
  check_bool "a1 touched" true (List.mem "a1" d.touched);
  check_bool "b1 untouched by either change" false (List.mem "b1" d.touched);
  check_bool "sorted unique" true (d.touched = List.sort_uniq String.compare d.touched);
  (* a change that matches nothing touches nothing *)
  let d0 = Rd_core.Whatif.apply a [ Rd_core.Whatif.Remove_router "ghost" ] in
  check_int "noop touches nothing" 0 (List.length d0.touched)

let test_engine_batch_matches_sequential () =
  (* the batched, cache-backed engine must render byte-identical diffs to
     independent from-scratch [Whatif.run] calls *)
  let scenarios =
    match
      Rd_core.Whatif.parse_scenarios
        "glue-out: remove-router glue\n\
         link-out: remove-link 10.0.0.4/30\n\
         maint: shutdown-interface glue Serial0/1; shutdown-interface a1 Serial0/0\n\
         noop: remove-router ghost\n"
    with
    | Ok ss -> ss
    | Error e -> Alcotest.fail e
  in
  let engine = Rd_core.Engine.create () in
  let net = Rd_core.Engine.load engine ~name:"linear" linear_net in
  let outcomes = Rd_core.Engine.run_scenarios engine net scenarios in
  let a = analyze linear_net in
  List.iter2
    (fun (o : Rd_core.Engine.outcome) (s : Rd_core.Whatif.scenario) ->
      check_string
        ("engine = sequential: " ^ s.label)
        (Rd_core.Whatif.render (Rd_core.Whatif.run a s.changes))
        (Rd_core.Whatif.render o.diff))
    outcomes scenarios;
  (* running the same sweep again is answered entirely from the stores *)
  let misses () =
    List.fold_left
      (fun acc (_, (s : Rd_util.Cache.stats)) -> acc + s.misses)
      0
      (Rd_core.Engine.stats engine)
  in
  let before = misses () in
  let again = Rd_core.Engine.run_scenarios engine net scenarios in
  check_int "warm sweep misses nothing" before (misses ());
  List.iter2
    (fun (o : Rd_core.Engine.outcome) (o2 : Rd_core.Engine.outcome) ->
      check_string "warm diff identical"
        (Rd_core.Whatif.render o.diff)
        (Rd_core.Whatif.render o2.diff))
    outcomes again

let test_engine_file_edit_invalidation () =
  (* editing one router's config must re-parse only that file and re-run
     the whole-network analysis under a fresh key *)
  let engine = Rd_core.Engine.create () in
  let net = Rd_core.Engine.load engine ~name:"linear" linear_net in
  let parse_stats () = List.assoc "parse" (Rd_core.Engine.stats engine) in
  let s0 = parse_stats () in
  check_int "three cold parses" 3 s0.misses;
  let edited =
    List.map
      (fun (n, text) ->
        if n = "b1" then (n, text ^ "!\ninterface Loopback0\n ip address 10.9.0.1 255.255.255.255\n")
        else (n, text))
      linear_net
  in
  let net' = Rd_core.Engine.load engine ~name:"linear" edited in
  check_bool "network key changed" false (net.key = net'.key);
  let s1 = parse_stats () in
  check_int "only the edited file re-parses" (s0.misses + 1) s1.misses;
  check_int "unedited files hit" (s0.hits + 2) s1.hits;
  (* reloading the original bytes is a pure hit: same key, same analysis *)
  let net'' = Rd_core.Engine.load engine ~name:"linear" linear_net in
  check_bool "original key stable" true (net.key = net''.key);
  check_bool "analysis shared" true (net.analysis == net''.analysis)

(* ------------------------------------------------------------ inventory --- *)

let test_inventory_records () =
  let a = analyze linear_net in
  let records = Rd_core.Inventory.records a in
  check_int "three records" 3 (List.length records);
  let glue = List.find (fun (r : Rd_core.Inventory.router_record) -> r.name = "glue") records in
  check_int "glue ifaces" 2 glue.interfaces;
  check_bool "glue runs ospf" true
    (List.mem_assoc Rd_config.Ast.Ospf glue.processes);
  check_bool "report renders" true (String.length (Rd_core.Inventory.report a) > 0)

let test_inventory_diff () =
  let a = analyze linear_net in
  let b = analyze (List.filter (fun (n, _) -> n <> "b1") linear_net) in
  let d = Rd_core.Inventory.diff ~old_snapshot:a ~new_snapshot:b in
  Alcotest.(check (list string)) "removed" [ "b1" ] d.removed_routers;
  check_int "no additions" 0 (List.length d.added_routers);
  check_bool "links removed" true (List.length d.removed_links > 0);
  check_bool "not empty" false (Rd_core.Inventory.is_empty_delta d);
  check_bool "render" true (String.length (Rd_core.Inventory.render_delta d) > 0);
  let same = Rd_core.Inventory.diff ~old_snapshot:a ~new_snapshot:a in
  check_bool "self diff empty" true (Rd_core.Inventory.is_empty_delta same)

let () =
  Alcotest.run "rd_ops"
    [
      ( "whatif",
        [
          Alcotest.test_case "remove router" `Quick test_whatif_remove_router;
          Alcotest.test_case "remove link" `Quick test_whatif_remove_link;
          Alcotest.test_case "shutdown interface" `Quick test_whatif_shutdown_interface;
          Alcotest.test_case "unknown change is noop" `Quick test_whatif_noop;
          Alcotest.test_case "unknown targets warn" `Quick test_whatif_unknown_targets_warn;
          Alcotest.test_case "leaf removal harmless" `Quick test_whatif_redundant_link_harmless;
          Alcotest.test_case "scenario parsing" `Quick test_scenario_parsing;
          Alcotest.test_case "touched files reported" `Quick test_whatif_touched_files;
          Alcotest.test_case "engine batch = sequential" `Quick
            test_engine_batch_matches_sequential;
          Alcotest.test_case "file edit invalidates precisely" `Quick
            test_engine_file_edit_invalidation;
        ] );
      ( "inventory",
        [
          Alcotest.test_case "records" `Quick test_inventory_records;
          Alcotest.test_case "snapshot diff" `Quick test_inventory_diff;
        ] );
    ]
