(* Tests for rd_check: the sim⊆static differential oracle, the
   metamorphic invariant suite, and the counterexample shrinker. *)

let check_bool = Alcotest.(check bool)
let check_sl = Alcotest.(check (list string))

let contains_sub ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let errors_of (r : Rd_check.Crosscheck.report) =
  List.filter
    (fun (v : Rd_check.Crosscheck.violation) -> v.severity = Rd_config.Diag.Error)
    r.violations

(* ------------------------------------------------------------- oracle --- *)

let all_flavors =
  Rd_gen.Archetype.
    [ Backbone; Enterprise; Compartment; Restricted; Tier2; Hub_spoke; Igp_only ]

(* Every archetype flavor, deterministically, through the FULL invariant
   catalogue.  These networks are small (8-12 routers) so the whole
   sweep — two simulations per network for the monotonicity invariants —
   stays quick. *)
let test_oracle_all_flavors () =
  List.iter
    (fun arch ->
      let name = Rd_gen.Archetype.to_string arch in
      let net = Rd_gen.Archetype.generate arch ~seed:11 ~n:10 ~index:2 () in
      let report = Rd_check.Crosscheck.run ~name (Rd_gen.Builder.to_texts net) in
      check_bool (name ^ ": converged") true report.converged;
      check_bool (name ^ ": oracle ran") true
        (List.mem "sim-subset-static" report.checked);
      List.iter
        (fun (v : Rd_check.Crosscheck.violation) ->
          Alcotest.failf "%s: %s [%s] %s" name v.invariant v.subject v.detail)
        (errors_of report))
    all_flavors

let test_report_shape () =
  let net = Rd_gen.Archetype.generate Rd_gen.Archetype.Enterprise ~seed:5 ~n:8 ~index:1 () in
  let files = Rd_gen.Builder.to_texts net in
  let report = Rd_check.Crosscheck.run ~name:"shape" files in
  check_bool "routers counted" true (report.routers > 0);
  check_bool "instances counted" true (report.instances > 0);
  check_sl "all invariants accounted for"
    (List.sort compare Rd_check.Crosscheck.all_invariants)
    (List.sort compare (report.checked @ List.map fst report.skipped));
  (* without files the anonymization invariant cannot run *)
  let a = Rd_core.Analysis.analyze ~name:"shape" files in
  let nofiles = Rd_check.Crosscheck.run_analysis a in
  check_bool "anonymize-structure skipped without files" true
    (List.mem_assoc "anonymize-structure" nofiles.skipped);
  (* restricting the catalogue restricts the work *)
  let only = Rd_check.Crosscheck.run_analysis ~invariants:[ "worklist-equals-rounds" ] a in
  check_sl "restricted catalogue" [ "worklist-equals-rounds" ] only.checked

let test_anon_as_budget_skips () =
  (* a file naming more distinct public ASes than the anonymizer has
     slots cannot be anonymized: the invariant is skipped with the
     budget trip as its reason *)
  let a =
    Rd_core.Analysis.analyze ~name:"as-space" [ ("r1.cfg", "hostname r1\nrouter bgp 65001\n") ]
  in
  let neighbors =
    List.init 64512 (fun i ->
        let n = if i < 64511 then i + 1 else 65535 in
        Printf.sprintf " neighbor 192.0.2.1 remote-as %d" n)
  in
  let files = [ ("r1.cfg", String.concat "\n" ("router bgp 65001" :: neighbors)) ] in
  let report =
    Rd_check.Crosscheck.run_analysis ~invariants:[ "anonymize-structure" ] ~files a
  in
  check_sl "nothing checked" [] report.checked;
  match report.skipped with
  | [ ("anonymize-structure", reason) ] ->
    check_bool "reason names the budget" true
      (contains_sub ~needle:"anonymize.as-space" reason)
  | _ -> Alcotest.fail "expected anonymize-structure skipped"

let test_render_and_json () =
  let net = Rd_gen.Archetype.generate Rd_gen.Archetype.Igp_only ~seed:3 ~n:6 ~index:4 () in
  let report = Rd_check.Crosscheck.run ~name:"tiny" (Rd_gen.Builder.to_texts net) in
  let text = Rd_check.Crosscheck.render [ report ] in
  check_bool "table names the network" true (contains_sub ~needle:"tiny" text);
  check_bool "no errors" false (Rd_check.Crosscheck.has_errors [ report ]);
  match Rd_check.Crosscheck.to_json [ report ] with
  | Rd_util.Json.Obj kvs ->
    check_bool "json has networks" true (List.mem_assoc "networks" kvs);
    check_bool "json has errors" true (List.mem_assoc "errors" kvs)
  | _ -> Alcotest.fail "expected a json object"

(* The property version: random small networks from the three scaling
   archetypes; the oracle must hold on every one of them. *)
let arb_small_net =
  QCheck.make
    ~print:(fun (a, s, n) -> Printf.sprintf "arch=%d seed=%d n=%d" a s n)
    QCheck.Gen.(
      let* a = int_bound 6 in
      let* s = int_bound 200 in
      let* n = int_range 6 12 in
      return (a, s, n))

let prop_oracle_random_nets =
  QCheck.Test.make ~name:"sim ⊆ static on random archetype networks" ~count:12
    arb_small_net (fun (a, s, n) ->
      let arch = List.nth all_flavors a in
      let net = Rd_gen.Archetype.generate arch ~seed:s ~n ~index:(s mod 7) () in
      let report =
        Rd_check.Crosscheck.run
          ~invariants:[ "sim-subset-static"; "worklist-equals-rounds" ]
          ~name:"prop" (Rd_gen.Builder.to_texts net)
      in
      errors_of report = [])

(* ----------------------------------------------------------- shrinker --- *)

let test_ddmin_minimal_pair () =
  (* seeded violation: the interaction of pieces 3 and 7 *)
  let violates l = List.mem 3 l && List.mem 7 l in
  let r = Rd_check.Shrink.ddmin ~violates [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  Alcotest.(check (list int)) "exactly the interacting pair" [ 3; 7 ] r;
  (* determinism: same input, same answer *)
  let r2 = Rd_check.Shrink.ddmin ~violates [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  Alcotest.(check (list int)) "deterministic" r r2

let test_ddmin_single_and_none () =
  let r = Rd_check.Shrink.ddmin ~violates:(List.mem 5) [ 9; 5; 1 ] in
  Alcotest.(check (list int)) "single culprit" [ 5 ] r;
  (* non-violating input is returned unchanged, never "shrunk" *)
  let r2 = Rd_check.Shrink.ddmin ~violates:(fun _ -> false) [ 1; 2 ] in
  Alcotest.(check (list int)) "no violation, no shrink" [ 1; 2 ] r2

let test_ddmin_one_minimal () =
  (* violates iff at least 3 even numbers survive: any 1-minimal answer
     has exactly 3, and removing any single element stops the violation *)
  let violates l = List.length (List.filter (fun x -> x mod 2 = 0) l) >= 3 in
  let r = Rd_check.Shrink.ddmin ~violates [ 2; 3; 4; 5; 6; 7; 8; 10 ] in
  check_bool "still violates" true (violates r);
  List.iteri
    (fun i _ ->
      let without = List.filteri (fun j _ -> j <> i) r in
      check_bool (Printf.sprintf "dropping element %d stops it" i) false (violates without))
    r

let sample_config =
  "hostname r1\n!\ninterface Serial0/0\n ip address 10.0.0.1 255.255.255.252\n!\nrouter ospf 1\n network 10.0.0.0 0.0.0.3 area 0\n!\nip route 0.0.0.0 0.0.0.0 10.0.0.2\n"

let test_stanzas_roundtrip () =
  let ss = Rd_check.Shrink.stanzas sample_config in
  Alcotest.(check string) "concat rebuilds exactly" sample_config (String.concat "" ss);
  check_bool "several stanzas" true (List.length ss >= 4);
  (* indented continuations ride with their head line *)
  check_bool "interface keeps its address line" true
    (List.exists
       (fun s ->
         contains_sub ~needle:"interface Serial0/0" s
         && contains_sub ~needle:"ip address 10.0.0.1" s)
       ss);
  (* no trailing newline: still an exact rebuild *)
  let chopped = String.sub sample_config 0 (String.length sample_config - 1) in
  Alcotest.(check string) "no trailing newline" chopped
    (String.concat "" (Rd_check.Shrink.stanzas chopped))

let test_shrink_files_minimal () =
  let files =
    [ ("r1", "hostname r1\n"); ("r2", "hostname r2\n"); ("r3", "hostname r3\n");
      ("r4", "hostname r4\n") ]
  in
  (* seeded violation: r1 and r3 together trigger it *)
  let violates fs = List.mem_assoc "r1" fs && List.mem_assoc "r3" fs in
  let r = Rd_check.Shrink.shrink ~violates files in
  check_sl "two files, original order" [ "r1"; "r3" ] (List.map fst r);
  check_bool "result still violates" true (violates r)

let test_shrink_stanza_level () =
  (* the violation only needs r1's bgp stanza; the shrinker must strip the
     ospf stanza out of the surviving file *)
  let files =
    [ ( "r1",
        "router ospf 1\n network 10.0.0.0 0.0.0.3 area 0\n!\nrouter bgp 65000\n neighbor 10.0.0.2 remote-as 65001\n" );
      ("r2", "hostname r2\n") ]
  in
  let violates fs =
    match List.assoc_opt "r1" fs with
    | Some text -> contains_sub ~needle:"router bgp" text
    | None -> false
  in
  let r = Rd_check.Shrink.shrink ~violates files in
  check_sl "only r1 survives" [ "r1" ] (List.map fst r);
  let text = List.assoc "r1" r in
  check_bool "bgp stanza kept" true (contains_sub ~needle:"router bgp" text);
  check_bool "ospf stanza dropped" false (contains_sub ~needle:"router ospf" text);
  (* determinism *)
  let r2 = Rd_check.Shrink.shrink ~violates files in
  check_bool "deterministic" true (r = r2)

let test_write_repro () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "rd-check-repro-test" in
  Rd_check.Shrink.write_repro ~dir ~network:"netX" ~invariant:"sim-subset-static"
    ~detail:"instance 3 leaks 10.0.0.0/8"
    [ ("r1", "hostname r1\n"); ("r2", "hostname r2\n") ];
  let read f =
    let ic = open_in (Filename.concat dir f) in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  Alcotest.(check string) "config written" "hostname r1\n" (read "r1");
  let repro = read "REPRO.md" in
  check_bool "repro names the invariant" true
    (contains_sub ~needle:"sim-subset-static" repro);
  check_bool "repro names the network" true (contains_sub ~needle:"netX" repro);
  check_bool "repro says how to re-run" true (contains_sub ~needle:"rdna crosscheck" repro);
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

(* The `violates` predicate the CLI's --shrink mode drives: it must hold
   on a violating network and reject config subsets that do not parse
   into a network at all (a crashing subset is not a reproduction). *)
let test_violates_predicate () =
  let net = Rd_gen.Archetype.generate Rd_gen.Archetype.Igp_only ~seed:9 ~n:6 ~index:3 () in
  let files = Rd_gen.Builder.to_texts net in
  check_bool "clean network does not violate" false
    (Rd_check.Crosscheck.violates ~invariant:"sim-subset-static" ~name:"t" files);
  check_bool "empty file set does not violate" false
    (Rd_check.Crosscheck.violates ~invariant:"sim-subset-static" ~name:"t" [])

(* The checkpoint store replays crosscheck reports from JSON: the codec
   must be total and lossless, or a resumed sweep would silently drift
   from the uninterrupted one. *)
let test_report_json_roundtrip () =
  let net = Rd_gen.Archetype.generate Rd_gen.Archetype.Enterprise ~seed:4 ~n:8 ~index:2 () in
  let r = Rd_check.Crosscheck.run ~name:"netR" (Rd_gen.Builder.to_texts net) in
  (match Rd_check.Crosscheck.report_of_json (Rd_check.Crosscheck.report_to_json r) with
   | Some r' -> check_bool "structurally identical" true (r = r')
   | None -> Alcotest.fail "round trip decoded to None");
  (* through actual bytes, the path the store exercises *)
  let bytes = Rd_util.Json.to_string (Rd_check.Crosscheck.report_to_json r) in
  (match Rd_util.Json.of_string bytes with
   | Ok j -> (
     match Rd_check.Crosscheck.report_of_json j with
     | Some r' ->
       check_bool "identical after print+parse" true (r = r');
       Alcotest.(check string) "re-rendered report is byte-identical"
         (Rd_check.Crosscheck.render [ r ])
         (Rd_check.Crosscheck.render [ r' ])
     | None -> Alcotest.fail "decode after parse failed")
   | Error e -> Alcotest.failf "parse failed: %s" e);
  (* foreign payloads decode to None, never raise *)
  check_bool "wrong shape is None" true
    (Rd_check.Crosscheck.report_of_json (Rd_util.Json.Obj [ ("x", Rd_util.Json.Int 1) ])
     = None);
  (* a report with every severity and a skip survives print + parse *)
  let violation severity subject =
    { Rd_check.Crosscheck.severity; invariant = "sim-subset-static"; subject; detail = "d" }
  in
  let full =
    {
      Rd_check.Crosscheck.network = "netH";
      routers = 3;
      instances = 2;
      converged = false;
      approx = true;
      checked = [ "sim-subset-static"; "anonymize-structure" ];
      skipped = [ ("deny-filter-monotone", "no filters") ];
      violations =
        [
          violation Rd_config.Diag.Error "i0";
          violation Rd_config.Diag.Warning "i1";
          violation Rd_config.Diag.Info "i2";
        ];
    }
  in
  (match
     Rd_util.Json.of_string (Rd_util.Json.to_string (Rd_check.Crosscheck.report_to_json full))
   with
   | Ok j ->
     check_bool "hand-built report round-trips" true
       (Rd_check.Crosscheck.report_of_json j = Some full)
   | Error e -> Alcotest.failf "parse failed: %s" e);
  (* one unknown severity among valid violations is a shape mismatch *)
  let fatal =
    let open Rd_util.Json in
    match Rd_check.Crosscheck.report_to_json full with
    | Obj fields ->
      Obj
        (List.map
           (function
             | "violations", List (Obj v :: rest) ->
               ( "violations",
                 List (Obj (("severity", String "fatal") :: List.remove_assoc "severity" v) :: rest)
               )
             | field -> field)
           fields)
    | _ -> Alcotest.fail "report_to_json is not an object"
  in
  check_bool "fatal severity is None" true (Rd_check.Crosscheck.report_of_json fatal = None)

(* A pre-cancelled token makes the per-network oracle fail fast with the
   crosscheck.network site — the failure mode behind --task-timeout. *)
let test_crosscheck_cancelled () =
  let tok = Rd_util.Cancel.create () in
  Rd_util.Cancel.cancel ~reason:"task-timeout" tok;
  let net = Rd_gen.Archetype.generate Rd_gen.Archetype.Igp_only ~seed:3 ~n:5 ~index:1 () in
  match Rd_check.Crosscheck.run ~cancel:tok ~name:"netT" (Rd_gen.Builder.to_texts net) with
  | _ -> Alcotest.fail "expected Cancelled"
  | exception Rd_util.Cancel.Cancelled { site; _ } ->
    check_bool "a crosscheck or analysis poll site" true
      (site = "crosscheck.network" || site = "analysis.parse" || site = "parse.file")

(* [approx] is set exactly when some config holds an inexact policy,
   referenced or not: an ACL clause with more than 12 scattered wildcard
   bits, or a route-map entry matching on tag. *)
let test_approx_flag () =
  let approx extra =
    let text =
      "hostname r1\n\
       interface Ethernet0\n\
      \ ip address 10.0.0.1 255.255.255.0\n\
       router ospf 1\n\
      \ network 10.0.0.0 0.0.0.255 area 0\n\
       access-list 7 permit 10.0.0.0 0.0.0.255\n"
      ^ extra
    in
    let a = Rd_core.Analysis.analyze ~name:"approx" [ ("r1.cfg", text) ] in
    (Rd_check.Crosscheck.run_analysis ~invariants:[] a).approx
  in
  check_bool "exact policies" false (approx "");
  (* 23 scattered wild bits (1-23; bit 0 is fixed) *)
  check_bool "23-bit wildcard" true (approx "access-list 5 permit 10.0.0.0 0.255.255.254\n");
  (* 12 scattered bits still enumerate exactly *)
  check_bool "12-bit wildcard" false (approx "access-list 5 permit 10.0.0.0 0.0.31.254\n");
  check_bool "match tag" true (approx "route-map RM permit 10\n match tag 5\n");
  check_bool "set tag only" false (approx "route-map RM permit 10\n set tag 5\n")

(* ------------------------------------------------------- study (slow) --- *)

(* Every small network of the 31-network study population, through the
   full catalogue.  The big ones run in CI via `rdna crosscheck --study`;
   here we keep to the sub-50-router population so `dune runtest` stays
   tractable. *)
let test_study_small_networks () =
  let specs =
    List.filter
      (fun (s : Rd_study.Population.spec) -> s.n <= 50)
      (Rd_study.Population.specs ~master_seed:2004)
  in
  check_bool "a dozen small networks" true (List.length specs >= 12);
  List.iter
    (fun (s : Rd_study.Population.spec) ->
      let files = Rd_study.Population.generate_one s in
      let report = Rd_check.Crosscheck.run ~name:s.label files in
      List.iter
        (fun (v : Rd_check.Crosscheck.violation) ->
          Alcotest.failf "%s: %s [%s] %s" s.label v.invariant v.subject v.detail)
        (errors_of report))
    specs

let () =
  Alcotest.run "rd_check"
    [
      ( "oracle",
        [
          Alcotest.test_case "all archetype flavors" `Quick test_oracle_all_flavors;
          Alcotest.test_case "report shape" `Quick test_report_shape;
          Alcotest.test_case "AS space budget skips" `Quick test_anon_as_budget_skips;
          Alcotest.test_case "render and json" `Quick test_render_and_json;
          Alcotest.test_case "report json round trip" `Quick test_report_json_roundtrip;
          Alcotest.test_case "cancellation fails fast" `Quick test_crosscheck_cancelled;
          Alcotest.test_case "approx flag" `Quick test_approx_flag;
        ] );
      ( "shrinker",
        [
          Alcotest.test_case "ddmin isolates an interacting pair" `Quick
            test_ddmin_minimal_pair;
          Alcotest.test_case "ddmin single and none" `Quick test_ddmin_single_and_none;
          Alcotest.test_case "ddmin is 1-minimal" `Quick test_ddmin_one_minimal;
          Alcotest.test_case "stanza split rebuilds exactly" `Quick test_stanzas_roundtrip;
          Alcotest.test_case "file-level shrink" `Quick test_shrink_files_minimal;
          Alcotest.test_case "stanza-level shrink" `Quick test_shrink_stanza_level;
          Alcotest.test_case "repro directory" `Quick test_write_repro;
          Alcotest.test_case "violates predicate" `Quick test_violates_predicate;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_oracle_random_nets ] );
      ( "study",
        [ Alcotest.test_case "small study networks pass" `Slow test_study_small_networks ] );
    ]
