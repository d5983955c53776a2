open Rd_addr
open Rd_config
open Rd_core

type violation = {
  severity : Diag.severity;
  invariant : string;
  subject : string;
  detail : string;
}

type report = {
  network : string;
  routers : int;
  instances : int;
  converged : bool;
  approx : bool;
  checked : string list;
  skipped : (string * string) list;
  violations : violation list;
}

let all_invariants =
  [
    "sim-subset-static";
    "anonymize-structure";
    "deny-filter-monotone";
    "remove-router-monotone";
    "worklist-equals-rounds";
    "netlint-sim-agree";
  ]

(* --- admitted approximations ------------------------------------------- *)

(* Does any config hold a policy whose static lowering over-approximates
   it?  Every ACL and route-map counts, referenced or not. *)
let approximated (a : Analysis.t) =
  List.exists
    (fun (_, (cfg : Ast.t)) ->
      not
        (List.for_all Rd_policy.Acl.exact cfg.acls
        && List.for_all (Rd_policy.Route_map.exact ~lookup_acl:(Ast.find_acl cfg)) cfg.route_maps))
    a.configs

(* --- the sim⊆static oracle --------------------------------------------- *)

let instance_subject (a : Analysis.t) i =
  Rd_routing.Instance.to_string a.graph.assignment.instances.(i)

let witnesses prefixes =
  let shown = List.filteri (fun i _ -> i < 3) prefixes in
  String.concat ", " (List.map Prefix.to_string shown)
  ^ if List.length prefixes > 3 then Printf.sprintf " (+%d more)" (List.length prefixes - 3) else ""

(* The destinations the simulation installed in an instance's member
   processes, once each, in prefix order. *)
let member_dests (sim : Rd_sim.Propagate.t) (inst : Rd_routing.Instance.t) =
  List.concat_map
    (fun pid ->
      List.map
        (fun (rt : Rd_sim.Rib.route) -> rt.dest)
        (Rd_sim.Rib.routes (Rd_sim.Propagate.rib_of_process sim pid)))
    inst.members
  |> List.sort_uniq Prefix.compare

(* The violations for simulated routes [dests] that escape the static
   set [static], in two grades: a route whose network address is
   outside is a hard escape (an error, a warning under [approx]); a
   route that only covers more addresses than [static] grants is a soft
   one (a warning).  [hard] and [soft] open the two messages. *)
let escape_violations ~approx ~invariant ~subject ~hard ~soft static dests =
  let sticking =
    List.filter (fun p -> not (Prefix_set.subset (Prefix_set.of_prefix p) static)) dests
  in
  let outside, coarser =
    List.partition (fun p -> not (Prefix_set.mem (Prefix.network p) static)) sticking
  in
  let violation severity detail = { severity; invariant; subject; detail } in
  (if outside = [] then []
   else
     [
       violation
         (if approx then Diag.Warning else Diag.Error)
         (Printf.sprintf "%s: %s%s" hard (witnesses outside)
            (if approx then " (downgraded: config uses approximated policies)" else ""));
     ])
  @
  if coarser = [] then []
  else
    [
      violation Diag.Warning
        (Printf.sprintf "%s (network address contained): %s" soft (witnesses coarser));
    ]

(* Soundness relation (DESIGN.md §13): every route the converged
   simulation installs must be inside the static route set of the
   instance holding it.  Two grades of escape: a route whose *network
   address* is outside the static set breaks the relation outright
   (error); a route that merely covers more addresses than the static
   set grants (its network address is inside) is an artifact of
   lowering per-route filters — which match a route by its network
   address — to address sets, and is reported as a warning. *)
(* The simulation is the most expensive step of the oracle (seconds
   on the larger study networks); [sim] is a lazy shared with
   the [netlint-sim-agree] invariant so one cross-check run propagates
   routes at most once. *)
let sim_subset_static ~approx ~sim (a : Analysis.t) (r : Rd_reach.Reachability.t) =
  let sim : Rd_sim.Propagate.t = Lazy.force sim in
  if not sim.converged then
    Error
      (Printf.sprintf "simulation unconverged after %d rounds; containment proves nothing"
         sim.iterations)
  else begin
    let violations = ref [] in
    Array.iteri
      (fun i (inst : Rd_routing.Instance.t) ->
        let static = Rd_reach.Reachability.routes_of r i in
        let concrete = Rd_sim.Propagate.instance_prefix_set sim a.graph.assignment i in
        if not (Prefix_set.subset concrete static) then
          violations :=
            List.rev_append
              (escape_violations ~approx ~invariant:"sim-subset-static"
                 ~subject:(instance_subject a i)
                 ~hard:"simulated routes outside the static route set"
                 ~soft:"simulated routes coarser than the static set" static
                 (member_dests sim inst))
              !violations)
      a.graph.assignment.instances;
    Ok (List.rev !violations)
  end

(* --- metamorphic invariants -------------------------------------------- *)

(* Anonymization is structure-preserving by design (§4.1): the derived
   routing design of the anonymized text must match the original's
   shape even though every identifier and address changed. *)
let protocol_tag = function
  | Ast.Ospf -> "ospf"
  | Ast.Eigrp -> "eigrp"
  | Ast.Igrp -> "igrp"
  | Ast.Rip -> "rip"
  | Ast.Bgp -> "bgp"
  | Ast.Isis -> "isis"

let structure (a : Analysis.t) =
  let shapes =
    Array.to_list a.graph.assignment.instances
    |> List.map (fun (i : Rd_routing.Instance.t) ->
         Printf.sprintf "%s/%d/%d" (protocol_tag i.protocol) (List.length i.members)
           (List.length i.routers))
    |> List.sort compare
  in
  [
    ("routers", string_of_int (Analysis.router_count a));
    ("instances", string_of_int (Analysis.instance_count a));
    ("instance shapes", String.concat " " shapes);
    ("graph edges", string_of_int (List.length a.graph.edges));
    ("external ASes", string_of_int (List.length (Analysis.external_asns a)));
    ("address blocks", string_of_int (List.length a.blocks));
  ]

let anonymize_structure ?cancel (a : Analysis.t) = function
  | None -> Error "raw configuration texts not available"
  | Some files -> (
    let anonymizer = Anonymizer.create ~key:("crosscheck-" ^ a.name) in
    (* More distinct public ASes than anonymized slots is a budget trip:
       the invariant cannot be checked, so it is skipped. *)
    match
      List.map (fun (name, text) -> (name, Anonymizer.anonymize_config anonymizer text)) files
    with
    | exception (Rd_util.Limits.Budget_exceeded _ as e) -> Error (Printexc.to_string e)
    | anon ->
      let a' = Analysis.analyze ?cancel ~name:(a.name ^ "+anon") anon in
      Ok
        (List.filter_map
           (fun ((what, before), (_, after)) ->
             if String.equal before after then None
             else
               Some
                 {
                   severity = Diag.Error;
                   invariant = "anonymize-structure";
                   subject = what;
                   detail = Printf.sprintf "%s -> %s after anonymization" before after;
                 })
           (List.combine (structure a) (structure a'))))

(* Conjoining every edge filter with a deny set can only shrink the
   fixpoint: the static analysis is monotone in its filters. *)
let deny_filter_monotone ?cancel (a : Analysis.t) (r : Rd_reach.Reachability.t) =
  match Prefix_set.to_prefixes (Rd_reach.Reachability.internal_space r) with
  | [] -> Error "no internal address space to probe"
  | probe :: _ ->
    let deny =
      Rd_policy.Route_filter.of_prefix_set
        (Prefix_set.complement (Prefix_set.of_prefix probe))
    in
    let graph' =
      {
        a.graph with
        Rd_routing.Instance_graph.edges =
          List.map
            (fun (e : Rd_routing.Instance_graph.edge) ->
              { e with filter = Rd_policy.Route_filter.conj e.filter deny })
            a.graph.edges;
      }
    in
    let r' = Rd_reach.Reachability.compute ?cancel graph' in
    let violations = ref [] in
    Array.iteri
      (fun i _ ->
        let shrunk = Rd_reach.Reachability.routes_of r' i in
        let base = Rd_reach.Reachability.routes_of r i in
        if not (Prefix_set.subset shrunk base) then
          violations :=
            {
              severity = Diag.Error;
              invariant = "deny-filter-monotone";
              subject = instance_subject a i;
              detail =
                Printf.sprintf "route set grew under a deny filter on %s: %s"
                  (Prefix.to_string probe)
                  (witnesses (Prefix_set.to_prefixes (Prefix_set.diff shrunk base)));
            }
            :: !violations)
      a.graph.assignment.instances;
    Ok (List.rev !violations)

(* Removing a router removes origins and edges; no sampled host pair
   may become reachable.  Compared with empty external offers ([r0] is
   the baseline under that offer), as Whatif.compare does, so the
   unknown outside world cannot mask a growth. *)
let remove_router_monotone ?cancel (a : Analysis.t) ~r0 =
  if Array.length a.topo.routers = 0 then Error "no routers"
  else begin
    let name = fst a.topo.routers.(0) in
    let after = (Whatif.apply a [ Whatif.Remove_router name ]).analysis in
    let rb = Lazy.force r0 in
    let ra = Rd_reach.Reachability.compute ?cancel ~external_offers:Prefix_set.empty after.graph in
    let gained = Whatif.lost_pairs (Whatif.sample_hosts rb) ra rb in
    Ok
      (List.map
         (fun (src, dst) ->
           {
             severity = Diag.Error;
             invariant = "remove-router-monotone";
             subject = name;
             detail =
               Printf.sprintf "%s -> %s became reachable after removing router %s"
                 (Ipv4.to_string src) (Ipv4.to_string dst) name;
           })
         (List.filteri (fun i _ -> i < 8) gained))
  end

(* PR 5's 31-network regression, generalized: the worklist fixpoint and
   the legacy full-sweep fixpoint must agree exactly. *)
let worklist_equals_rounds ?cancel (a : Analysis.t) (r : Rd_reach.Reachability.t) =
  let r2 = Rd_reach.Reachability.compute_rounds ?cancel a.graph in
  let violations = ref [] in
  Array.iteri
    (fun i _ ->
      if
        not
          (Prefix_set.equal
             (Rd_reach.Reachability.routes_of r i)
             (Rd_reach.Reachability.routes_of r2 i))
      then
        violations :=
          {
            severity = Diag.Error;
            invariant = "worklist-equals-rounds";
            subject = instance_subject a i;
            detail = "worklist and round-sweep fixpoints disagree on the route set";
          }
          :: !violations)
    a.graph.assignment.instances;
  let sorted adv = List.sort (fun (a1, _) (a2, _) -> Int.compare a1 a2) adv in
  let adv1 = sorted r.advertised and adv2 = sorted r2.advertised in
  if
    List.length adv1 <> List.length adv2
    || not
         (List.for_all2
            (fun (as1, s1) (as2, s2) -> as1 = as2 && Prefix_set.equal s1 s2)
            adv1 adv2)
  then
    violations :=
      {
        severity = Diag.Error;
        invariant = "worklist-equals-rounds";
        subject = "advertised";
        detail = "worklist and round-sweep fixpoints disagree on advertised sets";
      }
      :: !violations;
  Ok (List.rev !violations)

(* Netlint's route-leak dataflow and the concrete simulation must tell
   one story about what escapes to each external AS.  Two directions:
   every leak Netlint reports must sit inside the static interior
   exposure of that AS (the leak BFS walks a sub-graph of the fixpoint,
   so an escape here is a bug in one of them), and every converged
   simulated route of internal origin that an unfiltered external BGP
   session would announce must also sit inside that exposure.  Interior
   exposure is computed with empty external offers ([r0]), so routes
   learned from outside cannot mask a disagreement. *)
let netlint_sim_agree ~approx (a : Analysis.t) ~sim ~r0 =
  let sim : Rd_sim.Propagate.t = Lazy.force sim in
  if not sim.converged then
    Error
      (Printf.sprintf "simulation unconverged after %d rounds; agreement proves nothing"
         sim.iterations)
  else begin
    let r0 = Lazy.force r0 in
    let exposure x =
      match List.assoc_opt x r0.Rd_reach.Reachability.advertised with
      | Some s -> s
      | None -> Prefix_set.empty
    in
    let violations = ref [] in
    List.iter
      (fun (l : Netlint.leak) ->
        if not (Prefix_set.subset l.leak_prefixes (exposure l.leak_asn)) then
          violations :=
            {
              severity = Diag.Error;
              invariant = "netlint-sim-agree";
              subject = Printf.sprintf "AS%d" l.leak_asn;
              detail =
                Printf.sprintf
                  "netlint leak from instance %d claims prefixes outside the static \
                   exposure: %s"
                  l.leak_origin
                  (witnesses
                     (Prefix_set.to_prefixes
                        (Prefix_set.diff l.leak_prefixes (exposure l.leak_asn))));
            }
            :: !violations)
      (Netlint.leaks a);
    let internal = Rd_reach.Reachability.internal_space r0 in
    List.iter
      (fun (e : Rd_routing.Instance_graph.edge) ->
        match (e.src, e.dst, e.via) with
        | Rd_routing.Instance_graph.Inst i,
          Rd_routing.Instance_graph.External x,
          Rd_routing.Instance_graph.Ebgp_session _ ->
          let expo = exposure x in
          let announced =
            List.filter
              (fun p ->
                Prefix_set.mem (Prefix.network p) internal
                && Rd_policy.Route_filter.permits e.filter p)
              (member_dests sim a.graph.assignment.instances.(i))
          in
          violations :=
            List.rev_append
              (escape_violations ~approx ~invariant:"netlint-sim-agree"
                 ~subject:(Printf.sprintf "AS%d via %s" x (instance_subject a i))
                 ~hard:"simulated internal routes announced beyond the static exposure"
                 ~soft:"simulated internal routes coarser than the static exposure" expo
                 announced)
              !violations
        | _ -> ())
      a.graph.edges;
    Ok (List.rev !violations)
  end

(* --- driver ------------------------------------------------------------- *)

let run_analysis ?cancel ?faults ?(invariants = all_invariants) ?files (a : Analysis.t) =
  (* The per-network oracle is a cancellation scope of its own: one
     poll before the baseline fixpoint, one between invariants, plus
     the polls inside every fixpoint/simulation it drives.  [faults]
     additionally arms the ["crosscheck.network"] site (key = network
     name), the chaos handle used to delay or kill one network's
     oracle. *)
  Rd_util.Fault.fault_point faults ~site:Rd_util.Fault.crosscheck_network ~key:a.name;
  Rd_util.Cancel.check ~site:"crosscheck.network" cancel;
  let r = Rd_reach.Reachability.compute ?cancel a.graph in
  let approx = approximated a in
  (* One shared simulation, and one empty-offer baseline fixpoint, for
     every invariant that needs them. *)
  let sim =
    lazy (Rd_sim.Propagate.run ?cancel ?faults (Rd_routing.Process_graph.build a.catalog))
  in
  let r0 = lazy (Rd_reach.Reachability.compute ?cancel ~external_offers:Prefix_set.empty a.graph) in
  let checked = ref [] and skipped = ref [] and violations = ref [] in
  let converged = ref true in
  let record inv result =
    match result with
    | Ok vs ->
      checked := inv :: !checked;
      violations := !violations @ vs
    | Error reason -> skipped := (inv, reason) :: !skipped
  in
  List.iter
    (fun inv ->
      Rd_util.Cancel.check ~site:"crosscheck.invariant" cancel;
      match inv with
      | "sim-subset-static" ->
        let result = sim_subset_static ~approx ~sim a r in
        (match result with Error _ -> converged := false | Ok _ -> ());
        record inv result
      | "netlint-sim-agree" -> record inv (netlint_sim_agree ~approx a ~sim ~r0)
      | "anonymize-structure" -> record inv (anonymize_structure ?cancel a files)
      | "deny-filter-monotone" -> record inv (deny_filter_monotone ?cancel a r)
      | "remove-router-monotone" -> record inv (remove_router_monotone ?cancel a ~r0)
      | "worklist-equals-rounds" -> record inv (worklist_equals_rounds ?cancel a r)
      | other -> skipped := (other, "unknown invariant") :: !skipped)
    invariants;
  {
    network = a.name;
    routers = Analysis.router_count a;
    instances = Analysis.instance_count a;
    converged = !converged;
    approx;
    checked = List.rev !checked;
    skipped = List.rev !skipped;
    violations = !violations;
  }

let run ?cancel ?faults ?invariants ~name files =
  let a = Analysis.analyze ?cancel ?faults ~name files in
  run_analysis ?cancel ?faults ?invariants ~files a

let violates ~invariant ~name files =
  match run ~invariants:[ invariant ] ~name files with
  | report -> List.exists (fun v -> v.invariant = invariant) report.violations
  | exception _ -> false

let severity_counts reports =
  List.fold_left
    (fun (e, w) (r : report) ->
      List.fold_left
        (fun (e, w) v ->
          match v.severity with
          | Diag.Error -> (e + 1, w)
          | Diag.Warning | Diag.Info -> (e, w + 1))
        (e, w) r.violations)
    (0, 0) reports

let has_errors reports =
  List.exists
    (fun (r : report) -> List.exists (fun v -> v.severity = Diag.Error) r.violations)
    reports

let render reports =
  let buf = Buffer.create 1024 in
  let rows =
    List.map
      (fun (r : report) ->
        let e, w = severity_counts [ r ] in
        [
          r.network;
          string_of_int r.routers;
          string_of_int r.instances;
          (if r.converged then "yes" else "no");
          (if r.approx then "yes" else "no");
          string_of_int (List.length r.checked);
          string_of_int (List.length r.skipped);
          Printf.sprintf "%dE/%dW" e w;
        ])
      reports
  in
  Buffer.add_string buf
    (Rd_util.Table.render
       ~headers:
         [ "network"; "routers"; "insts"; "sim"; "approx"; "checked"; "skipped"; "violations" ]
       ~aligns:
         Rd_util.Table.
           [ Left; Right; Right; Left; Left; Right; Right; Right ]
       rows);
  List.iter
    (fun (r : report) ->
      List.iter
        (fun (inv, reason) ->
          Printf.bprintf buf "SKIP %s %s: %s\n" r.network inv reason)
        r.skipped;
      List.iter
        (fun v ->
          Printf.bprintf buf "%s %s %s [%s]: %s\n"
            (String.uppercase_ascii (Diag.severity_to_string v.severity))
            r.network v.invariant v.subject v.detail)
        r.violations)
    reports;
  let e, w = severity_counts reports in
  Printf.bprintf buf "%d networks cross-checked, %d errors, %d warnings\n"
    (List.length reports) e w;
  Buffer.contents buf

let report_to_json (r : report) =
  let open Rd_util.Json in
  let violation v =
    Obj
      [
        ("severity", String (Diag.severity_to_string v.severity));
        ("invariant", String v.invariant);
        ("subject", String v.subject);
        ("detail", String v.detail);
      ]
  in
  Obj
    [
      ("network", String r.network);
      ("routers", Int r.routers);
      ("instances", Int r.instances);
      ("converged", Bool r.converged);
      ("approx", Bool r.approx);
      ("checked", List (List.map (fun s -> String s) r.checked));
      ( "skipped",
        List
          (List.map
             (fun (inv, reason) ->
               Obj [ ("invariant", String inv); ("reason", String reason) ])
             r.skipped) );
      ("violations", List (List.map violation r.violations));
    ]

(* Inverse of {!report_to_json}, total: [None] on any shape mismatch —
   the policy a checkpoint store demands (a stale or foreign entry must
   read as a miss, never crash a resume). *)
let report_of_json j =
  let open Rd_util.Json in
  let ( let* ) = Option.bind in
  let str = function String s -> Some s | _ -> None in
  let int = function Int i -> Some i | _ -> None in
  let bool = function Bool b -> Some b | _ -> None in
  let list_of f = function
    | List l ->
      List.fold_right
        (fun x acc ->
          let* acc = acc in
          let* x = f x in
          Some (x :: acc))
        l (Some [])
    | _ -> None
  in
  let field k f j =
    let* v = member k j in
    f v
  in
  let severity v =
    let* s = str v in
    match s with
    | "error" -> Some Diag.Error
    | "warning" -> Some Diag.Warning
    | "info" -> Some Diag.Info
    | _ -> None
  in
  let violation v =
    let* severity = field "severity" severity v in
    let* invariant = field "invariant" str v in
    let* subject = field "subject" str v in
    let* detail = field "detail" str v in
    Some { severity; invariant; subject; detail }
  in
  let skip s =
    let* inv = field "invariant" str s in
    let* reason = field "reason" str s in
    Some (inv, reason)
  in
  let* network = field "network" str j in
  let* routers = field "routers" int j in
  let* instances = field "instances" int j in
  let* converged = field "converged" bool j in
  let* approx = field "approx" bool j in
  let* checked = field "checked" (list_of str) j in
  let* skipped = field "skipped" (list_of skip) j in
  let* violations = field "violations" (list_of violation) j in
  Some { network; routers; instances; converged; approx; checked; skipped; violations }

let to_json reports =
  let open Rd_util.Json in
  let e, w = severity_counts reports in
  Obj
    [
      ("networks", List (List.map report_to_json reports));
      ("errors", Int e);
      ("warnings", Int w);
    ]
