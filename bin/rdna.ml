(* rdna — Routing Design Network Analyzer.

   Command-line front end for the reverse-engineering methodology:
   parse and anonymize configuration files, derive routing instances,
   pathways and reachability, generate synthetic networks, and run the
   31-network study. *)

open Cmdliner

(* --- shared helpers ----------------------------------------------------- *)

let die ~code fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "rdna: error [%s]: %s\n" code msg;
      exit 1)
    fmt

(* Failures an entry point can legitimately hit — unreadable input,
   injected chaos, a blown budget — become one-line coded errors on
   stderr with exit 1.  A raw backtrace reaching the user is a bug. *)
let guard f =
  try f () with
  | Sys_error msg -> die ~code:"io" "%s" msg
  | Rd_util.Cancel.Cancelled _ as e ->
    (* 130, the shell's interrupted convention — distinct from the coded
       exit 1, so wrappers can tell "stopped on request or deadline"
       from "found problems". *)
    Printf.eprintf "rdna: error [cancelled]: %s\n" (Printexc.to_string e);
    exit 130
  | Rd_util.Fault.Injected _ as e -> die ~code:"fault-injected" "%s" (Printexc.to_string e)
  | Rd_util.Limits.Budget_exceeded _ as e ->
    die ~code:"budget-exceeded" "%s" (Printexc.to_string e)

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let load_dir dir =
  if not (Sys.file_exists dir) then die ~code:"no-such-dir" "%s: no such directory" dir;
  if not (Sys.is_directory dir) then die ~code:"not-a-dir" "%s: not a directory" dir;
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter_map (fun f ->
       let path = Filename.concat dir f in
       if Sys.is_directory path then None else Some (f, read_file path))

let analyze_dir dir = Rd_core.Analysis.analyze ~name:(Filename.basename dir) (load_dir dir)

(* --- shared flag groups --------------------------------------------------- *)

(* Each group of flags that several subcommands accept is declared once
   here, next to the one helper its flags need; a subcommand composes
   only the groups it takes. *)

(* [--seed --only]: which networks of the study population to build. *)
type population = { seed : int; only : int list option }

let population_term =
  let seed =
    Arg.(value & opt int 2004
         & info [ "seed" ] ~docv:"SEED" ~doc:"Master seed of the study population.")
  in
  let only =
    Arg.(value & opt (list int) []
         & info [ "only" ] ~docv:"IDS" ~doc:"Comma-separated net ids (default: all 31).")
  in
  Term.(
    const (fun seed only -> { seed; only = (match only with [] -> None | ids -> Some ids) })
    $ seed $ only)

(* [DIR | --study --seed --only]: one directory of configurations, or the
   study population.  Giving both, or neither, is a usage error. *)
type target = Dir of string | Study of population

let target_term ~study_doc =
  let dir =
    Arg.(value & pos 0 (some string) None
         & info [] ~docv:"DIR" ~doc:"Directory of configuration files (omit with $(b,--study)).")
  in
  let study = Arg.(value & flag & info [ "study" ] ~doc:study_doc) in
  let target dir study population =
    match (dir, study) with
    | Some _, true -> die ~code:"usage" "give either DIR or --study, not both"
    | None, false -> die ~code:"usage" "give a DIR of configurations or --study"
    | Some d, false -> Dir d
    | None, true -> Study population
  in
  Term.(const target $ dir $ study $ population_term)

(* [-j N] and [--json]. *)
let jobs_term ~doc =
  Arg.(value & opt int (Rd_util.Pool.default_jobs ()) & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let json_term ~doc = Arg.(value & flag & info [ "json" ] ~doc)

(* [--deadline --task-timeout]: the run's time budgets. *)
type budget = { deadline : float option; task_timeout : float option }

let budget_term =
  let deadline =
    Arg.(value & opt (some float) None
         & info [ "deadline" ] ~docv:"SEC"
             ~doc:"Whole-run budget: after $(docv) seconds every remaining network degrades \
                   to a Timed_out failure row at its next poll point (exit 1), instead of \
                   running to completion.")
  in
  let task_timeout =
    Arg.(value & opt (some float) None
         & info [ "task-timeout" ] ~docv:"SEC"
             ~doc:"Per-network budget, clocked from each network's start: one slow network \
                   degrades alone while the rest of the sweep completes.")
  in
  Term.(const (fun deadline task_timeout -> { deadline; task_timeout }) $ deadline $ task_timeout)

(* Every long-running entry point builds one root token: [--deadline]
   arms it with an absolute expiry, SIGINT/SIGTERM trip it by hand.
   Work stops cooperatively at the next poll point; the command then
   renders whatever completed (partial tables included), flushes its
   trace/metrics/checkpoint sinks, and exits through
   [exit_interrupted].  A single-directory run works under the root's
   task token ([Rd_util.Cancel.task] with [--task-timeout]); a study
   sweep derives one per network. *)
let root_token (b : budget) =
  let root = Rd_util.Cancel.create ?deadline:b.deadline () in
  let handle name = Sys.Signal_handle (fun _ -> Rd_util.Cancel.cancel ~reason:name root) in
  (try Sys.set_signal Sys.sigint (handle "SIGINT") with Invalid_argument _ | Sys_error _ -> ());
  (try Sys.set_signal Sys.sigterm (handle "SIGTERM") with Invalid_argument _ | Sys_error _ -> ());
  root

(* Interrupted by signal: exit 130 after the partial output is out.  A
   tripped [--deadline] is not a signal — the run degrades per network
   and exits 1 through the failures path instead. *)
let exit_interrupted root =
  match Rd_util.Cancel.status root with
  | Some (Rd_util.Cancel.Stopped _) -> exit 130
  | _ -> ()

(* [--deadline --task-timeout --checkpoint --resume]: supervision of a
   --study sweep. *)
type supervision = { budget : budget; checkpoint : string option; resume : bool }

let supervision_term =
  let checkpoint =
    Arg.(value & opt (some string) None
         & info [ "checkpoint" ] ~docv:"DIR"
             ~doc:"Durably persist each completed network's result to the content-addressed \
                   store in $(docv) as it finishes (atomic write-then-rename; corrupt entries \
                   degrade to misses).")
  in
  let resume =
    Arg.(value & flag
         & info [ "resume" ]
             ~doc:"Probe the $(b,--checkpoint) store before building each network and replay \
                   hits verbatim — an interrupted sweep restarted with $(b,--resume) produces \
                   a byte-identical report, skipping the finished networks (the stderr store \
                   stats line shows the hits).")
  in
  Term.(
    const (fun budget checkpoint resume -> { budget; checkpoint; resume })
    $ budget_term $ checkpoint $ resume)

let open_checkpoint ?metrics s =
  match s.checkpoint with
  | None ->
    if s.resume then die ~code:"usage" "--resume requires --checkpoint DIR";
    None
  | Some d -> Some (Rd_study.Checkpoint.open_dir ?metrics d)

let checkpoint_stats = function
  | None -> ()
  | Some ck -> Printf.eprintf "%s\n" (Rd_study.Checkpoint.render_stats ck)

(* The checkpoint store keys study networks; a directory run has none. *)
let no_checkpoint s =
  if s.checkpoint <> None || s.resume then
    die ~code:"usage" "--checkpoint/--resume apply to --study sweeps"

(* [--trace FILE --metrics]: purely observational sinks — output is
   byte-identical with or without them. *)
type observability = { trace_file : string option; print_metrics : bool }

let observability_term ~metrics_doc =
  let trace_file =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Write a Chrome trace_event JSON timeline of the run to $(docv) (open in \
                   chrome://tracing or Perfetto).  Nested spans cover analysis stages, pool \
                   tasks and cache misses.")
  in
  let print_metrics = Arg.(value & flag & info [ "metrics" ] ~doc:metrics_doc) in
  Term.(
    const (fun trace_file print_metrics -> { trace_file; print_metrics })
    $ trace_file $ print_metrics)

(* The sinks [o] asks for; [trace] and [metrics] force one on for a
   flag of the subcommand's own that reads it. *)
let open_sinks ?(trace = false) ?(metrics = false) o =
  ( (if trace || o.trace_file <> None then Some (Rd_util.Trace.create ()) else None),
    if metrics || o.print_metrics then Some (Rd_util.Metrics.create ()) else None )

let close_sinks o (trace, metrics) =
  (match (trace, o.trace_file) with
   | Some t, Some path ->
     Rd_util.Trace.to_file t path;
     Printf.eprintf "trace written to %s (%d spans)\n" path (List.length (Rd_util.Trace.spans t))
   | _ -> ());
  match metrics with
  | Some m when o.print_metrics ->
    print_endline "--- metrics ---";
    print_string (Rd_util.Metrics.render m)
  | _ -> ()

(* [--inject-faults SPEC], falling back to the RDNA_FAULTS variable. *)
let inject_term =
  Arg.(value & opt (some string) None
       & info [ "inject-faults" ] ~docv:"SPEC"
           ~doc:("Deterministic chaos: inject faults per $(docv) (e.g. \
                  $(b,seed=7;study.network:raise:key=net4)); falls back to the \
                  $(b,RDNA_FAULTS) environment variable.  See the Fault module for the \
                  grammar.  Sites: " ^ String.concat ", " Rd_util.Fault.sites ^ "."))

let faults_of inject =
  match inject with
  | Some spec -> (
    match Rd_util.Fault.of_spec spec with
    | Ok f -> Some f
    | Error msg -> die ~code:"bad-fault-spec" "--inject-faults: %s" msg)
  | None -> (
    match Rd_util.Fault.from_env () with
    | Ok f -> f
    | Error msg -> die ~code:"bad-fault-spec" "RDNA_FAULTS: %s" msg)

(* A plain string, not cmdliner's [dir] converter: the latter rejects a
   missing directory with its own usage-style message and exit 124,
   where every entry point must answer with a coded one-liner, exit 1. *)
let dir_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR" ~doc:"Directory of configuration files.")

(* --- parse -------------------------------------------------------------- *)

let parse_cmd =
  let run dir strict =
    guard @@ fun () ->
    let errors = ref 0 in
    List.iter
      (fun (name, text) ->
        let c, diags = Rd_config.Parser.parse_with_diags ~file:name text in
        let e, w, _ = Rd_config.Diag.counts diags in
        errors := !errors + e;
        Printf.printf "%s: %d lines, %d commands, %d interfaces, %d processes, %d acls, %d route-maps, %d statics, %d unknown\n"
          name c.total_lines c.command_count (List.length c.interfaces)
          (List.length c.processes) (List.length c.acls) (List.length c.route_maps)
          (List.length c.statics) (List.length c.unknown);
        if strict && (e > 0 || w > 0) then
          List.iter (fun d -> print_endline ("  " ^ Rd_config.Diag.to_string d)) diags)
      (load_dir dir);
    if strict && !errors > 0 then begin
      Printf.eprintf "%d parse errors\n" !errors;
      exit 1
    end
  in
  let strict_arg =
    Arg.(value & flag
         & info [ "strict" ]
             ~doc:"Print parse diagnostics and exit non-zero if any line of a modeled command \
                   was malformed (error-severity diagnostics).")
  in
  Cmd.v (Cmd.info "parse" ~doc:"Parse configuration files and report per-file statistics.")
    Term.(const run $ dir_arg $ strict_arg)

(* --- lint --------------------------------------------------------------- *)

let lint_cmd =
  let run dir json jobs =
    guard @@ fun () ->
    let files = load_dir dir in
    let a = Rd_core.Analysis.analyze ~jobs ~name:(Filename.basename dir) files in
    let diags = Rd_core.Lint.run ~files a in
    if json then print_endline (Rd_util.Json.to_string (Rd_config.Diag.to_json diags))
    else begin
      print_string (Rd_config.Diag.render diags);
      let e, w, i = Rd_config.Diag.counts diags in
      if e + w + i > 0 then Printf.printf "%d errors, %d warnings, %d notes\n" e w i
    end;
    if Rd_config.Diag.has_errors diags then exit 1
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Static checks on configuration files: parse diagnostics plus cross-reference and \
             consistency rules (dangling/unused/duplicate ACLs and route-maps, BGP neighbors \
             without remote-as, OSPF redistribution without metric, overlapping interface \
             addresses), then the design checks of paper §8.1 (unfiltered peerings and edge \
             interfaces, incomplete adjacencies, duplicate addresses, static-route and OSPF \
             area hazards).  Exits non-zero if any error-severity finding is reported.")
    Term.(const run $ dir_arg
          $ json_term ~doc:"Emit diagnostics as a JSON array."
          $ jobs_term ~doc:"Worker domains for parsing the configurations.")

(* --- anonymize ---------------------------------------------------------- *)

let anonymize_cmd =
  let run dir key out =
    guard @@ fun () ->
    let anonymizer = Rd_config.Anonymizer.create ~key in
    if not (Sys.file_exists out) then Sys.mkdir out 0o755;
    List.iteri
      (fun i (_, text) ->
        let oc = open_out (Filename.concat out (Printf.sprintf "config%d" (i + 1))) in
        output_string oc (Rd_config.Anonymizer.anonymize_config anonymizer text);
        close_out oc)
      (load_dir dir);
    Printf.printf "anonymized files written to %s\n" out
  in
  let key_arg =
    Arg.(value & opt string "rdna" & info [ "key" ] ~docv:"KEY" ~doc:"Anonymization key.")
  in
  let out_arg =
    Arg.(value & opt string "anonymized" & info [ "out"; "o" ] ~docv:"OUT" ~doc:"Output directory.")
  in
  Cmd.v
    (Cmd.info "anonymize"
       ~doc:"Anonymize configuration files (SHA-1 token hashing, prefix-preserving addresses).")
    Term.(const run $ dir_arg $ key_arg $ out_arg)

(* --- summary / instances ------------------------------------------------ *)

let summary_cmd =
  let run dir = guard @@ fun () -> print_string (Rd_core.Analysis.summary (analyze_dir dir)) in
  Cmd.v
    (Cmd.info "summary" ~doc:"Full routing-design summary of a directory of configurations.")
    Term.(const run $ dir_arg)

let instances_cmd =
  let run dir =
    guard @@ fun () ->
    let a = analyze_dir dir in
    Array.iter
      (fun i -> print_endline (Rd_routing.Instance.to_string i))
      a.graph.assignment.instances;
    let ev = Rd_core.Design_class.classify a in
    Printf.printf "design classification: %s\n"
      (Rd_core.Design_class.design_to_string ev.design)
  in
  Cmd.v (Cmd.info "instances" ~doc:"List the network's routing instances.")
    Term.(const run $ dir_arg)

(* --- processes -------------------------------------------------------------- *)

let processes_cmd =
  let run dir =
    guard @@ fun () ->
    let a = analyze_dir dir in
    print_string (Rd_routing.Process_graph.render (Rd_routing.Process_graph.build a.catalog))
  in
  Cmd.v
    (Cmd.info "processes" ~doc:"The routing process graph: RIBs, adjacencies, redistributions (paper §3.1).")
    Term.(const run $ dir_arg)

(* --- roles ---------------------------------------------------------------- *)

let roles_cmd =
  let run dir =
    guard @@ fun () ->
    let a = analyze_dir dir in
    let c = Rd_core.Roles.count a in
    let row name (intra, inter) = [ name; string_of_int intra; string_of_int inter ] in
    Rd_util.Table.print
      ~headers:[ "protocol"; "intra"; "inter" ]
      ~aligns:[ Rd_util.Table.Left; Rd_util.Table.Right; Rd_util.Table.Right ]
      [
        row "OSPF (instances)" c.ospf;
        row "EIGRP (instances)" c.eigrp;
        row "RIP (instances)" c.rip;
        row "EBGP (sessions)" c.ebgp_sessions;
      ];
    let igp, ebgp = Rd_core.Roles.total_conventional_fraction c in
    Printf.printf "conventional: %.1f%% IGP intra, %.1f%% EBGP inter\n" (100.0 *. igp)
      (100.0 *. ebgp)
  in
  Cmd.v (Cmd.info "roles" ~doc:"Intra/inter-domain protocol roles (paper Table 1).")
    Term.(const run $ dir_arg)

(* --- areas ---------------------------------------------------------------- *)

let areas_cmd =
  let run dir =
    guard @@ fun () ->
    let a = analyze_dir dir in
    let infos = Rd_routing.Areas.analyze a.catalog a.graph.assignment in
    if infos = [] then print_endline "no OSPF instances"
    else List.iter (fun info -> print_string (Rd_routing.Areas.render a.catalog info)) infos
  in
  Cmd.v (Cmd.info "areas" ~doc:"OSPF area structure and area border routers.")
    Term.(const run $ dir_arg)

(* --- pathway ------------------------------------------------------------ *)

let pathway_cmd =
  let run dir router =
    guard @@ fun () ->
    let a = analyze_dir dir in
    match Rd_topo.Topology.router_index a.topo router with
    | None -> die ~code:"no-such-router" "%s: no such router" router
    | Some ri ->
      print_string (Rd_routing.Pathway.render a.graph (Rd_routing.Pathway.build a.graph ~router:ri))
  in
  let router_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"ROUTER" ~doc:"Router hostname or file name.")
  in
  Cmd.v (Cmd.info "pathway" ~doc:"Route pathway graph for a router (paper §3.3).")
    Term.(const run $ dir_arg $ router_arg)

(* --- reach -------------------------------------------------------------- *)

let reach_cmd =
  let run dir src dst =
    guard @@ fun () ->
    match (Rd_addr.Ipv4.of_string src, Rd_addr.Ipv4.of_string dst) with
    | Some s, Some d ->
      let a = analyze_dir dir in
      let r = Rd_reach.Reachability.compute a.graph in
      Printf.printf "%s -> %s: %b\n" src dst (Rd_reach.Reachability.can_reach r ~src:s ~dst:d);
      Printf.printf "%s -> %s: %b\n" dst src (Rd_reach.Reachability.can_reach r ~src:d ~dst:s)
    | None, _ -> die ~code:"bad-address" "%s: not an IPv4 address" src
    | _, None -> die ~code:"bad-address" "%s: not an IPv4 address" dst
  in
  let addr n doc = Arg.(required & pos n (some string) None & info [] ~docv:"ADDR" ~doc) in
  Cmd.v (Cmd.info "reach" ~doc:"Static reachability verdict between two addresses (§6.2).")
    Term.(const run $ dir_arg $ addr 1 "Source address." $ addr 2 "Destination address.")

(* --- dot ---------------------------------------------------------------- *)

let dot_cmd =
  let run dir which =
    guard @@ fun () ->
    match which with
    | "instances" -> print_string (Rd_routing.Instance_graph.to_dot (analyze_dir dir).graph)
    | "processes" ->
      print_string
        (Rd_routing.Process_graph.to_dot
           (Rd_routing.Process_graph.build (analyze_dir dir).catalog))
    | other -> die ~code:"unknown-graph" "%s: unknown graph (expected instances|processes)" other
  in
  let which_arg =
    Arg.(value & pos 1 string "instances" & info [] ~docv:"GRAPH" ~doc:"instances or processes.")
  in
  Cmd.v (Cmd.info "dot" ~doc:"Export the instance or process graph as Graphviz DOT.")
    Term.(const run $ dir_arg $ which_arg)

(* --- inventory ------------------------------------------------------------ *)

let inventory_cmd =
  let run dir against =
    guard @@ fun () ->
    let a = analyze_dir dir in
    match against with
    | None -> print_string (Rd_core.Inventory.report a)
    | Some other ->
      let b = analyze_dir other in
      print_string
        (Rd_core.Inventory.render_delta (Rd_core.Inventory.diff ~old_snapshot:a ~new_snapshot:b))
  in
  let against_arg =
    Arg.(value & opt (some string) None & info [ "against" ] ~docv:"DIR" ~doc:"Diff against a newer snapshot directory.")
  in
  Cmd.v
    (Cmd.info "inventory" ~doc:"Equipment/addressing inventory, or a snapshot diff (paper §8.1).")
    Term.(const run $ dir_arg $ against_arg)

(* --- whatif ------------------------------------------------------------- *)

let whatif_cmd =
  let module J = Rd_util.Json in
  let cache_json engine =
    J.Obj
      (List.map
         (fun (name, (s : Rd_util.Cache.stats)) ->
           ( name,
             J.Obj
               [
                 ("hits", J.Int s.hits);
                 ("misses", J.Int s.misses);
                 ("evictions", J.Int s.evictions);
                 ("invalidations", J.Int s.invalidations);
               ] ))
         (Rd_core.Engine.stats engine))
  in
  let run target batch remove_routers remove_links shutdowns json obs sup =
    guard @@ fun () ->
    let ((trace, metrics) as sinks) = open_sinks obs in
    let inline_changes =
      List.map (fun r -> Rd_core.Whatif.Remove_router r) remove_routers
      @ List.map
          (fun l ->
            match Rd_addr.Prefix.of_string l with
            | Some p -> Rd_core.Whatif.Remove_link p
            | None -> die ~code:"usage" "--remove-link %s: not a prefix (a.b.c.d/len)" l)
          remove_links
      @ List.map
          (fun s ->
            match String.index_opt s ':' with
            | Some i when i > 0 && i < String.length s - 1 ->
              Rd_core.Whatif.Shutdown_interface
                (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
            | _ -> die ~code:"usage" "--shutdown-interface %s: expected ROUTER:IFACE" s)
          shutdowns
    in
    match target with
    | Study pop ->
      if inline_changes <> [] || batch <> None then
        die ~code:"usage" "--study derives per-network scenarios; it excludes --batch and \
                           inline change flags";
      let root = root_token sup.budget in
      let checkpoint = open_checkpoint ?metrics sup in
      let engine = Rd_core.Engine.create ?metrics ?trace () in
      let results =
        Rd_study.Driver.sweep ?trace ?metrics ~cancel:root ?task_timeout:sup.budget.task_timeout
          ~jobs:1 ?checkpoint ~resume:sup.resume ?only:pop.only ~master_seed:pop.seed
          (Rd_study.Driver.whatif engine)
      in
      let networks, failures = Rd_study.Population.partition results in
      (if json then
         let network (label, summaries) = Rd_study.Experiments.whatif_json label summaries in
         print_endline
           (J.to_string
              (J.Obj
                 [ ("networks", J.List (List.map network networks)); ("cache", cache_json engine) ]))
       else print_string (Rd_study.Experiments.render_whatif ~engine networks));
      if failures <> [] then
        print_string
          (Rd_study.Population.render_failures ~total:(List.length results) failures);
      close_sinks obs sinks;
      checkpoint_stats checkpoint;
      exit_interrupted root;
      if failures <> [] then exit 1
    | Dir d ->
      no_checkpoint sup;
      let root = root_token sup.budget in
      let cancel = Rd_util.Cancel.task ?timeout:sup.budget.task_timeout (Some root) in
      let name = Filename.basename d in
      let files = load_dir d in
      let scenarios =
        match batch with
        | Some path ->
          if inline_changes <> [] then
            die ~code:"usage" "--batch excludes inline change flags";
          (match Rd_core.Whatif.parse_scenarios (read_file path) with
           | Ok [] -> die ~code:"usage" "%s: no scenarios" path
           | Ok s -> s
           | Error e -> die ~code:"bad-scenario" "%s: %s" path e)
        | None ->
          if inline_changes = [] then
            die ~code:"usage"
              "nothing to change (use --remove-router/--remove-link/--shutdown-interface, \
               or --batch FILE)"
          else [ { Rd_core.Whatif.label = "cli"; changes = inline_changes } ]
      in
      let engine = Rd_core.Engine.create ?metrics ?trace ?cancel () in
      let net = Rd_core.Engine.load engine ~name files in
      let outcomes = Rd_core.Engine.run_scenarios engine net scenarios in
      let summaries = List.map Rd_study.Experiments.summarize outcomes in
      (if json then
         print_endline
           (J.to_string
              (J.Obj
                 [
                   ("network", J.String name);
                   ("scenarios", J.List (List.map Rd_study.Experiments.summary_to_json summaries));
                   ("cache", cache_json engine);
                 ]))
       else
         match (batch, outcomes) with
         | None, [ o ] ->
           (* single inline scenario: the classic detailed diff *)
           print_string (Rd_core.Whatif.render o.diff)
         | _ -> print_string (Rd_study.Experiments.whatif_table [ (name, summaries) ]));
      close_sinks obs sinks;
      exit_interrupted root
  in
  let study_doc =
    "Sweep derived maintenance scenarios over every network of the 31-network study \
     population through one shared incremental engine."
  in
  let batch_arg =
    Arg.(value & opt (some string) None
         & info [ "batch" ] ~docv:"SCENARIOS"
             ~doc:"Run every scenario of $(docv) (one per line: \
                   $(b,[LABEL:] CHANGE [; CHANGE]...) where a change is \
                   $(b,remove-router NAME), $(b,remove-link A.B.C.D/LEN), or \
                   $(b,shutdown-interface ROUTER IFACE); $(b,#) comments allowed) against \
                   the one loaded network, reusing parsed state, the baseline reachability \
                   fixpoint, and per-scenario artifacts between scenarios.")
  in
  let routers_arg =
    Arg.(value & opt_all string [] & info [ "remove-router" ] ~docv:"NAME" ~doc:"Take a router out of service.")
  in
  let links_arg =
    Arg.(value & opt_all string [] & info [ "remove-link" ] ~docv:"SUBNET" ~doc:"Shut the link with this subnet (a.b.c.d/len).")
  in
  let shutdown_arg =
    Arg.(value & opt_all string []
         & info [ "shutdown-interface" ] ~docv:"ROUTER:IFACE"
             ~doc:"Administratively shut one interface (colon-separated because interface \
                   names contain slashes, e.g. $(b,core1:Serial0/0)).")
  in
  let json_doc =
    "Emit per-scenario impact records and engine cache statistics as JSON (what CI archives)."
  in
  let metrics_doc =
    "Collect cache hit/miss/eviction and fixpoint counters during the sweep and print the \
     registry snapshot as tables."
  in
  Cmd.v
    (Cmd.info "whatif"
       ~doc:"Model the effect of failures/maintenance on the design (paper §8.1), \
             incrementally: batch scenarios share one content-addressed engine, which \
             solves the baseline fixpoint once per network and memoizes every scenario's \
             changed network and fixpoint.")
    Term.(const run $ target_term ~study_doc $ batch_arg $ routers_arg $ links_arg
          $ shutdown_arg $ json_term ~doc:json_doc $ observability_term ~metrics_doc
          $ supervision_term)

(* --- crosscheck --------------------------------------------------------- *)

let crosscheck_cmd =
  let run target jobs json shrink repro_dir inject sup =
    guard @@ fun () ->
    let faults = faults_of inject in
    let shrink_one ~name ~files (r : Rd_check.Crosscheck.report) =
      match r.violations with
      | [] -> ()
      | v :: _ ->
        let violates fs = Rd_check.Crosscheck.violates ~invariant:v.invariant ~name fs in
        let minimal = Rd_check.Shrink.shrink ~violates files in
        let out = Filename.concat repro_dir (name ^ "-" ^ v.invariant) in
        Rd_check.Shrink.write_repro ~dir:out ~network:name ~invariant:v.invariant
          ~detail:v.detail minimal;
        Printf.eprintf "repro written to %s (%d of %d files)\n" out (List.length minimal)
          (List.length files)
    in
    match target with
    | Dir d ->
      no_checkpoint sup;
      let root = root_token sup.budget in
      let cancel = Rd_util.Cancel.task ?timeout:sup.budget.task_timeout (Some root) in
      let name = Filename.basename d in
      let files = load_dir d in
      let reports = [ Rd_check.Crosscheck.run ?cancel ?faults ~name files ] in
      if json then
        print_endline (Rd_util.Json.to_string (Rd_check.Crosscheck.to_json reports))
      else print_string (Rd_check.Crosscheck.render reports);
      if shrink then List.iter (shrink_one ~name ~files) reports;
      exit_interrupted root;
      if Rd_check.Crosscheck.has_errors reports then exit 1
    | Study pop ->
      let root = root_token sup.budget in
      let checkpoint = open_checkpoint sup in
      (* The fault spec changes results, so it joins the resume key — a
         resumed run under different chaos misses instead of replaying. *)
      let salt = match inject with Some spec -> [ "faults=" ^ spec ] | None -> [] in
      let results =
        Rd_study.Driver.sweep ?faults ~cancel:root ?task_timeout:sup.budget.task_timeout ~jobs
          ?checkpoint ~resume:sup.resume ?only:pop.only ~master_seed:pop.seed
          (Rd_study.Driver.crosscheck ?faults ~salt ())
      in
      let reports, failures = Rd_study.Population.partition results in
      if json then
        print_endline (Rd_util.Json.to_string (Rd_check.Crosscheck.to_json reports))
      else print_string (Rd_check.Crosscheck.render reports);
      if failures <> [] then
        print_string
          (Rd_study.Population.render_failures ~total:(List.length results) failures);
      if shrink then begin
        let specs = Rd_study.Population.specs ~master_seed:pop.seed in
        List.iter
          (fun (report : Rd_check.Crosscheck.report) ->
            if report.violations <> [] then
              let spec =
                List.find (fun (s : Rd_study.Population.spec) -> s.label = report.network) specs
              in
              shrink_one ~name:spec.label ~files:(Rd_study.Population.generate_one spec) report)
          reports
      end;
      checkpoint_stats checkpoint;
      exit_interrupted root;
      if failures <> [] || Rd_check.Crosscheck.has_errors reports then exit 1
  in
  let shrink_arg =
    Arg.(value & flag
         & info [ "shrink" ]
             ~doc:"Delta-debug each violating network to a minimal set of configuration \
                   files/stanzas and write a self-contained repro directory.")
  in
  let repro_arg =
    Arg.(value & opt string "crosscheck-repro"
         & info [ "repro-dir" ] ~docv:"DIR" ~doc:"Where $(b,--shrink) writes repro directories.")
  in
  Cmd.v
    (Cmd.info "crosscheck"
       ~doc:"Differential reachability cross-check: assert the concrete simulation's routes are \
             contained in the static analysis (sim\xe2\x8a\x86static oracle) and run the \
             metamorphic invariant suite (anonymize-structure, deny-filter monotonicity, \
             remove-router monotonicity, worklist=rounds, netlint-sim-agree).  Exits non-zero \
             on any error-severity violation.")
    Term.(const run
          $ target_term ~study_doc:"Cross-check every network of the 31-network study population."
          $ jobs_term ~doc:"Worker domains for parallel cross-checking."
          $ json_term ~doc:"Emit the report as JSON (what CI archives)."
          $ shrink_arg $ repro_arg $ inject_term $ supervision_term)

(* --- netlint ------------------------------------------------------------ *)

let netlint_cmd =
  let run target jobs rules json budget =
    guard @@ fun () ->
    let rules =
      match rules with
      | [] -> None
      | rs ->
        List.iter
          (fun r ->
            if not (List.mem r Rd_core.Netlint.all_rules) then
              die ~code:"unknown-rule" "%s: unknown rule (expected %s)" r
                (String.concat "|" Rd_core.Netlint.all_rules))
          rs;
        Some rs
    in
    let finish root results =
      let reports, failures = Rd_study.Population.partition results in
      if json then
        print_endline (Rd_util.Json.to_string (Rd_core.Netlint.to_json reports))
      else print_string (Rd_core.Netlint.render reports);
      if failures <> [] then
        print_string
          (Rd_study.Population.render_failures ~total:(List.length results) failures);
      exit_interrupted root;
      if failures <> [] || Rd_core.Netlint.has_errors reports then exit 1
    in
    match target with
    | Dir d ->
      let root = root_token budget in
      let cancel = Rd_util.Cancel.task ?timeout:budget.task_timeout (Some root) in
      let name = Filename.basename d in
      let files = load_dir d in
      finish root [ Ok (Rd_core.Netlint.run ?cancel ?rules ~name files) ]
    | Study pop ->
      let root = root_token budget in
      finish root
        (Rd_study.Driver.sweep ~cancel:root ?task_timeout:budget.task_timeout ~jobs
           ?only:pop.only ~master_seed:pop.seed
           (Rd_study.Driver.netlint ~jobs ?rules ()))
  in
  let rules_arg =
    Arg.(value & opt (list string) []
         & info [ "rules" ] ~docv:"RULES"
             ~doc:"Comma-separated rule families to run (default: all of \
                   redistribution-loop, route-leak, peer-consistency, shadowed-rules).")
  in
  Cmd.v
    (Cmd.info "netlint"
       ~doc:"Network-wide semantic lint: redistribution-loop and route-leak dataflow over \
             the instance graph, BGP/OSPF peer-consistency checks, and shadowed \
             filter-rule detection.  Exits non-zero on any error-severity finding.")
    Term.(const run
          $ target_term ~study_doc:"Lint every network of the 31-network study population."
          $ jobs_term ~doc:"Worker domains for building the population." $ rules_arg
          $ json_term ~doc:"Emit the report as JSON (what CI archives)." $ budget_term)

(* --- generate ----------------------------------------------------------- *)

let generate_cmd =
  let archetypes = String.concat "|" (List.map Rd_gen.Archetype.to_string Rd_gen.Archetype.all) in
  let run arch n seed out =
    guard @@ fun () ->
    let archetype =
      match Rd_gen.Archetype.of_string arch with
      | Some a -> a
      | None -> die ~code:"unknown-archetype" "%s: unknown archetype (expected %s)" arch archetypes
    in
    let net = Rd_gen.Archetype.generate archetype ~seed ~n ~index:seed () in
    if not (Sys.file_exists out) then Sys.mkdir out 0o755;
    List.iter
      (fun (name, text) ->
        let oc = open_out (Filename.concat out name) in
        output_string oc text;
        close_out oc)
      (Rd_gen.Builder.to_texts net);
    Printf.printf "%d configurations written to %s\n" (Rd_gen.Builder.router_count net) out
  in
  let arch_arg =
    Arg.(value & pos 0 string "enterprise"
         & info [] ~docv:"ARCH" ~doc:archetypes)
  in
  let n_arg = Arg.(value & opt int 30 & info [ "n" ] ~docv:"N" ~doc:"Router count.") in
  let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.") in
  let out_arg = Arg.(value & opt string "generated" & info [ "out"; "o" ] ~docv:"OUT" ~doc:"Output directory.") in
  Cmd.v (Cmd.info "generate" ~doc:"Generate a synthetic network's configuration files.")
    Term.(const run $ arch_arg $ n_arg $ seed_arg $ out_arg)

(* --- study -------------------------------------------------------------- *)

let study_cmd =
  let run pop jobs timing obs metrics_json inject fail_fast retries sup =
    guard @@ fun () ->
    (* --timing is served from the same recorder as --trace; tracing and
       metrics are purely observational, so study output is byte-identical
       with or without them (test_study's "traced build identical + trace
       json" asserts this). *)
    let ((trace, metrics) as sinks) =
      open_sinks ~trace:timing ~metrics:(metrics_json <> None) obs
    in
    let faults = faults_of inject in
    (match faults with Some f -> Rd_util.Fault.set_metrics f metrics | None -> ());
    (* One bad network degrades into a failed-network row while the other
       thirty print normally; --fail-fast instead re-raises the lowest
       net id's failure before anything is printed (caught by [guard]). *)
    let root = root_token sup.budget in
    let checkpoint = open_checkpoint ?metrics sup in
    let results =
      Rd_study.Driver.sweep ?trace ?metrics ?faults ~cancel:root
        ?task_timeout:sup.budget.task_timeout ~retries ~jobs ?checkpoint ~resume:sup.resume
        ?only:pop.only ~master_seed:pop.seed
        (Rd_study.Driver.study ?trace ?metrics ~jobs ?faults ())
    in
    let items, failures = Rd_study.Population.partition results in
    (match failures with
     | (f : Rd_study.Population.failure) :: _ when fail_fast -> Rd_util.Pool.reraise f.failure
     | _ -> ());
    let total = List.length results in
    List.iter
      (fun (i : Rd_study.Driver.study_item) ->
        print_string (Rd_study.Netstat.render_block i.stat))
      items;
    if pop.only = None then begin
      let stats = List.map (fun (i : Rd_study.Driver.study_item) -> i.stat) items in
      print_string (Rd_study.Experiments.sec7_stats stats);
      print_string (Rd_study.Experiments.table1_stats stats);
      print_string (Rd_study.Experiments.table3_stats stats);
      print_string (Rd_study.Experiments.fig11_stats stats)
    end;
    if failures <> [] then
      print_string (Rd_study.Population.render_failures ~total failures);
    (* The study proper never runs the reachability fixpoint; when metrics
       were asked for, run it per network (results discarded) so the
       reach.* fixpoint counters are populated.  Checkpoint-replayed
       networks carry no analysis, so they contribute no counters. *)
    (match metrics with
     | None -> ()
     | Some _ ->
       List.iter
         (fun (i : Rd_study.Driver.study_item) ->
           match i.network with
           | Some (n : Rd_study.Population.network) ->
             ignore (Rd_reach.Reachability.compute ?metrics n.analysis.graph)
           | None -> ())
         items);
    (match trace with
     | Some t when timing ->
       Printf.printf "--- pipeline stage wall time (%d jobs) ---\n" jobs;
       print_string (Rd_util.Trace.render_stages t)
     | _ -> ());
    close_sinks obs sinks;
    (match (metrics, metrics_json) with
     | Some m, Some path ->
       Rd_util.Json.to_file path (Rd_util.Metrics.to_json m);
       Printf.eprintf "metrics written to %s\n" path
     | _ -> ());
    checkpoint_stats checkpoint;
    exit_interrupted root;
    if failures <> [] then exit 1
  in
  let timing_arg =
    Arg.(value & flag
         & info [ "timing" ]
             ~doc:"Report per-stage pipeline wall time (aggregated from the span tracer).")
  in
  let metrics_doc =
    "Collect parser/pool/instance/fixpoint metrics during the run and print the registry \
     snapshot as tables.  Also runs the per-network reachability fixpoint (output unchanged) \
     so reach.* counters are populated."
  in
  let metrics_json_arg =
    Arg.(value & opt (some string) None
         & info [ "metrics-json" ] ~docv:"FILE"
             ~doc:"Like $(b,--metrics) but write the snapshot as JSON to $(docv).")
  in
  let fail_fast_arg =
    Arg.(value & flag
         & info [ "fail-fast" ]
             ~doc:"Abort the whole study when any network's analysis fails: after the sweep, \
                   report the lowest net id's failure as a coded error and exit 1, printing \
                   nothing else.  Composes with $(b,--retries), $(b,--checkpoint) and \
                   $(b,--deadline).")
  in
  let retries_arg =
    Arg.(value & opt int 0
         & info [ "retries" ] ~docv:"N"
             ~doc:"Retry a failed network build up to $(docv) extra times before recording \
                   it as failed.")
  in
  Cmd.v (Cmd.info "study" ~doc:"Run the 31-network study (paper §5-§7).")
    Term.(const run $ population_term
          $ jobs_term
              ~doc:"Worker domains for the parallel study build (default: $(b,RDNA_JOBS) or \
                    the recommended domain count)."
          $ timing_arg $ observability_term ~metrics_doc $ metrics_json_arg $ inject_term
          $ fail_fast_arg $ retries_arg $ supervision_term)

let () =
  let info = Cmd.info "rdna" ~version:"1.0.0" ~doc:"Routing design reverse engineering (SIGCOMM'04 reproduction)." in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            parse_cmd; lint_cmd; anonymize_cmd; summary_cmd; instances_cmd; processes_cmd; areas_cmd;
            roles_cmd; pathway_cmd; reach_cmd; dot_cmd; inventory_cmd; whatif_cmd;
            crosscheck_cmd; netlint_cmd; generate_cmd; study_cmd;
          ]))
