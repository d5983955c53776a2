open Rd_addr
open Rd_config

type change =
  | Remove_router of string
  | Remove_link of Prefix.t
  | Shutdown_interface of string * string

type diff = {
  before : Analysis.t;
  after : Analysis.t;
  instances_before : int;
  instances_after : int;
  split_instances : (Rd_routing.Instance.t * int) list;
  lost_reachability : (Ipv4.t * Ipv4.t) list;
  warnings : string list;
}

let matches_router (file, (cfg : Ast.t)) name = file = name || cfg.hostname = Some name

let shutdown_iface (cfg : Ast.t) pred =
  {
    cfg with
    Ast.interfaces =
      List.map
        (fun (i : Ast.interface) -> if pred i then { i with Ast.shutdown = true } else i)
        cfg.interfaces;
  }

(* Each change reports the targets it failed to match — a typoed router
   or interface name must not silently turn a maintenance scenario into a
   no-op that reports "no impact" — and the configuration files it did
   touch, which reports list per scenario. *)
let apply_change_checked configs = function
  | Remove_router name ->
    let kept, removed = List.partition (fun rc -> not (matches_router rc name)) configs in
    let warnings =
      if removed = [] then [ Printf.sprintf "remove-router: no router named %S" name ]
      else []
    in
    (kept, warnings, List.map fst removed)
  | Remove_link subnet ->
    let on_link (i : Ast.interface) =
      match i.Ast.if_address with
      | Some (a, m) -> (
        match Prefix.of_addr_mask a m with
        | Some p -> Prefix.equal p subnet
        | None -> false)
      | None -> false
    in
    let touched = ref [] in
    let configs =
      List.map
        (fun (file, cfg) ->
          let matched = ref false in
          let cfg' =
            shutdown_iface cfg (fun i ->
                let m = on_link i in
                if m then matched := true;
                m)
          in
          if !matched then touched := file :: !touched;
          (file, cfg'))
        configs
    in
    let warnings =
      if !touched <> [] then []
      else [ Printf.sprintf "remove-link: no interface on subnet %s" (Prefix.to_string subnet) ]
    in
    (configs, warnings, List.rev !touched)
  | Shutdown_interface (router, ifname) ->
    let router_hit = ref false and iface_hit = ref false in
    let touched = ref [] in
    let configs =
      List.map
        (fun ((file, cfg) as rc) ->
          if matches_router rc router then begin
            router_hit := true;
            let cfg' =
              shutdown_iface cfg (fun i ->
                  let matched = i.Ast.if_name = ifname in
                  if matched then begin
                    iface_hit := true;
                    touched := file :: !touched
                  end;
                  matched)
            in
            (file, cfg')
          end
          else rc)
        configs
    in
    let warnings =
      if not !router_hit then
        [ Printf.sprintf "shutdown-interface: no router named %S" router ]
      else if not !iface_hit then
        [ Printf.sprintf "shutdown-interface: router %S has no interface %S" router ifname ]
      else []
    in
    (configs, warnings, List.rev !touched)

type delta = { analysis : Analysis.t; touched : string list; warnings : string list }

let apply (t : Analysis.t) changes =
  let configs, warnings, touched =
    List.fold_left
      (fun (configs, warnings, touched) change ->
        let configs, w, files = apply_change_checked configs change in
        (configs, warnings @ w, touched @ files))
      (t.configs, [], []) changes
  in
  {
    analysis = Analysis.analyze_asts ~name:(t.name ^ "+whatif") configs;
    touched = List.sort_uniq String.compare touched;
    warnings;
  }

(* --- scenarios ---------------------------------------------------------- *)

type scenario = { label : string; changes : change list }

let change_to_string = function
  | Remove_router r -> "remove-router " ^ r
  | Remove_link p -> "remove-link " ^ Prefix.to_string p
  | Shutdown_interface (r, i) -> Printf.sprintf "shutdown-interface %s %s" r i

let scenario_to_string s = String.concat "; " (List.map change_to_string s.changes)

let tokens s =
  String.split_on_char ' ' (String.map (function '\t' -> ' ' | c -> c) s)
  |> List.filter (fun t -> t <> "")

let parse_change s =
  match tokens s with
  | [ "remove-router"; name ] -> Ok (Remove_router name)
  | [ "remove-link"; subnet ] -> (
    match Prefix.of_string subnet with
    | Some p -> Ok (Remove_link p)
    | None -> Error (Printf.sprintf "%s: not a prefix (a.b.c.d/len)" subnet))
  | [ "shutdown-interface"; router; ifname ] -> Ok (Shutdown_interface (router, ifname))
  | [] -> Error "empty change"
  | verb :: _ ->
    Error
      (Printf.sprintf
         "%s: unknown or malformed change (expected: remove-router NAME | remove-link \
          A.B.C.D/LEN | shutdown-interface ROUTER IFACE)"
         verb)

let parse_scenario ?default_label line =
  let line = String.trim line in
  let label, body =
    match tokens line with
    | first :: _
      when String.length first > 1 && first.[String.length first - 1] = ':' -> (
      let l = String.sub first 0 (String.length first - 1) in
      let i = String.index line ':' in
      (Some l, String.sub line (i + 1) (String.length line - i - 1)))
    | _ -> (None, line)
  in
  let rec changes acc = function
    | [] -> Ok (List.rev acc)
    | c :: rest -> (
      match parse_change c with Ok ch -> changes (ch :: acc) rest | Error e -> Error e)
  in
  match changes [] (String.split_on_char ';' body |> List.map String.trim
                    |> List.filter (fun c -> c <> ""))
  with
  | Error e -> Error e
  | Ok [] -> Error "scenario has no changes"
  | Ok chs ->
    let label =
      match (label, default_label) with
      | Some l, _ -> l
      | None, Some l -> l
      | None, None -> String.concat "; " (List.map change_to_string chs)
    in
    Ok { label; changes = chs }

let parse_scenarios text =
  let lines = String.split_on_char '\n' text in
  let rec go k acc lineno = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
      let t = String.trim line in
      if t = "" || t.[0] = '#' then go k acc (lineno + 1) rest
      else begin
        match parse_scenario ~default_label:(Printf.sprintf "s%d" k) line with
        | Ok s -> go (k + 1) (s :: acc) (lineno + 1) rest
        | Error e -> Error (Printf.sprintf "line %d: %s" lineno e)
      end
  in
  go 1 [] 1 lines

let sample_hosts (r : Rd_reach.Reachability.t) =
  (* one representative host per origin prefix, capped for tractability *)
  Array.to_list r.origins
  |> List.concat_map (fun s -> Prefix_set.to_prefixes s)
  |> List.filteri (fun i _ -> i < 24)
  |> List.map (fun p -> Prefix.nth p (Prefix.size p / 2))

let lost_pairs hosts r1 r2 =
  List.concat_map
    (fun src ->
      List.filter_map
        (fun dst ->
          if
            (not (Ipv4.equal src dst))
            && Rd_reach.Reachability.can_reach r1 ~src ~dst
            && not (Rd_reach.Reachability.can_reach r2 ~src ~dst)
          then Some (src, dst)
          else None)
        hosts)
    hosts

let compare ?(warnings = []) ?reach_before ?reach_after ~(before : Analysis.t)
    ~(after : Analysis.t) () =
  (* map a process to its instance in the new analysis by (router name,
     protocol, proc id) identity *)
  let key (a : Analysis.t) (p : Rd_routing.Process.t) =
    (fst a.topo.routers.(p.router), p.protocol, p.proc_id)
  in
  let after_inst = Hashtbl.create 256 in
  Array.iter
    (fun (p : Rd_routing.Process.t) ->
      Hashtbl.replace after_inst (key after p) after.graph.assignment.of_process.(p.pid))
    after.catalog.processes;
  let split_instances =
    Array.to_list before.graph.assignment.instances
    |> List.filter_map (fun (i : Rd_routing.Instance.t) ->
         if Rd_routing.Instance.size i <= 1 then None
         else begin
           let landed =
             List.filter_map
               (fun pid ->
                 Hashtbl.find_opt after_inst (key before before.catalog.processes.(pid)))
               i.members
             |> List.sort_uniq Stdlib.compare
           in
           if List.length landed > 1 then Some (i, List.length landed) else None
         end)
  in
  (* Interfaces whose peer was removed look external-facing afterwards;
     with the default full external offer the unknown outside world would
     mask every loss.  Compare both sides with an empty offer so only
     internal reachability is scored. *)
  let rb =
    match reach_before with
    | Some r -> r
    | None -> Rd_reach.Reachability.compute ~external_offers:Prefix_set.empty before.graph
  in
  let ra =
    match reach_after with
    | Some r -> r
    | None -> Rd_reach.Reachability.compute ~external_offers:Prefix_set.empty after.graph
  in
  {
    before;
    after;
    instances_before = Analysis.instance_count before;
    instances_after = Analysis.instance_count after;
    split_instances;
    lost_reachability = lost_pairs (sample_hosts rb) rb ra;
    warnings;
  }

let run t changes =
  let d = apply t changes in
  compare ~warnings:d.warnings ~before:t ~after:d.analysis ()

let render (d : diff) =
  let buf = Buffer.create 512 in
  List.iter (fun w -> Printf.bprintf buf "WARNING: %s\n" w) d.warnings;
  Printf.bprintf buf "routing instances: %d -> %d\n" d.instances_before d.instances_after;
  if d.split_instances = [] then Printf.bprintf buf "no instance was partitioned\n"
  else
    List.iter
      (fun (i, parts) ->
        Printf.bprintf buf "PARTITIONED: %s now spans %d instances\n"
          (Rd_routing.Instance.to_string i) parts)
      d.split_instances;
  (match d.lost_reachability with
   | [] -> Printf.bprintf buf "no sampled host pair lost reachability\n"
   | l ->
     Printf.bprintf buf "%d sampled host pairs lost reachability, e.g.:\n" (List.length l);
     List.iteri
       (fun i (s, t) ->
         if i < 8 then Printf.bprintf buf "  %s -> %s\n" (Ipv4.to_string s) (Ipv4.to_string t))
       l);
  Buffer.contents buf
