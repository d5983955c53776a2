open Rd_addr
open Rd_config
open Rd_util
open Rd_routing
module RF = Rd_policy.Route_filter
module IG = Instance_graph

let finding_cap = 20

type leak = {
  leak_origin : int;
  leak_asn : int;
  leak_router : int;
  leak_peer : Ipv4.t;
  leak_path : IG.edge list;
  leak_prefixes : Prefix_set.t;
}

type report = {
  network : string;
  routers : int;
  instances : int;
  rules : string list;
  findings : Diag.t list;
}

(* ------------------------------------------------------------------ *)
(* Shared helpers                                                      *)

let router_cfg (a : Analysis.t) r = snd a.topo.routers.(r)

let witnesses s =
  let ps = Prefix_set.to_prefixes s in
  let n = List.length ps in
  let shown = List.filteri (fun i _ -> i < 3) ps in
  let body = String.concat ", " (List.map Prefix.to_string shown) in
  if n > 3 then Printf.sprintf "%s, ... (%d prefixes)" body n else body

let inst_label insts k =
  let t = insts.(k) in
  match t.Instance.asn with
  | Some asn -> Printf.sprintf "bgp-as%d(i%d)" asn k
  | None -> Printf.sprintf "%s(i%d)" (Ast.protocol_to_string t.Instance.protocol) k

let endpoint_label insts = function
  | IG.Inst k -> inst_label insts k
  | IG.External x -> Printf.sprintf "AS%d" x

(* "ospf(i0) -[r3]-> bgp-as1(i2) -[r3]-> AS65001" *)
let render_path a insts (path : IG.edge list) =
  match path with
  | [] -> ""
  | first :: _ ->
    List.fold_left
      (fun acc (e : IG.edge) ->
        Printf.sprintf "%s -[%s]-> %s" acc
          (Lint.router_file a (IG.via_router e.via))
          (endpoint_label insts e.dst))
      (endpoint_label insts first.src)
      path

let redist_source_token = function
  | Ast.From_connected -> "connected"
  | Ast.From_static -> "static"
  | Ast.From_protocol (p, _) -> Ast.protocol_to_string p

(* Policies named by an edge's mechanism, as (acls, prefix_lists,
   route_maps).  Over-inclusive for EBGP sessions (both directions) —
   used only for the cut-candidate approximation downgrade. *)
let via_policies a (e : IG.edge) =
  match e.via with
  | IG.Redist { redist = { route_map = Some m; _ }; _ } -> ([], [], [ m ])
  | IG.Redist _ -> ([], [], [])
  | IG.Igp_edge { router; _ } ->
    let c = router_cfg a router in
    let acls =
      List.concat_map
        (fun (p : Ast.router_process) ->
          if p.protocol = Ast.Bgp then []
          else List.map (fun (d : Ast.distribute_list) -> d.dl_acl) p.dlists)
        c.Ast.processes
    in
    (acls, [], [])
  | IG.Ebgp_session { router; peer_addr } ->
    let c = router_cfg a router in
    let nbs =
      List.concat_map
        (fun (p : Ast.router_process) ->
          if p.protocol = Ast.Bgp then
            List.filter
              (fun (n : Ast.neighbor) -> Ipv4.equal n.peer peer_addr)
              p.neighbors
          else [])
        c.Ast.processes
    in
    ( List.concat_map (fun (n : Ast.neighbor) -> List.map fst n.nb_dlists) nbs,
      List.concat_map (fun (n : Ast.neighbor) -> List.map fst n.nb_prefix_lists) nbs,
      List.concat_map (fun (n : Ast.neighbor) -> List.map fst n.nb_route_maps) nbs )

let edge_names_policies a e =
  let acls, pls, rms = via_policies a e in
  acls <> [] || pls <> [] || rms <> []

(* Does any of the edge's named policies, resolved in its via-router's
   config, lower to an over-approximation?  Prefix-lists never do. *)
let edge_policies_approx a (e : IG.edge) =
  let acls, _, rms = via_policies a e in
  let c = router_cfg a (IG.via_router e.via) in
  List.exists
    (fun n ->
      match Ast.find_acl c n with Some acl -> not (Rd_policy.Acl.exact acl) | None -> false)
    acls
  || List.exists
       (fun n ->
         match Ast.find_route_map c n with
         | Some rm -> not (Rd_policy.Route_map.exact rm ~lookup_acl:(Ast.find_acl c))
         | None -> false)
       rms

(* ------------------------------------------------------------------ *)
(* Rule family 1: redistribution loops                                 *)

(* Does [rm] stamp a tag on everything it passes?  [Some tags] when
   every permit entry sets one. *)
let tags_all_set (rm : Ast.route_map) =
  let permits =
    List.filter (fun (en : Ast.route_map_entry) -> en.rm_action = Ast.Permit)
      rm.entries
  in
  if permits = [] then None
  else
    let rec go acc = function
      | [] -> Some (List.sort_uniq compare acc)
      | (en : Ast.route_map_entry) :: rest -> (
        match en.set_tag with None -> None | Some t -> go (t :: acc) rest)
    in
    go [] permits

let denies_tag (rm : Ast.route_map) t =
  List.exists
    (fun (en : Ast.route_map_entry) ->
      en.rm_action = Ast.Deny && List.mem t en.match_tags)
    rm.entries

let edge_redist_rm a (e : IG.edge) =
  match e.via with
  | IG.Redist { router; redist = { route_map = Some name; _ } } ->
    Ast.find_route_map (router_cfg a router) name
  | _ -> None

(* A tag cut: some cycle edge stamps a tag on every route it passes and
   some other cycle edge's route-map denies that tag. *)
let cycle_tag_cut a cycle_edges =
  let rm_edges =
    List.filter_map
      (fun e ->
        match edge_redist_rm a e with Some rm -> Some (e, rm) | None -> None)
      cycle_edges
  in
  List.exists
    (fun ((ea : IG.edge), rma) ->
      match tags_all_set rma with
      | Some (_ :: _ as ts) ->
        List.exists
          (fun ((eb : IG.edge), rmb) ->
            eb != ea && List.for_all (denies_tag rmb) ts)
          rm_edges
      | _ -> false)
    rm_edges

let redistribution_loops ?metrics locators (a : Analysis.t) =
  let g = a.graph in
  let insts = IG.instances g in
  let n = Array.length insts in
  let adj = Array.make n [] in
  List.iter
    (fun (e : IG.edge) ->
      match (e.src, e.dst) with
      | IG.Inst s, IG.Inst d
        when s <> d && not (Prefix_set.is_empty (RF.permitted e.filter)) ->
        adj.(s) <- (d, e) :: adj.(s)
      | _ -> ())
    g.edges;
  Array.iteri (fun i l -> adj.(i) <- List.rev l) adj;
  (* Tarjan SCC over the instance-to-instance edges. *)
  let index = Array.make n (-1) in
  let low = Array.make n 0 in
  let on_stack = Array.make n false in
  let comp = Array.make n (-1) in
  let stack = ref [] in
  let counter = ref 0 in
  let ncomp = ref 0 in
  let rec strong v =
    index.(v) <- !counter;
    low.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun (w, _) ->
        if index.(w) < 0 then begin
          strong w;
          low.(v) <- min low.(v) low.(w)
        end
        else if on_stack.(w) then low.(v) <- min low.(v) index.(w))
      adj.(v);
    if low.(v) = index.(v) then begin
      let rec pop () =
        match !stack with
        | w :: rest ->
          stack := rest;
          on_stack.(w) <- false;
          comp.(w) <- !ncomp;
          if w <> v then pop ()
        | [] -> ()
      in
      pop ();
      incr ncomp
    end
  in
  for v = 0 to n - 1 do
    if index.(v) < 0 then strong v
  done;
  let seen = Hashtbl.create 16 in
  let findings = ref [] in
  List.iter
    (fun (e0 : IG.edge) ->
      match (e0.src, e0.dst, e0.via) with
      | IG.Inst j, IG.Inst i, IG.Redist { redist; _ }
        when i <> j && comp.(i) = comp.(j) -> begin
        let c = comp.(i) in
        let seed = RF.permitted e0.filter in
        if not (Prefix_set.is_empty seed) then begin
          (* Dataflow within the SCC: what (of the seed) can travel from
             i back around to j? *)
          let reach = Array.make n Prefix_set.empty in
          let parent = Array.make n None in
          reach.(i) <- seed;
          let q = Queue.create () in
          Queue.add i q;
          while not (Queue.is_empty q) do
            let s = Queue.pop q in
            List.iter
              (fun (d, (e : IG.edge)) ->
                if comp.(d) = c then begin
                  let contrib = RF.apply e.filter reach.(s) in
                  if not (Prefix_set.subset contrib reach.(d)) then begin
                    if parent.(d) = None && d <> i then parent.(d) <- Some (s, e);
                    reach.(d) <- Prefix_set.union reach.(d) contrib;
                    Queue.add d q
                  end
                end)
              adj.(s)
          done;
          let loopset = RF.apply e0.filter reach.(j) in
          if not (Prefix_set.is_empty loopset) then begin
            let rec walk v acc =
              if v = i then acc
              else
                match parent.(v) with
                | Some (s, e) -> walk s (e :: acc)
                | None -> acc
            in
            let path = walk j [] in
            let cycle_edges = path @ [ e0 ] in
            let key =
              List.sort_uniq compare
                (List.concat_map
                   (fun (e : IG.edge) ->
                     match (e.src, e.dst) with
                     | IG.Inst s, IG.Inst d -> [ s; d ]
                     | _ -> [])
                   cycle_edges)
            in
            if not (Hashtbl.mem seen key) then begin
              Hashtbl.add seen key ();
              let redist_routers =
                List.sort_uniq compare
                  (List.filter_map
                     (fun (e : IG.edge) ->
                       match e.via with
                       | IG.Redist { router; _ } -> Some router
                       | _ -> None)
                     cycle_edges)
              in
              if List.length redist_routers < 2 then
                (* Mutual redistribution on one box: route preference
                   there breaks the loop; a deliberate design. *)
                Metrics.incr metrics "netlint.loops_single_router"
              else if cycle_tag_cut a cycle_edges then
                Metrics.incr metrics "netlint.loops_tag_cut"
              else begin
                let restricting =
                  List.exists
                    (fun (e : IG.edge) -> not (RF.is_unrestricted e.filter))
                    cycle_edges
                in
                let severity, why =
                  if restricting then
                    ( Diag.Warning,
                      "a non-empty set escapes the filter cuts on the cycle" )
                  else begin
                    let cands =
                      List.filter (edge_names_policies a) cycle_edges
                    in
                    if
                      cands <> []
                      && List.for_all (edge_policies_approx a) cands
                    then
                      ( Diag.Warning,
                        "every filter cut candidate was lowered approximately"
                      )
                    else (Diag.Error, "no tag or filter cut on any edge")
                  end
                in
                let r0 = IG.via_router e0.via in
                let file = Lint.router_file a r0 in
                let line =
                  Locator.find locators file (fun loc ->
                      Locator.redistribute_line loc
                        ~proto:(Ast.protocol_to_string insts.(i).Instance.protocol)
                        ~source:(redist_source_token redist.source))
                in
                let cycle_str =
                  render_path a insts cycle_edges
                  |> fun s ->
                  Printf.sprintf "%s -> %s" s (inst_label insts i)
                in
                findings :=
                  Diag.make ~file ?line severity
                    ~code:"netlint-redistribution-loop"
                    "redistribution loop %s: %s can circulate and be \
                     re-redistributed (redistribution on %s): %s"
                    cycle_str (witnesses loopset)
                    (String.concat ", "
                       (List.map (Lint.router_file a) redist_routers))
                    why
                  :: !findings
              end
            end
          end
        end
      end
      | _ -> ())
    g.edges;
  List.rev !findings

(* ------------------------------------------------------------------ *)
(* Rule family 2: route leaks                                          *)

let leaks (a : Analysis.t) =
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
  (* One BFS per origin, sharing these arrays: [visited.(d) = i] marks
     [d] reached from origin [i], so nothing is cleared between
     searches, and [parent] is only read along paths stamped [i]. *)
  let parent = Array.make n None in
  let visited = Array.make n (-1) in
  for i = 0 to n - 1 do
    if
      insts.(i).Instance.protocol <> Ast.Bgp
      && not (Prefix_set.is_empty origins.(i))
    then begin
      (* BFS over unfiltered edges; shortest witness path per AS. *)
      visited.(i) <- i;
      let q = Queue.create () in
      Queue.add i q;
      let order = ref [] in
      while not (Queue.is_empty q) do
        let s = Queue.pop q in
        order := s :: !order;
        List.iter
          (fun (d, e) ->
            if visited.(d) <> i then begin
              visited.(d) <- i;
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
                let path = walk s [] @ [ e ] in
                let peer =
                  match e.via with
                  | IG.Ebgp_session { peer_addr; _ } -> peer_addr
                  | _ -> assert false
                in
                acc :=
                  {
                    leak_origin = i;
                    leak_asn = x;
                    leak_router = IG.via_router e.via;
                    leak_peer = peer;
                    leak_path = path;
                    leak_prefixes = origins.(i);
                  }
                  :: !acc
              end)
            ext_out.(s))
        (List.rev !order)
    end
  done;
  List.rev !acc

let leak_findings locators (a : Analysis.t) =
  let insts = IG.instances a.graph in
  List.map
    (fun l ->
      let file = Lint.router_file a l.leak_router in
      let line =
        Locator.find locators file (fun loc ->
            Locator.neighbor_line loc l.leak_peer)
      in
      Diag.make ~file ?line Diag.Warning ~code:"netlint-route-leak"
        "route leak: %s originating in %s reach AS%d with no filter at \
         any hop: %s"
        (witnesses l.leak_prefixes)
        (inst_label insts l.leak_origin)
        l.leak_asn
        (render_path a insts l.leak_path))
    (leaks a)

(* ------------------------------------------------------------------ *)
(* Rule family 3: peer consistency                                     *)

let bgp_peer_findings locators (a : Analysis.t) =
  let cat = a.catalog in
  let nrouters = Array.length a.topo.routers in
  let bgp_procs = Array.make nrouters [] in
  Array.iter
    (fun (p : Process.t) ->
      if p.protocol = Ast.Bgp then bgp_procs.(p.router) <- p :: bgp_procs.(p.router))
    cat.processes;
  Array.iteri (fun i l -> bgp_procs.(i) <- List.rev l) bgp_procs;
  let has_session_to q r =
    List.exists
      (fun (p : Process.t) ->
        List.exists
          (fun (n : Ast.neighbor) ->
            match Hashtbl.find_opt cat.addr_owner (Ipv4.to_int n.peer) with
            | Some owner -> owner = r
            | None -> false)
          p.ast.neighbors)
      bgp_procs.(q)
  in
  let findings = ref [] in
  for r = 0 to nrouters - 1 do
    List.iter
      (fun (p : Process.t) ->
        List.iter
          (fun (n : Ast.neighbor) ->
            if n.remote_as <> 0 then
              match Hashtbl.find_opt cat.addr_owner (Ipv4.to_int n.peer) with
              | None -> () (* peer outside the network: nothing to check *)
              | Some q when q = r -> ()
              | Some q ->
                let file = Lint.router_file a r in
                (* Resolved only for a finding: most sessions are clean. *)
                let line () =
                  Locator.find locators file (fun loc ->
                      Locator.neighbor_line loc n.peer)
                in
                let q_asns =
                  List.filter_map (fun (p : Process.t) -> p.proc_id) bgp_procs.(q)
                in
                if q_asns = [] then
                  findings :=
                    Diag.make ~file ?line:(line ()) Diag.Warning
                      ~code:"netlint-peer-one-sided"
                      "neighbor %s: peer router %s runs no BGP process"
                      (Ipv4.to_string n.peer) (Lint.router_file a q)
                    :: !findings
                else if not (List.mem n.remote_as q_asns) then
                  findings :=
                    Diag.make ~file ?line:(line ()) Diag.Error
                      ~code:"netlint-peer-as-mismatch"
                      "neighbor %s remote-as %d, but peer router %s is AS %s"
                      (Ipv4.to_string n.peer) n.remote_as (Lint.router_file a q)
                      (String.concat "/" (List.map string_of_int q_asns))
                    :: !findings
                else if not (has_session_to q r) then
                  findings :=
                    Diag.make ~file ?line:(line ()) Diag.Warning
                      ~code:"netlint-peer-one-sided"
                      "neighbor %s: peer router %s has no neighbor \
                       statement back toward %s"
                      (Ipv4.to_string n.peer) (Lint.router_file a q)
                      (Lint.router_file a r)
                    :: !findings)
          p.ast.neighbors)
      bgp_procs.(r)
  done;
  List.rev !findings

let ospf_area_findings locators (a : Analysis.t) =
  let cat = a.catalog in
  let findings = ref [] in
  List.iter
    (fun (l : Rd_topo.Topology.link) ->
      if List.length l.endpoints >= 2 then begin
        let areas =
          List.filter_map
            (fun (ifc : Rd_topo.Topology.iface) ->
              match ifc.address with
              | None -> None
              | Some (addr, _) ->
                List.fold_left
                  (fun found pid ->
                    match found with
                    | Some _ -> found
                    | None ->
                      let p = cat.processes.(pid) in
                      if p.protocol = Ast.Ospf && Process.covers p addr then
                        match Process.area_on p addr with
                        | Some area -> Some (ifc, area)
                        | None -> None
                      else None)
                  None
                  cat.by_router.(ifc.router))
            l.endpoints
        in
        let distinct = List.sort_uniq compare (List.map snd areas) in
        if List.length distinct >= 2 then begin
          let (ifc0, _) = List.hd areas in
          let file = Lint.router_file a ifc0.router in
          let line =
            Locator.find locators file (fun loc ->
                Locator.interface_address_line loc ifc0.name)
          in
          findings :=
            Diag.make ~file ?line Diag.Error ~code:"netlint-ospf-area-mismatch"
              "ospf area mismatch on %s: %s"
              (Prefix.to_string l.subnet_of_link)
              (String.concat ", "
                 (List.map
                    (fun ((ifc : Rd_topo.Topology.iface), area) ->
                      Printf.sprintf "%s:%s area %d"
                        (Lint.router_file a ifc.router) ifc.name area)
                    areas))
            :: !findings
        end
      end)
    a.topo.links;
  List.rev !findings

let mask_findings locators (a : Analysis.t) =
  let entries =
    Array.to_list a.topo.ifaces
    |> List.filter_map (fun (ifc : Rd_topo.Topology.iface) ->
           match ifc.subnet with
           | Some s when Prefix.len s < 32 ->
             let first = Ipv4.to_int (Prefix.network s) in
             let last = first + (1 lsl (32 - Prefix.len s)) - 1 in
             Some (first, last, Prefix.len s, ifc)
           | _ -> None)
    |> List.sort (fun (f1, l1, _, _) (f2, l2, _, _) ->
           compare (f1, l1) (f2, l2))
  in
  let iface_str (ifc : Rd_topo.Topology.iface) =
    let addr =
      match ifc.address with
      | Some (ip, _) -> Ipv4.to_string ip
      | None -> "?"
    in
    Printf.sprintf "%s:%s %s/%d" (Lint.router_file a ifc.router) ifc.name addr
      (match ifc.subnet with Some s -> Prefix.len s | None -> 32)
  in
  let findings = ref [] in
  let reported = Hashtbl.create 8 in
  (* Sweep: one active representative per distinct (range, len). *)
  let active = ref [] in
  List.iter
    (fun (first, last, len, (ifc : Rd_topo.Topology.iface)) ->
      active := List.filter (fun (_, l, _, _) -> l >= first) !active;
      List.iter
        (fun (f', _, len', (ifc' : Rd_topo.Topology.iface)) ->
          if len' <> len && ifc'.router <> ifc.router then begin
            let key = ((f', len'), (first, len)) in
            if not (Hashtbl.mem reported key) then begin
              Hashtbl.add reported key ();
              let file = Lint.router_file a ifc'.router in
              let line =
                Locator.find locators file (fun loc ->
                    Locator.interface_address_line loc ifc'.name)
              in
              findings :=
                Diag.make ~file ?line Diag.Warning ~code:"netlint-mask-mismatch"
                  "subnet mask mismatch on a shared medium: %s overlaps %s"
                  (iface_str ifc') (iface_str ifc)
                :: !findings
            end
          end)
        !active;
      if
        not
          (List.exists
             (fun (f', l', len', _) -> f' = first && l' = last && len' = len)
             !active)
      then active := (first, last, len, ifc) :: !active)
    entries;
  List.rev !findings

let peer_consistency locators a =
  bgp_peer_findings locators a @ ospf_area_findings locators a @ mask_findings locators a

(* ------------------------------------------------------------------ *)
(* Rule family 4: shadowed filter rules                                *)

let port_range = function
  | None -> (0, 65535)
  | Some (Ast.Port_eq p) -> (p, p)
  | Some (Ast.Port_range (a, b)) -> (a, b)
  | Some (Ast.Port_gt p) -> (p + 1, 65535)
  | Some (Ast.Port_lt p) -> (0, p - 1)

let port_covers earlier candidate =
  let lo1, hi1 = port_range earlier and lo2, hi2 = port_range candidate in
  lo1 <= lo2 && hi2 <= hi1

let proto_covers earlier candidate =
  match (earlier, candidate) with
  | (None | Some "ip"), _ -> true
  | Some p1, Some p2 -> String.equal p1 p2
  | Some _, None -> false

let shadowed_acl_clauses (acl : Ast.acl) =
  let hits = ref [] in
  if not acl.extended then begin
    (* First-match on source only: clause i is dead when its (possibly
       over-approximated) set sits inside the union of exactly-lowered
       earlier clauses.  Dropping inexact earlier sets only shrinks the
       union, so a hit is sound. *)
    let claimed = ref Prefix_set.empty in
    List.iteri
      (fun idx (c : Ast.acl_clause) ->
        let s, exact = Rd_policy.Acl.clause_src_set c in
        if Prefix_set.subset s !claimed then hits := idx :: !hits;
        if exact then claimed := Prefix_set.union !claimed s)
      acl.clauses
  end
  else begin
    (* Extended: pairwise subsumption by one exact earlier clause, over
       (proto, src, src-port, dst, dst-port). *)
    let earlier = ref [] in
    List.iteri
      (fun idx (c : Ast.acl_clause) ->
        let si, sx = Rd_policy.Acl.clause_src_set c in
        let di, dx = Rd_policy.Acl.clause_dst_set c in
        if
          List.exists
            (fun ((j : Ast.acl_clause), sj, dj) ->
              proto_covers j.ip_proto c.ip_proto
              && port_covers j.src_port c.src_port
              && port_covers j.dst_port c.dst_port
              && Prefix_set.subset si sj
              && Prefix_set.subset di dj)
            !earlier
        then hits := idx :: !hits;
        if sx && dx then earlier := (c, si, di) :: !earlier)
      acl.clauses
  end;
  List.rev !hits

(* Prefix-list permitted set restricted to routes of length [l],
   honouring first match. *)
let pl_permitted_at (pl : Ast.prefix_list) l =
  let rec go permitted claimed = function
    | [] -> permitted
    | (e : Ast.prefix_list_entry) :: rest ->
      let lo, hi = Rd_policy.Prefix_list_policy.entry_bounds e in
      if l < lo || l > hi then go permitted claimed rest
      else begin
        let s = Prefix_set.diff (Prefix_set.of_prefix e.pl_prefix) claimed in
        let permitted =
          match e.pl_action with
          | Ast.Permit -> Prefix_set.union permitted s
          | Ast.Deny -> permitted
        in
        go permitted (Prefix_set.union claimed s) rest
      end
  in
  go Prefix_set.empty Prefix_set.empty pl.pl_entries

let shadowed_prefix_list_entries (pl : Ast.prefix_list) =
  (* Exact per-length analysis: entry i is dead when, at every route
     length it can match, its prefix is inside what earlier entries
     already claim at that length. *)
  let acc = Array.make 33 Prefix_set.empty in
  let hits = ref [] in
  List.iteri
    (fun idx (e : Ast.prefix_list_entry) ->
      let lo, hi = Rd_policy.Prefix_list_policy.entry_bounds e in
      if lo > hi then hits := (idx, `Unsatisfiable) :: !hits
      else begin
        let s = Prefix_set.of_prefix e.pl_prefix in
        let shadowed = ref true in
        for l = lo to hi do
          if !shadowed && not (Prefix_set.subset s acc.(l)) then shadowed := false
        done;
        if !shadowed then hits := (idx, `Shadowed) :: !hits;
        for l = lo to hi do
          acc.(l) <- Prefix_set.union acc.(l) s
        done
      end)
    pl.pl_entries;
  List.rev !hits

let shadowed_route_map_entries (cfg : Ast.t) (rm : Ast.route_map) =
  (* Matched set of an entry = union of its match conditions (IOS: any
     listed ACL or prefix-list matching admits the route); no
     conditions matches everything.  Entries matching on tags, or
     referencing undefined policies, are skipped on both sides. *)
  let pl_cache = Hashtbl.create 8 in
  let pl_at name =
    match Hashtbl.find_opt pl_cache name with
    | Some x -> x
    | None ->
      let x =
        match Ast.find_prefix_list cfg name with
        | None -> None
        | Some pl ->
          Some (Array.init 33 (fun l -> pl_permitted_at pl l))
      in
      Hashtbl.add pl_cache name x;
      x
  in
  let acl_set name =
    Option.map
      (fun acl -> (Rd_policy.Acl.permitted_set acl, Rd_policy.Acl.exact acl))
      (Ast.find_acl cfg name)
  in
  let acc = Array.make 33 Prefix_set.empty in
  let hits = ref [] in
  List.iteri
    (fun idx (en : Ast.route_map_entry) ->
      let unconditional =
        en.match_acls = [] && en.match_prefix_lists = [] && en.match_tags = []
      in
      let acl_parts = List.map acl_set en.match_acls in
      let pl_parts = List.map pl_at en.match_prefix_lists in
      let analyzable =
        en.match_tags = []
        && not (List.mem None acl_parts)
        && not (List.mem None pl_parts)
      in
      if analyzable then begin
        let acl_u =
          List.fold_left
            (fun s -> function Some (x, _) -> Prefix_set.union s x | None -> s)
            Prefix_set.empty acl_parts
        in
        let exact =
          List.for_all (function Some (_, e) -> e | None -> true) acl_parts
        in
        let matched_at l =
          if unconditional then Prefix_set.full
          else
            List.fold_left
              (fun s -> function
                | Some arr -> Prefix_set.union s arr.(l)
                | None -> s)
              acl_u pl_parts
        in
        let shadowed = ref true in
        for l = 0 to 32 do
          if !shadowed && not (Prefix_set.subset (matched_at l) acc.(l)) then
            shadowed := false
        done;
        if !shadowed then hits := (idx, en) :: !hits;
        if exact then
          for l = 0 to 32 do
            acc.(l) <- Prefix_set.union acc.(l) (matched_at l)
          done
      end)
    rm.entries;
  List.rev !hits

let shadowed_rules locators (a : Analysis.t) =
  let findings = ref [] in
  List.iter
    (fun (file, (cfg : Ast.t)) ->
      List.iter
        (fun (acl : Ast.acl) ->
          List.iter
            (fun idx ->
              let line =
                Locator.find locators file (fun loc ->
                    Locator.acl_clause_line loc acl.acl_name idx)
              in
              findings :=
                Diag.make ~file ?line Diag.Warning
                  ~code:"netlint-shadowed-acl-clause"
                  "access-list %s clause %d is shadowed by earlier clauses \
                   and can never match"
                  acl.acl_name (idx + 1)
                :: !findings)
            (shadowed_acl_clauses acl))
        cfg.acls;
      List.iter
        (fun (pl : Ast.prefix_list) ->
          List.iter
            (fun (idx, kind) ->
              let e = List.nth pl.pl_entries idx in
              let line =
                Locator.find locators file (fun loc ->
                    Locator.prefix_list_line loc pl.pl_name
                      ~seq:(Some e.Ast.pl_seq) ~index:idx)
              in
              let reason =
                match kind with
                | `Shadowed -> "is shadowed by earlier entries"
                | `Unsatisfiable -> "has an unsatisfiable ge/le range"
              in
              findings :=
                Diag.make ~file ?line Diag.Warning
                  ~code:"netlint-shadowed-prefix-list-entry"
                  "prefix-list %s seq %d %s and can never match" pl.pl_name
                  e.Ast.pl_seq reason
                :: !findings)
            (shadowed_prefix_list_entries pl))
        cfg.prefix_lists;
      List.iter
        (fun (rm : Ast.route_map) ->
          List.iter
            (fun (idx, (en : Ast.route_map_entry)) ->
              let line =
                Locator.find locators file (fun loc ->
                    Locator.route_map_line loc rm.rm_name ~seq:(Some en.seq)
                      ~index:idx)
              in
              findings :=
                Diag.make ~file ?line Diag.Warning
                  ~code:"netlint-shadowed-route-map-entry"
                  "route-map %s entry %d is shadowed by earlier entries \
                   and can never match"
                  rm.rm_name en.seq
                :: !findings)
            (shadowed_route_map_entries cfg rm))
        cfg.route_maps)
    a.configs;
  List.rev !findings

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)

let cap_findings ~rule diags =
  let n = List.length diags in
  if n <= finding_cap then diags
  else
    List.filteri (fun i _ -> i < finding_cap) diags
    @ [
        Diag.make Diag.Info ~code:"netlint-truncated"
          "%s: showing %d of %d findings" rule finding_cap n;
      ]

(* The four families by name, in default run order. *)
let families ?metrics () : (string * Lint.rule) list =
  [
    ("redistribution-loop", redistribution_loops ?metrics);
    ("route-leak", leak_findings);
    ("peer-consistency", peer_consistency);
    ("shadowed-rules", shadowed_rules);
  ]

let all_rules = List.map fst (families ())

let run_analysis ?trace ?metrics ?cancel ?(rules = all_rules) ?files
    (a : Analysis.t) =
  let families = families ?metrics () in
  let rule r =
    try List.assoc r families
    with Not_found -> invalid_arg (Printf.sprintf "Netlint.run_analysis: unknown rule %S" r)
  in
  let selected = List.map (fun r -> (r, rule r)) rules in
  let locators = Locator.of_files ?files () in
  Metrics.incr metrics "netlint.networks";
  let findings =
    List.concat_map
      (fun (name, rule) ->
        Cancel.check ~site:"netlint.rule" cancel;
        Trace.span ~cat:"stage"
          ~args:[ ("network", Trace.String a.name) ]
          trace
          ("netlint." ^ name)
          (fun () ->
            let fs = rule locators a in
            Metrics.incr ~by:(List.length fs) metrics ("netlint." ^ name);
            cap_findings ~rule:name fs))
      selected
  in
  let e, w, _ = Diag.counts findings in
  Metrics.incr ~by:e metrics "netlint.errors";
  Metrics.incr ~by:w metrics "netlint.warnings";
  {
    network = a.name;
    routers = Analysis.router_count a;
    instances = Analysis.instance_count a;
    rules;
    findings;
  }

let run ?cancel ?rules ~name files =
  let a = Analysis.analyze ?cancel ~name files in
  run_analysis ?cancel ?rules ~files a

let has_errors reports =
  List.exists (fun r -> Diag.has_errors r.findings) reports

let counts reports =
  List.fold_left
    (fun (e, w, i) r ->
      let e', w', i' = Diag.counts r.findings in
      (e + e', w + w', i + i'))
    (0, 0, 0) reports

let render reports =
  let header =
    [ "network"; "routers"; "instances"; "errors"; "warnings"; "infos" ]
  in
  let rows =
    List.map
      (fun r ->
        let e, w, i = Diag.counts r.findings in
        [
          r.network;
          string_of_int r.routers;
          string_of_int r.instances;
          string_of_int e;
          string_of_int w;
          string_of_int i;
        ])
      reports
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Table.render ~headers:header rows);
  List.iter
    (fun r ->
      if r.findings <> [] then begin
        Buffer.add_string buf (Printf.sprintf "\n%s:\n" r.network);
        Buffer.add_string buf (Diag.render r.findings)
      end)
    reports;
  let e, w, i = counts reports in
  Buffer.add_string buf
    (Printf.sprintf "\n%d networks linted: %d errors, %d warnings, %d infos\n"
       (List.length reports) e w i);
  Buffer.contents buf

let to_json reports =
  let e, w, i = counts reports in
  Json.Obj
    [
      ( "networks",
        Json.List
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("network", Json.String r.network);
                   ("routers", Json.Int r.routers);
                   ("instances", Json.Int r.instances);
                   ( "rules",
                     Json.List (List.map (fun s -> Json.String s) r.rules) );
                   ("findings", Diag.to_json r.findings);
                 ])
             reports) );
      ("errors", Json.Int e);
      ("warnings", Json.Int w);
      ("infos", Json.Int i);
    ]
