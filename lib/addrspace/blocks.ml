open Rd_addr

type block = { prefix : Prefix.t; used_addresses : int; subnets : Prefix.t list }

(* Count the used addresses inside [p]: descend the canonical trie along
   p's bits, then count the subtree through the kernel's memoized
   [count_subtree] — every candidate supernet is counted against the one
   shared "used" set, so overlapping candidates re-count shared subtrees
   from the cache instead of walking them again. *)
let coverage used p =
  let addr = Ipv4.to_int (Prefix.addr p) in
  let rec descend depth set =
    if depth = Prefix.len p then Prefix_set.count_subtree ~depth set
    else begin
      match Prefix_set.view set with
      | Prefix_set.Empty_v -> 0
      | Prefix_set.Full_v -> 1 lsl (32 - Prefix.len p)
      | Prefix_set.Split_v (l, r) ->
        if addr land (1 lsl (31 - depth)) = 0 then descend (depth + 1) l
        else descend (depth + 1) r
    end
  in
  descend 0 used

(* Smallest common supernet of two prefixes. *)
let common_supernet a b =
  let rec go p = if Prefix.subset a p && Prefix.subset b p then p else go (Option.get (Prefix.parent p)) in
  go (Prefix.make (Prefix.addr a) (min (Prefix.len a) (Prefix.len b)))

let discover ?metrics ?(limits = Rd_util.Limits.default) ?(threshold = 0.5) subnets =
  if threshold <= 0.0 || threshold > 1.0 then invalid_arg "Blocks.discover: threshold";
  let subnets = List.sort_uniq Prefix.compare subnets in
  Rd_util.Limits.check ~site:"blocks.subnets" ~budget:limits.max_subnets (List.length subnets);
  let used = Prefix_set.of_prefixes subnets in
  let merges = ref 0 in
  let qualifies p = float_of_int (coverage used p) >= threshold *. float_of_int (Prefix.size p) in
  (* The paper's pairwise join: two blocks may merge into their common
     supernet when the supernet grows the smaller mask by at most two bits
     and at least [threshold] of the supernet is used.  Blocks are address-
     sorted, so only stack-adjacent blocks can ever merge; repeat to
     fixpoint via the merge-retry stack. *)
  let try_merge a b =
    let sup = common_supernet a b in
    if Prefix.len sup >= min (Prefix.len a) (Prefix.len b) - 2 && qualifies sup then Some sup
    else None
  in
  let rec push stack p =
    match stack with
    | top :: rest -> (
      match try_merge top p with
      | Some sup ->
        incr merges;
        push rest sup
      | None -> p :: stack)
    | [] -> [ p ]
  in
  let merged = List.rev (List.fold_left push [] subnets) in
  (match metrics with
   | None -> ()
   | Some _ ->
     Rd_util.Metrics.incr metrics ~by:(List.length subnets) "blocks.subnets";
     Rd_util.Metrics.incr metrics ~by:!merges "blocks.merges";
     Rd_util.Metrics.incr metrics ~by:(List.length merged) "blocks.blocks");
  List.map
    (fun p ->
      {
        prefix = p;
        used_addresses = coverage used p;
        subnets = List.filter (fun s -> Prefix.subset s p) subnets;
      })
    merged

let subnets_of_configs configs =
  let acc = ref [] in
  List.iter
    (fun (_, (cfg : Rd_config.Ast.t)) ->
      List.iter
        (fun (i : Rd_config.Ast.interface) ->
          List.iter (fun p -> acc := p :: !acc) (Rd_config.Ast.interface_prefixes i))
        cfg.interfaces;
      List.iter (fun (s : Rd_config.Ast.static_route) -> acc := s.sr_dest :: !acc) cfg.statics)
    configs;
  List.sort_uniq Prefix.compare !acc

type suspect = { iface : Rd_topo.Topology.iface; inside : block }

let suspect_missing_routers (topo : Rd_topo.Topology.t) blocks =
  (* Blocks dominated by internal-facing interface addresses. *)
  let internal_addrs =
    Array.to_list topo.ifaces
    |> List.filter_map (fun (i : Rd_topo.Topology.iface) ->
         match (i.address, Rd_topo.Topology.facing_of topo i.router i.if_index) with
         | Some (a, _), Rd_topo.Topology.Internal -> Some a
         | _ -> None)
  in
  let internal_count b = List.length (List.filter (fun a -> Prefix.mem a b.prefix) internal_addrs) in
  let internal_blocks =
    List.filter (fun b -> internal_count b >= 4 (* a handful of internal neighbors *)) blocks
  in
  Array.to_list topo.ifaces
  |> List.filter_map (fun (i : Rd_topo.Topology.iface) ->
       match (i.address, Rd_topo.Topology.facing_of topo i.router i.if_index) with
       | Some (a, _), Rd_topo.Topology.External ->
         Option.map
           (fun b -> { iface = i; inside = b })
           (List.find_opt (fun b -> Prefix.mem a b.prefix) internal_blocks)
       | _ -> None)

let render blocks =
  let rows =
    List.map
      (fun b ->
        [
          Prefix.to_string b.prefix;
          string_of_int b.used_addresses;
          Printf.sprintf "%.0f%%" (100.0 *. float_of_int b.used_addresses /. float_of_int (Prefix.size b.prefix));
          string_of_int (List.length b.subnets);
        ])
      blocks
  in
  Rd_util.Table.render
    ~headers:[ "block"; "used addrs"; "usage"; "subnets" ]
    ~aligns:[ Rd_util.Table.Left; Rd_util.Table.Right; Rd_util.Table.Right; Rd_util.Table.Right ]
    rows
