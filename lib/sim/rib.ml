open Rd_addr
open Rd_config

type source = Connected | Static | Proto of Ast.protocol * [ `Internal | `External ]

type route = {
  dest : Prefix.t;
  source : source;
  metric : int;
  tag : int option;
  next_hop : Ipv4.t option;
  as_path : int list;
  from_client : bool;
  via_ibgp : bool;
  ad_override : int option;
}

let mk ?(metric = 0) ?(tag = None) ?(next_hop = None) ?(as_path = []) ?(from_client = false)
    ?(via_ibgp = false) ?ad_override dest source =
  { dest; source; metric; tag; next_hop; as_path; from_client; via_ibgp; ad_override }

let admin_distance = function
  | Connected -> 0
  | Static -> 1
  | Proto (Ast.Bgp, `External) -> 20
  | Proto (Ast.Eigrp, `Internal) -> 90
  | Proto (Ast.Igrp, _) -> 100
  | Proto (Ast.Ospf, _) -> 110
  | Proto (Ast.Isis, _) -> 115
  | Proto (Ast.Rip, _) -> 120
  | Proto (Ast.Eigrp, `External) -> 170
  | Proto (Ast.Bgp, `Internal) -> 200

type t = route Prefix_trie.t

let empty = Prefix_trie.empty

let effective_distance r =
  match r.ad_override with Some d -> d | None -> admin_distance r.source

let better (a : route) (b : route) =
  (* true when a is strictly better than b: administrative distance, then
     (for BGP routes) shorter AS path, then metric *)
  let da = effective_distance a and db = effective_distance b in
  if da <> db then da < db
  else begin
    let is_bgp r = match r.source with Proto (Ast.Bgp, _) -> true | _ -> false in
    if is_bgp a && is_bgp b && List.length a.as_path <> List.length b.as_path then
      List.length a.as_path < List.length b.as_path
    else a.metric < b.metric
  end

let add t r =
  match Prefix_trie.find r.dest t with
  | Some existing when not (better r existing) -> t
  | _ -> Prefix_trie.add r.dest r t

let lookup t a = Prefix_trie.longest_match a t |> Option.map snd

let find t p = Prefix_trie.find p t

let of_routes routes = Prefix_trie.of_bindings (List.map (fun r -> (r.dest, r)) routes)

let routes t = List.map snd (Prefix_trie.bindings t)

let size t = Prefix_trie.cardinal t

let prefixes t = Prefix_set.of_prefixes (List.map fst (Prefix_trie.bindings t))

let merge a b = Prefix_trie.fold (fun _ r acc -> add acc r) b a
