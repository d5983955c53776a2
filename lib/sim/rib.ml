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

let mk ?(metric = 0) ?(tag = None) ?(next_hop = None) ?(as_path = []) ?ad_override dest source =
  { dest; source; metric; tag; next_hop; as_path; from_client = false; via_ibgp = false;
    ad_override }

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

(* A RIB is its routes in an array, strictly increasing by
   [Prefix.compare] on [dest]: one route per destination. *)
type t = route array

let empty = [||]

(* The index of [p]'s route, or [-(i + 1)] when absent, [i] being where
   it would go. *)
let search t p =
  let rec go lo hi =
    if lo >= hi then -(lo + 1)
    else begin
      let mid = (lo + hi) lsr 1 in
      let c = Prefix.compare t.(mid).dest p in
      if c = 0 then mid else if c < 0 then go (mid + 1) hi else go lo mid
    end
  in
  go 0 (Array.length t)

let find t p =
  let i = search t p in
  if i >= 0 then Some t.(i) else None

let add t r =
  let i = search t r.dest in
  if i < 0 then begin
    let i = -(i + 1) in
    Array.init (Array.length t + 1) (fun j -> if j < i then t.(j) else if j = i then r else t.(j - 1))
  end
  else if better r t.(i) then begin
    let t = Array.copy t in
    t.(i) <- r;
    t
  end
  else t

let lookup t a =
  let rec go len =
    if len < 0 then None
    else match find t (Prefix.make a len) with Some _ as r -> r | None -> go (len - 1)
  in
  go 32

let of_routes routes =
  let t = Array.of_list routes in
  for i = 1 to Array.length t - 1 do
    if Prefix.compare t.(i - 1).dest t.(i).dest >= 0 then
      invalid_arg "Rib.of_routes: routes not strictly increasing by prefix"
  done;
  t

let routes = Array.to_list

let size = Array.length

let prefixes t = Prefix_set.of_prefixes (Array.fold_right (fun r acc -> r.dest :: acc) t [])

(* One pass over both arrays; on a shared prefix [b]'s route replaces
   [a]'s only when strictly better, as [add] would. *)
let merge a b =
  let na = Array.length a and nb = Array.length b in
  let out = ref [] and i = ref 0 and j = ref 0 in
  while !i < na || !j < nb do
    let c = if !i = na then 1 else if !j = nb then -1 else Prefix.compare a.(!i).dest b.(!j).dest in
    if c < 0 then begin
      out := a.(!i) :: !out;
      incr i
    end
    else if c > 0 then begin
      out := b.(!j) :: !out;
      incr j
    end
    else begin
      out := (if better b.(!j) a.(!i) then b.(!j) else a.(!i)) :: !out;
      incr i;
      incr j
    end
  done;
  Array.of_list (List.rev !out)
