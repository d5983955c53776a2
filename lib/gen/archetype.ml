open Rd_addr

type t = Backbone | Enterprise | Compartment | Restricted | Tier2 | Hub_spoke | Igp_only

let to_string = function
  | Backbone -> "backbone"
  | Enterprise -> "enterprise"
  | Compartment -> "compartment"
  | Restricted -> "restricted"
  | Tier2 -> "tier2"
  | Hub_spoke -> "hub-spoke"
  | Igp_only -> "igp-only"

let all = [ Backbone; Enterprise; Compartment; Restricted; Tier2; Hub_spoke; Igp_only ]

let of_string s = List.find_opt (fun a -> String.equal (to_string a) s) all

(* Internal blocks are sized to the network (networks are analyzed
   independently, so 10/8 reuse across networks is fine — and realistic). *)
let block_for index ~n =
  if n > 400 then Prefix.of_string_exn "10.0.0.0/8"
  else if n > 100 then Prefix.nth_subnet (Prefix.of_string_exn "10.0.0.0/8") 11 (index mod 8)
  else Prefix.nth_subnet (Prefix.of_string_exn "10.0.0.0/8") 13 (index mod 32)

let ext_block_for index =
  Prefix.nth_subnet (Prefix.of_string_exn "128.0.0.0/4") 12 (index mod 256)

let scale_compartments ~n =
  (* Mimic net5's shape at other sizes: one dominant compartment, two
     mid-sized, a tail. *)
  let big = max 2 (n / 2) in
  let mid1 = max 1 (n / 8) and mid2 = max 1 (n / 12) in
  let rest = n - big - mid1 - mid2 in
  let tail =
    if rest <= 0 then []
    else begin
      let pieces = max 1 (min 5 (rest / 3)) in
      let each = max 1 (rest / pieces) in
      List.init pieces (fun i ->
          (40 + i, if i = pieces - 1 then rest - (each * (pieces - 1)) else each))
    end
  in
  ((10, big) :: (20, mid1) :: (30, mid2) :: tail)
  |> List.filter (fun (_, sz) -> sz > 0)

let generate arch ~seed ~n ?(use_bgp = true) ?(use_filters = true) ~index () =
  (* Compartmentalized designs carve per-compartment blocks and need the
     headroom of a large parent block regardless of router count. *)
  let block =
    match arch with
    | Compartment -> block_for index ~n:(max n 401)
    | _ -> block_for index ~n
  in
  let ext_block = ext_block_for index in
  match arch with
  | Backbone ->
    Gen_backbone.generate
      {
        Gen_backbone.seed;
        n;
        asn = 2000 + index;
        pops = max 2 (n / 40);
        border_fraction = 0.22;
        sessions_per_border = (8, 18);
        media = (if index mod 4 = 3 then "Hssi" else "POS");
        block;
        ext_block;
      }
  | Enterprise ->
    Gen_enterprise.generate
      {
        Gen_enterprise.seed;
        n;
        two_igp = n > 90;
        asn = 64512 + (index mod 1000);
        provider_asn = 7018;
        internal_filter_share = 0.05 +. (float_of_int (index mod 5) *. 0.06);
        block;
        ext_block;
      }
  | Compartment ->
    if n = 881 then Gen_compartment.generate (Gen_compartment.net5_params ~seed)
    else
      Gen_compartment.generate
        {
          Gen_compartment.seed;
          compartments = scale_compartments ~n;
          glues =
            [
              { Gen_compartment.g_asn = 65101; g_members = [ (0, 2) ]; g_ext_peers = [ 7018 ] };
              { Gen_compartment.g_asn = 65102; g_members = [ (0, 2); (1, 1) ]; g_ext_peers = [] };
              { Gen_compartment.g_asn = 65103; g_members = [ (2, 1) ]; g_ext_peers = [ 3356 ] };
            ];
          ebgp_intra = [ (0, 2) ];
          block;
          ext_block;
        }
  | Restricted ->
    if n = 79 then Gen_restricted.generate (Gen_restricted.net15_params ~seed)
    else
      Gen_restricted.generate
        {
          (Gen_restricted.net15_params ~seed) with
          Gen_restricted.left_size = n / 2;
          right_size = n - (n / 2);
          ext_block;
        }
  | Tier2 ->
    Gen_tier2.generate
      {
        Gen_tier2.seed;
        n;
        asn = 3000 + index;
        staging_per_agg = (1, 2);
        agg_fraction = 0.25;
        ebgp_sessions = max 40 (2 * n);
        confederation = (if n >= 1000 then 12 else if n >= 500 then 6 else 0);
        borders_per_cluster = (if n >= 1000 then 4 else 3);
        block;
        ext_block;
      }
  | Hub_spoke ->
    Gen_hubspoke.generate
      {
        Gen_hubspoke.seed;
        n;
        hubs = max 1 (n / 24);
        use_bgp;
        use_filters;
        igp = (if index mod 3 = 0 then Rd_config.Ast.Rip else Rd_config.Ast.Eigrp);
        asn = 64900 + (index mod 100);
        spoke_mgmt = (if n > 500 then 3 else 0);
        provider_asn = 701;
        block;
        ext_block;
      }
  | Igp_only ->
    Gen_igp_only.generate
      {
        Gen_igp_only.seed;
        n;
        igp = (if index mod 2 = 0 then Rd_config.Ast.Ospf else Rd_config.Ast.Eigrp);
        use_filters;
        block;
        ext_block;
      }
