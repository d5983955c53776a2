open Rd_addr
open Rd_util

type t = {
  key : string;
  token_cache : (string, string) Hashtbl.t;
  as_cache : (int, int) Hashtbl.t;
  as_used : (int, unit) Hashtbl.t;
  flip_cache : (int, int) Hashtbl.t;
  addr_cache : (int, int) Hashtbl.t;
}

let create ~key =
  {
    key;
    token_cache = Hashtbl.create 256;
    as_cache = Hashtbl.create 64;
    as_used = Hashtbl.create 64;
    flip_cache = Hashtbl.create 1024;
    addr_cache = Hashtbl.create 256;
  }

(* --- dictionary -------------------------------------------------------- *)

let dictionary_words =
  (* Every keyword the parser recognizes must survive anonymization
     unchanged, or the anonymized file parses to a different AST shape
     (hashed command heads become unknown lines, hashed sub-keywords lose
     modeled state).  This list therefore covers the full keyword surface
     of {!Parser}, including administrivia heads it accepts-and-ignores. *)
  [
    (* structural commands *)
    "hostname"; "interface"; "router"; "ip"; "no"; "access-list"; "access-group";
    "route-map"; "match"; "set"; "permit"; "deny"; "address"; "network"; "area";
    "redistribute"; "distribute-list"; "neighbor"; "remote-as"; "route"; "mask";
    "metric"; "metric-type"; "subnets"; "tag"; "local-preference"; "passive-interface";
    "default-information"; "originate"; "maximum-paths"; "router-id"; "unnumbered";
    "secondary"; "shutdown"; "point-to-point"; "update-source"; "next-hop-self";
    "route-reflector-client"; "description"; "standard"; "extended"; "version";
    "auto-summary"; "synchronization"; "log-adjacency-changes"; "classless";
    "prefix-list"; "seq"; "le"; "ge"; "aggregate-address"; "summary-only";
    "access-class";
    (* protocols *)
    "ospf"; "eigrp"; "igrp"; "rip"; "bgp"; "isis"; "connected"; "static";
    (* ACL words *)
    "any"; "host"; "eq"; "gt"; "lt"; "range"; "log"; "established";
    "tcp"; "udp"; "icmp"; "igmp"; "pim"; "gre"; "esp"; "ahp";
    (* encapsulation / misc accepted sub-commands *)
    "frame-relay"; "interface-dlci"; "encapsulation"; "bandwidth"; "mtu"; "delay";
    "keepalive"; "cdp"; "enable"; "duplex"; "speed"; "full"; "half"; "auto";
    "service"; "end"; "line"; "snmp-server"; "ntp"; "logging"; "banner"; "clock";
    "in"; "out";
    (* accepted-and-ignored administrivia heads *)
    "aaa"; "controller"; "class-map"; "policy-map"; "vrf"; "key"; "username";
    "alias"; "boot"; "memory-size"; "scheduler"; "spanning-tree"; "vtp";
    "tacacs-server"; "radius-server"; "exception"; "privilege"; "prompt";
    "hostname-prefix"; "mpls"; "card"; "redundancy"; "dial-peer"; "voice";
    (* accepted "ip <sub>" administrivia *)
    "domain-name"; "name-server"; "subnet-zero"; "cef"; "http"; "finger";
    "source-route"; "ssh"; "ftp"; "bootp";
  ]

let interface_kinds =
  [
    "Ethernet"; "FastEthernet"; "GigabitEthernet"; "Serial"; "Hssi"; "POS"; "ATM";
    "TokenRing"; "Fddi"; "Loopback"; "Tunnel"; "Dialer"; "BRI"; "Port-channel";
    "Multilink"; "Null"; "Async"; "Virtual-Template"; "CBR"; "Channel"; "Vlan";
  ]

let dictionary =
  let tbl = Hashtbl.create 256 in
  List.iter (fun w -> Hashtbl.replace tbl w ()) dictionary_words;
  tbl

let is_interface_name tok =
  (* An interface token is a known kind followed by digits / '/' '.' ':' *)
  List.exists
    (fun kind ->
      let kl = String.length kind in
      String.length tok >= kl
      && String.sub tok 0 kl = kind
      && String.for_all
           (fun c -> (c >= '0' && c <= '9') || c = '/' || c = '.' || c = ':')
           (String.sub tok kl (String.length tok - kl)))
    interface_kinds

let in_dictionary tok = Hashtbl.mem dictionary tok || is_interface_name tok

(* --- primitive anonymizers -------------------------------------------- *)

let is_integer tok = tok <> "" && String.for_all (fun c -> c >= '0' && c <= '9') tok

let base62 = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"

let anonymize_token t tok =
  match Hashtbl.find_opt t.token_cache tok with
  | Some v -> v
  | None ->
    let digest = Sha1.digest_string (t.key ^ "\x01" ^ tok) in
    let buf = Bytes.create 11 in
    for i = 0 to 10 do
      Bytes.set buf i base62.[Char.code digest.[i] mod 62]
    done;
    let v = Bytes.to_string buf in
    Hashtbl.replace t.token_cache tok v;
    v

(* Prefix-preserving bit-by-bit anonymization: output bit i is input bit i
   xored with a PRF of the first i input bits (the tcpdpriv / Crypto-PAn
   construction).

   The leading class bits (0 / 10 / 110 / 1110) pass through unflipped:
   classful protocols (RIP, IGRP, classful [network] statements) infer
   the mask from the address class, so letting 10.0.0.0 wander out of
   class A silently changes which interfaces a process covers — the
   cross-check's anonymize-structure invariant caught a RIP instance
   shattering into singletons this way.  The exactness guarantee is
   unharmed: "flip nothing" is just a particular choice of PRF value,
   and whether bit i is a class bit depends only on the first i input
   bits (i < class_bits x  iff  the first min(i,3) bits are all ones). *)
let class_bits x =
  if x lsr 31 = 0 then 1
  else if x lsr 30 = 0b10 then 2
  else if x lsr 29 = 0b110 then 3
  else 4

(* Both caches only memoize: the flip bit is a function of the key, the
   bit index and the input prefix, so a warm map is byte-identical to a
   cold one.  Addresses of one network share long prefixes, so most of
   an uncached address's 32 PRF calls are already in [flip_cache]. *)
let flip t i prefix =
  let k = (i lsl 32) lor prefix in
  match Hashtbl.find_opt t.flip_cache k with
  | Some b -> b
  | None ->
    let input = String.concat "" [ "ip:"; string_of_int i; ":"; string_of_int prefix ] in
    let b = Int64.to_int (Int64.logand (Sha1.prf ~key:t.key input) 1L) in
    Hashtbl.add t.flip_cache k b;
    b

let anonymize_addr t a =
  let x = Ipv4.to_int a in
  match Hashtbl.find_opt t.addr_cache x with
  | Some y -> Ipv4.of_int y
  | None ->
    let cb = class_bits x in
    let out = ref 0 in
    for i = 0 to 31 do
      let prefix = if i = 0 then 0 else x lsr (32 - i) in
      let flip = if i < cb then 0 else flip t i prefix in
      let bit = (x lsr (31 - i)) land 1 in
      out := (!out lsl 1) lor (bit lxor flip)
    done;
    Hashtbl.add t.addr_cache x !out;
    Ipv4.of_int !out

let private_as n = n >= 64512 && n <= 65534

(* The PRF alone is not injective: a network peering with a thousand-odd
   external ASes expects ~birthday-bound collisions in a 64511-slot
   range, and two distinct peers silently merging into one anonymized AS
   changes the design (the cross-check's anonymize-structure invariant
   caught exactly that on the seven largest BGP networks).  So the PRF
   value only picks the *starting* slot; linear probing finds the first
   slot not already handed out by this state, which makes the mapping
   injective per [t] while staying deterministic. *)
let as_slots = 64511

(* The public inputs (1-64511 and 65535) outnumber the slots by one, so
   once one [t] has handed out every slot the next new input has nowhere
   to go: that is a budget trip, not a probe that never ends. *)
let anonymize_as t n =
  if n = 0 || private_as n || n > 65535 then n
  else
    match Hashtbl.find_opt t.as_cache n with
    | Some v -> v
    | None ->
      Limits.check ~site:"anonymize.as-space" ~budget:as_slots (Hashtbl.length t.as_used + 1);
      let h = Sha1.prf ~key:t.key (Printf.sprintf "as:%d" n) in
      let start =
        Int64.to_int (Int64.rem (Int64.logand h Int64.max_int) (Int64.of_int as_slots))
      in
      let rec probe i =
        let v = 1 + ((start + i) mod as_slots) in
        if Hashtbl.mem t.as_used v then probe (i + 1) else v
      in
      let v = probe 0 in
      Hashtbl.replace t.as_cache n v;
      Hashtbl.replace t.as_used v ();
      v

(* A token that parses as an address but is really a mask must be kept:
   contiguous netmasks (ones then zeros) and contiguous wildcards (zeros
   then ones). *)
let is_mask_like x =
  let v = Ipv4.to_int x in
  let netmask = Prefix.of_addr_mask Ipv4.zero x <> None in
  let wildcard = v land (v + 1) = 0 in
  netmask || wildcard

(* --- whole-config anonymization ---------------------------------------- *)

let anonymize_line t prev_words words =
  (* [prev_words] = words already emitted on this line (original forms),
     used for context such as "remote-as <n>" and "router bgp <n>". *)
  let rec go acc prev = function
    | [] -> List.rev acc
    | tok :: rest ->
      let anon =
        match Ipv4.of_string tok with
        | Some a when not (is_mask_like a) -> Ipv4.to_string (anonymize_addr t a)
        | Some _ -> tok
        | None ->
          (* CIDR tokens (prefix-list entries, aggregates): anonymize the
             address part, keep the length *)
          (match String.index_opt tok '/' with
           | Some i
             when Ipv4.of_string (String.sub tok 0 i) <> None
                  && is_integer (String.sub tok (i + 1) (String.length tok - i - 1)) ->
             let a = Ipv4.of_string_exn (String.sub tok 0 i) in
             Ipv4.to_string (anonymize_addr t a)
             ^ String.sub tok i (String.length tok - i)
           | _ ->
             if is_integer tok then begin
               let as_context =
                 match prev with
                 | "remote-as" :: _ -> true
                 | "bgp" :: "router" :: _ -> true
                 | "bgp" :: "redistribute" :: _ -> true
                 | _ -> false
               in
               if as_context then begin
                 (* a digits-only token can still overflow int *)
                 match int_of_string_opt tok with
                 | Some v -> string_of_int (anonymize_as t v)
                 | None -> tok
               end
               else tok
             end
             else if in_dictionary tok then tok
             else anonymize_token t tok)
      in
      go (anon :: acc) (tok :: prev) rest
  in
  go [] prev_words words

let leading_whitespace s =
  let n = String.length s in
  let rec go i = if i < n && (s.[i] = ' ' || s.[i] = '\t') then go (i + 1) else i in
  String.sub s 0 (go 0)

let anonymize_config t text =
  let lines = String.split_on_char '\n' text in
  let out = Buffer.create (String.length text) in
  (* Joining with '\n' exactly inverts the split, so the output has the
     same line count and the same presence/absence of a trailing newline
     as the input — no heuristic needed. *)
  List.iteri
    (fun idx line ->
      if idx > 0 then Buffer.add_char out '\n';
      let trimmed = String.trim line in
      if trimmed = "" then Buffer.add_string out line
      else if trimmed.[0] = '!' then begin
        (* comment text removed, separator structure kept *)
        Buffer.add_string out (leading_whitespace line);
        Buffer.add_char out '!'
      end
      else begin
        (* the lexer's words: a tab left inside a "word" would make a
           dictionary keyword hash *)
        let words = Lexer.words trimmed in
        (* description arguments are free text: drop them entirely after
           hashing to a single token, they carry only identity. *)
        let words =
          match words with
          | "description" :: _ :: _ -> [ "description"; anonymize_token t (String.concat " " (List.tl words)) ]
          | "neighbor" :: ip :: "description" :: d :: ds ->
            [ "neighbor"; ip; "description"; anonymize_token t (String.concat " " (d :: ds)) ]
          | _ -> words
        in
        let anon = anonymize_line t [] words in
        (* the original indentation (tabs, multi-space) is preserved so the
           anonymized file re-parses to the identical AST shape *)
        Buffer.add_string out (leading_whitespace line);
        Buffer.add_string out (String.concat " " anon)
      end)
    lines;
  Buffer.contents out
