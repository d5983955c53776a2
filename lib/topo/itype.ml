type t =
  | Serial
  | FastEthernet
  | ATM
  | POS
  | Ethernet
  | Hssi
  | GigabitEthernet
  | TokenRing
  | Dialer
  | BRI
  | Tunnel
  | Port_channel
  | Async
  | Virtual
  | Channel
  | CBR
  | Fddi
  | Multilink
  | Null
  | Loopback
  | Vlan
  | Other of string

(* Longest-prefix-first so that "FastEthernet" wins over "Ethernet". *)
let name_map =
  [
    ("GigabitEthernet", GigabitEthernet);
    ("FastEthernet", FastEthernet);
    ("Ethernet", Ethernet);
    ("TokenRing", TokenRing);
    ("Serial", Serial);
    ("Hssi", Hssi);
    ("POS", POS);
    ("ATM", ATM);
    ("Dialer", Dialer);
    ("BRI", BRI);
    ("Tunnel", Tunnel);
    ("Port-channel", Port_channel);
    ("Async", Async);
    ("Virtual-Template", Virtual);
    ("Virtual", Virtual);
    ("Channel", Channel);
    ("CBR", CBR);
    ("Fddi", Fddi);
    ("Multilink", Multilink);
    ("Null", Null);
    ("Loopback", Loopback);
    ("Vlan", Vlan);
  ]

let of_interface_name name =
  let starts_with p =
    String.length name >= String.length p && String.sub name 0 (String.length p) = p
  in
  match List.find_opt (fun (p, _) -> starts_with p) name_map with
  | Some (_, t) -> t
  | None ->
    (* keep the alphabetic prefix as the unknown kind *)
    let rec alpha i =
      if i < String.length name && ((name.[i] >= 'a' && name.[i] <= 'z') || (name.[i] >= 'A' && name.[i] <= 'Z') || name.[i] = '-')
      then alpha (i + 1)
      else i
    in
    Other (String.sub name 0 (alpha 0))

let to_string = function
  | Serial -> "Serial"
  | FastEthernet -> "FastEthernet"
  | ATM -> "ATM"
  | POS -> "POS"
  | Ethernet -> "Ethernet"
  | Hssi -> "Hssi"
  | GigabitEthernet -> "GigabitEthernet"
  | TokenRing -> "TokenRing"
  | Dialer -> "Dialer"
  | BRI -> "BRI"
  | Tunnel -> "Tunnel"
  | Port_channel -> "Port"
  | Async -> "Async"
  | Virtual -> "Virtual"
  | Channel -> "Channel"
  | CBR -> "CBR"
  | Fddi -> "Fddi"
  | Multilink -> "Multilink"
  | Null -> "Null"
  | Loopback -> "Loopback"
  | Vlan -> "Vlan"
  | Other s -> s

(* Inverse of [to_string] on the known constructors; anything else is
   [Other].  Since [equal]/[compare] go through [to_string], a decoded
   value is indistinguishable from the original even for [Other]. *)
let of_string = function
  | "Serial" -> Serial
  | "FastEthernet" -> FastEthernet
  | "ATM" -> ATM
  | "POS" -> POS
  | "Ethernet" -> Ethernet
  | "Hssi" -> Hssi
  | "GigabitEthernet" -> GigabitEthernet
  | "TokenRing" -> TokenRing
  | "Dialer" -> Dialer
  | "BRI" -> BRI
  | "Tunnel" -> Tunnel
  | "Port" -> Port_channel
  | "Async" -> Async
  | "Virtual" -> Virtual
  | "Channel" -> Channel
  | "CBR" -> CBR
  | "Fddi" -> Fddi
  | "Multilink" -> Multilink
  | "Null" -> Null
  | "Loopback" -> Loopback
  | "Vlan" -> Vlan
  | s -> Other s

let is_physical = function Loopback | Null | Virtual -> false | _ -> true

let compare a b = Stdlib.compare (to_string a) (to_string b)
let equal a b = compare a b = 0
