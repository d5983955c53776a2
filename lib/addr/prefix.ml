type t = { addr : Ipv4.t; len : int }

let mask_bits len = if len = 0 then 0 else 0xFFFFFFFF lsl (32 - len) land 0xFFFFFFFF

let make addr len =
  if len < 0 || len > 32 then invalid_arg "Prefix.make: bad length";
  { addr = Ipv4.of_int (Ipv4.to_int addr land mask_bits len); len }

let addr t = t.addr
let len t = t.len

let of_string s =
  match String.index_opt s '/' with
  | None -> Option.map (fun a -> make a 32) (Ipv4.of_string s)
  | Some i ->
    let addr_part = String.sub s 0 i in
    let len_part = String.sub s (i + 1) (String.length s - i - 1) in
    (match (Ipv4.of_string addr_part, int_of_string_opt len_part) with
     | Some a, Some l when l >= 0 && l <= 32 -> Some (make a l)
     | _ -> None)

let of_string_exn s =
  match of_string s with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Prefix.of_string_exn: %S" s)

let of_addr_mask a m =
  let m = Ipv4.to_int m in
  (* Count leading ones, then check the mask is exactly that many ones
     followed by zeros (i.e. contiguous). *)
  let rec leading_ones bit acc =
    if bit >= 0 && m land (1 lsl bit) <> 0 then leading_ones (bit - 1) (acc + 1) else acc
  in
  let l = leading_ones 31 0 in
  if m = mask_bits l then Some (make a l) else None

let to_string t = Printf.sprintf "%s/%d" (Ipv4.to_string t.addr) t.len

let compare a b =
  match Ipv4.compare a.addr b.addr with 0 -> Int.compare a.len b.len | c -> c

let equal a b = compare a b = 0

let netmask t = Ipv4.of_int (mask_bits t.len)
let hostmask t = Ipv4.of_int (lnot (mask_bits t.len) land 0xFFFFFFFF)
let network t = t.addr
let size t = 1 lsl (32 - t.len)
let broadcast t = Ipv4.of_int (Ipv4.to_int t.addr + size t - 1)

let mem a t = Ipv4.to_int a land mask_bits t.len = Ipv4.to_int t.addr

let subset a b = a.len >= b.len && mem a.addr b

let overlap a b = subset a b || subset b a

let parent t = if t.len = 0 then None else Some (make t.addr (t.len - 1))

let split t =
  if t.len = 32 then None
  else begin
    let half = size t / 2 in
    Some (make t.addr (t.len + 1), make (Ipv4.add t.addr half) (t.len + 1))
  end

let nth t i =
  if i < 0 || i >= size t then invalid_arg "Prefix.nth";
  Ipv4.add t.addr i

let nth_subnet t sublen i =
  if sublen < t.len || sublen > 32 then invalid_arg "Prefix.nth_subnet: bad length";
  let count = 1 lsl (sublen - t.len) in
  if i < 0 || i >= count then invalid_arg "Prefix.nth_subnet: index";
  make (Ipv4.add t.addr (i * (1 lsl (32 - sublen)))) sublen

let default = make Ipv4.zero 0

let host a = make a 32
