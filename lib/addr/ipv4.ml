type t = int

let limit = 1 lsl 32

let of_int x =
  if x < 0 || x >= limit then invalid_arg "Ipv4.of_int: out of range";
  x

let to_int x = x

let of_octets a b c d =
  let ok o = o >= 0 && o <= 255 in
  if not (ok a && ok b && ok c && ok d) then invalid_arg "Ipv4.of_octets";
  (a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d

let octets x = ((x lsr 24) land 0xFF, (x lsr 16) land 0xFF, (x lsr 8) land 0xFF, x land 0xFF)

let of_string s =
  (* Hand-rolled parse: strict dotted quad, no leading/trailing junk, no
     leading-zero octets ("010.0.0.1" is rejected — historically such
     octets were read as octal, so accepting them silently would assign
     the wrong address). *)
  let n = String.length s in
  let rec octet i acc digits =
    if i < n && s.[i] >= '0' && s.[i] <= '9' then begin
      if digits >= 1 && acc = 0 then None
      else begin
        let acc = (acc * 10) + (Char.code s.[i] - Char.code '0') in
        if acc > 255 || digits >= 3 then None else octet (i + 1) acc (digits + 1)
      end
    end
    else if digits = 0 then None
    else Some (acc, i)
  in
  let ( >>= ) o f = match o with None -> None | Some v -> f v in
  octet 0 0 0 >>= fun (a, i) ->
  if i >= n || s.[i] <> '.' then None
  else
    octet (i + 1) 0 0 >>= fun (b, i) ->
    if i >= n || s.[i] <> '.' then None
    else
      octet (i + 1) 0 0 >>= fun (c, i) ->
      if i >= n || s.[i] <> '.' then None
      else
        octet (i + 1) 0 0 >>= fun (d, i) ->
        if i <> n then None else Some (of_octets a b c d)

let of_string_exn s =
  match of_string s with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "Ipv4.of_string_exn: %S" s)

let to_string x =
  let a, b, c, d = octets x in
  Printf.sprintf "%d.%d.%d.%d" a b c d

let compare = Int.compare
let equal = Int.equal

let succ x = (x + 1) land (limit - 1)
let add x n = (x + n) land (limit - 1)

let zero = 0
let broadcast_all = limit - 1
