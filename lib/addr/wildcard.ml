type t = { base : Ipv4.t; wild : Ipv4.t }

let make base wild =
  let w = Ipv4.to_int wild in
  { base = Ipv4.of_int (Ipv4.to_int base land lnot w land 0xFFFFFFFF); wild }

let base t = t.base
let wild t = t.wild

let matches t a =
  let w = Ipv4.to_int t.wild in
  Ipv4.to_int a land lnot w land 0xFFFFFFFF = Ipv4.to_int t.base

let is_contiguous t =
  let w = Ipv4.to_int t.wild in
  (* contiguous wildcard = 2^k - 1 *)
  w land (w + 1) = 0

let of_prefix p = make (Prefix.addr p) (Prefix.hostmask p)

let to_prefix t =
  if not (is_contiguous t) then None
  else begin
    let w = Ipv4.to_int t.wild in
    let rec bits x acc = if x = 0 then acc else bits (x lsr 1) (acc + 1) in
    Some (Prefix.make t.base (32 - bits w 0))
  end

(* The most scattered wild bits [to_prefixes] enumerates: 2^12 prefixes. *)
let max_scattered_bits = 12

let to_prefixes t =
  match to_prefix t with
  | Some p -> ([ p ], true)
  | None ->
    let w = Ipv4.to_int t.wild and b = Ipv4.to_int t.base in
    (* Bit positions here count from the low end.  The contiguous run of
       wild bits at the bottom folds into the prefix length; every wild
       bit above it must be enumerated. *)
    let rec run k = if k < 32 && (w lsr k) land 1 = 1 then run (k + 1) else k in
    let contiguous = run 0 in
    let scattered =
      List.filter (fun i -> (w lsr i) land 1 = 1)
        (List.init (32 - contiguous) (fun i -> i + contiguous))
    in
    if List.length scattered > max_scattered_bits then begin
      (* Over-approximate with the smallest contiguous wildcard covering
         every wild bit: wildcard everything up to the highest wild bit. *)
      let rec high i = if (w lsr i) land 1 = 1 then i else high (i - 1) in
      ([ Prefix.make t.base (31 - high 31) ], false)
    end
    else begin
      let len = 32 - contiguous in
      let m = List.length scattered in
      let prefixes =
        List.init (1 lsl m) (fun combo ->
            let addr =
              List.fold_left
                (fun (acc, bit) pos ->
                  ((if combo land (1 lsl bit) <> 0 then acc lor (1 lsl pos) else acc), bit + 1))
                (b, 0) scattered
              |> fst
            in
            Prefix.make (Ipv4.of_int addr) len)
      in
      (prefixes, true)
    end

let any = make Ipv4.zero Ipv4.broadcast_all

let host a = make a Ipv4.zero

let to_string t = Printf.sprintf "%s %s" (Ipv4.to_string t.base) (Ipv4.to_string t.wild)

let compare a b =
  match Ipv4.compare a.base b.base with 0 -> Ipv4.compare a.wild b.wild | c -> c

let equal a b = compare a b = 0
