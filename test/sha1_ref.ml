type digest = string

(* The implementation follows RFC 3174 section 6.1 directly, operating on
   32-bit words stored in OCaml ints (masked to 32 bits). *)

let mask = 0xFFFFFFFF

let rotl x n = ((x lsl n) lor (x lsr (32 - n))) land mask

let f t b c d =
  if t < 20 then (b land c) lor (lnot b land d) land mask
  else if t < 40 then b lxor c lxor d
  else if t < 60 then (b land c) lor (b land d) lor (c land d)
  else b lxor c lxor d

let k t =
  if t < 20 then 0x5A827999
  else if t < 40 then 0x6ED9EBA1
  else if t < 60 then 0x8F1BBCDC
  else 0xCA62C1D6

let digest_string s =
  let len = String.length s in
  (* Padded message: original, 0x80, zeros, 64-bit big-endian bit length. *)
  let padded_len =
    let r = (len + 9) mod 64 in
    len + 9 + (if r = 0 then 0 else 64 - r)
  in
  let msg = Bytes.make padded_len '\000' in
  Bytes.blit_string s 0 msg 0 len;
  Bytes.set msg len '\x80';
  let bitlen = Int64.of_int (len * 8) in
  for i = 0 to 7 do
    let shift = 8 * (7 - i) in
    let byte = Int64.to_int (Int64.logand (Int64.shift_right_logical bitlen shift) 0xFFL) in
    Bytes.set msg (padded_len - 8 + i) (Char.chr byte)
  done;
  let h = [| 0x67452301; 0xEFCDAB89; 0x98BADCFE; 0x10325476; 0xC3D2E1F0 |] in
  let w = Array.make 80 0 in
  let nblocks = padded_len / 64 in
  for block = 0 to nblocks - 1 do
    let base = block * 64 in
    for t = 0 to 15 do
      let b i = Char.code (Bytes.get msg (base + (t * 4) + i)) in
      w.(t) <- (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3
    done;
    for t = 16 to 79 do
      w.(t) <- rotl (w.(t - 3) lxor w.(t - 8) lxor w.(t - 14) lxor w.(t - 16)) 1
    done;
    let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) in
    let d = ref h.(3) and e = ref h.(4) in
    for t = 0 to 79 do
      let tmp = (rotl !a 5 + f t !b !c !d + !e + w.(t) + k t) land mask in
      e := !d;
      d := !c;
      c := rotl !b 30;
      b := !a;
      a := tmp
    done;
    h.(0) <- (h.(0) + !a) land mask;
    h.(1) <- (h.(1) + !b) land mask;
    h.(2) <- (h.(2) + !c) land mask;
    h.(3) <- (h.(3) + !d) land mask;
    h.(4) <- (h.(4) + !e) land mask
  done;
  let out = Bytes.create 20 in
  for i = 0 to 4 do
    Bytes.set out (4 * i) (Char.chr ((h.(i) lsr 24) land 0xFF));
    Bytes.set out ((4 * i) + 1) (Char.chr ((h.(i) lsr 16) land 0xFF));
    Bytes.set out ((4 * i) + 2) (Char.chr ((h.(i) lsr 8) land 0xFF));
    Bytes.set out ((4 * i) + 3) (Char.chr (h.(i) land 0xFF))
  done;
  Bytes.to_string out

let to_hex d =
  let buf = Buffer.create 40 in
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) d;
  Buffer.contents buf

let hex_of_string s = to_hex (digest_string s)

let prf ~key data =
  let d = digest_string (key ^ "\x00" ^ data) in
  let byte i = Int64.of_int (Char.code d.[i]) in
  let rec build acc i =
    if i = 8 then acc else build (Int64.logor (Int64.shift_left acc 8) (byte i)) (i + 1)
  in
  build 0L 0
