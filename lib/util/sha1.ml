type digest = string

(* RFC 3174 section 6.1 on 32-bit words held in OCaml ints (masked to 32
   bits).  The compression runs its rounds straight: each of the four
   stages is a loop of five-round blocks with the stage's function and
   constant written in, so no round branches on its index.  Within a
   block the five working variables rotate by renaming -- round t binds
   the new A under the name that held E and rotates B in place -- so
   after five rounds every name holds its own role again and nothing is
   moved.  The four blocks differ only in their round function; one
   [@inline] stage function taking it as an argument measured 13-24%
   slower, because without flambda its rounds become [caml_apply6]
   calls instead of inlined code. *)

let mask = 0xFFFFFFFF

let[@inline] rotl x n = ((x lsl n) lor (x lsr (32 - n))) land mask

(* One round of each stage: the new A, [rotl a 5 + f b c d + e + w + k]. *)
let[@inline] r1 a b c d e w = (rotl a 5 + (d lxor (b land (c lxor d))) + e + w + 0x5A827999) land mask
let[@inline] r2 a b c d e w = (rotl a 5 + (b lxor c lxor d) + e + w + 0x6ED9EBA1) land mask

let[@inline] r3 a b c d e w =
  (rotl a 5 + ((b land c) lor (d land (b lor c))) + e + w + 0x8F1BBCDC) land mask

let[@inline] r4 a b c d e w = (rotl a 5 + (b lxor c lxor d) + e + w + 0xCA62C1D6) land mask

(* Fold the 64-byte block of [s] at [off] into the state [h], using [w]
   (80 words) for the message schedule. *)
let compress h w s off =
  for t = 0 to 15 do
    w.(t) <- Int32.to_int (String.get_int32_be s (off + (4 * t))) land mask
  done;
  for t = 16 to 79 do
    w.(t) <- rotl (w.(t - 3) lxor w.(t - 8) lxor w.(t - 14) lxor w.(t - 16)) 1
  done;
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) and e = ref h.(4) in
  for block = 0 to 3 do
    let t = 5 * block and a' = !a and b' = !b and c' = !c and d' = !d and e' = !e in
    let e' = r1 a' b' c' d' e' w.(t) and b' = rotl b' 30 in
    let d' = r1 e' a' b' c' d' w.(t + 1) and a' = rotl a' 30 in
    let c' = r1 d' e' a' b' c' w.(t + 2) and e' = rotl e' 30 in
    let b' = r1 c' d' e' a' b' w.(t + 3) and d' = rotl d' 30 in
    let a' = r1 b' c' d' e' a' w.(t + 4) and c' = rotl c' 30 in
    a := a'; b := b'; c := c'; d := d'; e := e'
  done;
  for block = 4 to 7 do
    let t = 5 * block and a' = !a and b' = !b and c' = !c and d' = !d and e' = !e in
    let e' = r2 a' b' c' d' e' w.(t) and b' = rotl b' 30 in
    let d' = r2 e' a' b' c' d' w.(t + 1) and a' = rotl a' 30 in
    let c' = r2 d' e' a' b' c' w.(t + 2) and e' = rotl e' 30 in
    let b' = r2 c' d' e' a' b' w.(t + 3) and d' = rotl d' 30 in
    let a' = r2 b' c' d' e' a' w.(t + 4) and c' = rotl c' 30 in
    a := a'; b := b'; c := c'; d := d'; e := e'
  done;
  for block = 8 to 11 do
    let t = 5 * block and a' = !a and b' = !b and c' = !c and d' = !d and e' = !e in
    let e' = r3 a' b' c' d' e' w.(t) and b' = rotl b' 30 in
    let d' = r3 e' a' b' c' d' w.(t + 1) and a' = rotl a' 30 in
    let c' = r3 d' e' a' b' c' w.(t + 2) and e' = rotl e' 30 in
    let b' = r3 c' d' e' a' b' w.(t + 3) and d' = rotl d' 30 in
    let a' = r3 b' c' d' e' a' w.(t + 4) and c' = rotl c' 30 in
    a := a'; b := b'; c := c'; d := d'; e := e'
  done;
  for block = 12 to 15 do
    let t = 5 * block and a' = !a and b' = !b and c' = !c and d' = !d and e' = !e in
    let e' = r4 a' b' c' d' e' w.(t) and b' = rotl b' 30 in
    let d' = r4 e' a' b' c' d' w.(t + 1) and a' = rotl a' 30 in
    let c' = r4 d' e' a' b' c' w.(t + 2) and e' = rotl e' 30 in
    let b' = r4 c' d' e' a' b' w.(t + 3) and d' = rotl d' 30 in
    let a' = r4 b' c' d' e' a' w.(t + 4) and c' = rotl c' 30 in
    a := a'; b := b'; c := c'; d := d'; e := e'
  done;
  h.(0) <- (h.(0) + !a) land mask;
  h.(1) <- (h.(1) + !b) land mask;
  h.(2) <- (h.(2) + !c) land mask;
  h.(3) <- (h.(3) + !d) land mask;
  h.(4) <- (h.(4) + !e) land mask

let initial_state () = [| 0x67452301; 0xEFCDAB89; 0x98BADCFE; 0x10325476; 0xC3D2E1F0 |]

(* SHA-1 pads a message with 0x80, zeros and its 64-bit big-endian bit
   length up to a whole number of blocks.  [padded k] is a zeroed buffer
   for [k] message bytes and that padding: one block when [k < 56], more
   when not.  Once the bytes are in, [finish] writes the padding of a
   [len]-byte message and folds the buffer's blocks into [h]. *)
let padded k = Bytes.make (64 * (((k + 8) / 64) + 1)) '\000'

let finish h w buf k len =
  Bytes.set buf k '\x80';
  Bytes.set_int64_be buf (Bytes.length buf - 8) (Int64.of_int (8 * len));
  let buf = Bytes.unsafe_to_string buf in
  for i = 0 to (String.length buf / 64) - 1 do
    compress h w buf (64 * i)
  done

(* Full blocks are read in place; only the last partial block is copied,
   into the padded tail. *)
let digest_string s =
  let len = String.length s in
  let h = initial_state () and w = Array.make 80 0 in
  let full = len / 64 in
  for i = 0 to full - 1 do
    compress h w s (64 * i)
  done;
  let rest = len - (64 * full) in
  let tail = padded rest in
  Bytes.blit_string s (64 * full) tail 0 rest;
  finish h w tail rest len;
  let out = Bytes.create 20 in
  Array.iteri (fun i x -> Bytes.set_int32_be out (4 * i) (Int32.of_int x)) h;
  Bytes.unsafe_to_string out

let hex_digits = "0123456789abcdef"

let to_hex d =
  let out = Bytes.create (2 * String.length d) in
  String.iteri
    (fun i c ->
      Bytes.set out (2 * i) hex_digits.[Char.code c lsr 4];
      Bytes.set out ((2 * i) + 1) hex_digits.[Char.code c land 15])
    d;
  Bytes.unsafe_to_string out

let hex_of_string s = to_hex (digest_string s)

(* The message [key ^ "\x00" ^ data] is written straight into its padded
   buffer (the zeroed byte after [key] is the separator), not
   concatenated first; the value is the first eight digest bytes, read
   off [h0] and [h1]. *)
let prf ~key data =
  let kl = String.length key in
  let n = kl + 1 + String.length data in
  let msg = padded n in
  Bytes.blit_string key 0 msg 0 kl;
  Bytes.blit_string data 0 msg (kl + 1) (n - kl - 1);
  let h = initial_state () in
  finish h (Array.make 80 0) msg n n;
  Int64.logor (Int64.shift_left (Int64.of_int h.(0)) 32) (Int64.of_int h.(1))
