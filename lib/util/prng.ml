type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

(* splitmix64 output function: mix the advanced counter. *)
let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Non-negative 61-bit int from the top bits; 2^61 stays well inside
   OCaml's 63-bit native int range. *)
let bits t = Int64.to_int (Int64.shift_right_logical (bits64 t) 3)

let bound = 1 lsl 61

let int t n =
  assert (n > 0);
  if n land (n - 1) = 0 then bits t land (n - 1)
  else begin
    (* Rejection sampling to avoid modulo bias. *)
    let limit = bound - (bound mod n) in
    let rec draw () =
      let r = bits t in
      if r >= limit then draw () else r mod n
    in
    draw ()
  end

let int_in t lo hi =
  assert (lo <= hi);
  lo + int t (hi - lo + 1)

let float t x =
  let r = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  x *. (r /. 9007199254740992.0)

let bool t = Int64.logand (bits64 t) 1L = 1L

let bernoulli t p = float t 1.0 < p

let choice t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))

let weighted t choices =
  let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 choices in
  if total <= 0.0 then invalid_arg "Prng.weighted: no positive weight";
  let x = float t total in
  let rec pick acc = function
    | [] -> invalid_arg "Prng.weighted: empty"
    | [ (_, v) ] -> v
    | (w, v) :: rest -> if x < acc +. w then v else pick (acc +. w) rest
  in
  pick 0.0 choices

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample t k xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  let k = min k n in
  shuffle t a;
  Array.to_list (Array.sub a 0 k)

let pareto_int t ~alpha ~xmin =
  let u = 1.0 -. float t 1.0 in
  let x = float_of_int xmin /. (u ** (1.0 /. alpha)) in
  max xmin (int_of_float x)
