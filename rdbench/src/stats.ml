(* Order statistics over benchmark samples. *)

let sorted xs = Array.of_list (List.sort Float.compare xs)

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Python's [statistics.quantiles xs ~n:4] with its default "exclusive"
   method, so the spreads printed here are the ones the acceptance
   check computes. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then (nan, nan, nan)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

(* Interquartile range as a share of the median. *)
let spread xs =
  let q1, q2, q3 = quartiles xs in
  (q3 -. q1) /. q2

(* Nearest-rank position of the [pct]-th percentile among [n] samples
   (1-based). *)
let rank ~n pct = ((pct * n) + 99) / 100

let percentile xs pct =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan else a.(max 0 (rank ~n pct - 1))

(* A percentile is reported only when at least ten samples lie beyond
   it; below that it is one outlier wide. *)
let beyond ~n pct = n - rank ~n pct

let supported ~n pct = beyond ~n pct >= 10
