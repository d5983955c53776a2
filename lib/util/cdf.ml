type t = { sorted : float array }

let of_samples xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  { sorted = a }

let size t = Array.length t.sorted

let eval t x =
  let n = Array.length t.sorted in
  if n = 0 then 0.0
  else begin
    (* binary search for the count of samples <= x *)
    let rec go lo hi =
      if lo >= hi then lo
      else begin
        let mid = (lo + hi) / 2 in
        if t.sorted.(mid) <= x then go (mid + 1) hi else go lo mid
      end
    in
    float_of_int (go 0 n) /. float_of_int n
  end

let plot ?(x_label = "") t =
  if size t = 0 then "(empty cdf)\n"
  else begin
    let width = 60 and height = 16 in
    let xmin = t.sorted.(0) and xmax = t.sorted.(size t - 1) in
    let xmax = if xmax = xmin then xmin +. 1.0 else xmax in
    let grid = Array.make_matrix height width ' ' in
    for col = 0 to width - 1 do
      let x = xmin +. ((xmax -. xmin) *. float_of_int col /. float_of_int (width - 1)) in
      let row = height - 1 - int_of_float (eval t x *. float_of_int (height - 1)) in
      grid.(max 0 (min (height - 1) row)).(col) <- '*'
    done;
    let buf = Buffer.create 1024 in
    Array.iteri
      (fun r row ->
        let frac = 1.0 -. (float_of_int r /. float_of_int (height - 1)) in
        Buffer.add_string buf (Printf.sprintf "%4.2f |" frac);
        Array.iter (Buffer.add_char buf) row;
        Buffer.add_char buf '\n')
      grid;
    Buffer.add_string buf ("     +" ^ String.make width '-' ^ "\n");
    Buffer.add_string buf
      (Printf.sprintf "      %-8.4g%s%8.4g\n" xmin (String.make (width - 16) ' ') xmax);
    Buffer.add_string buf
      (Printf.sprintf "      [*] %s\n" (if x_label = "" then "cdf" else x_label));
    Buffer.contents buf
  end
