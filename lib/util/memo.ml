module Make (K : sig
  type t
end) =
struct
  module Tbl = Hashtbl.Make (struct
    type t = K.t

    let equal = ( == )
    let hash = Hashtbl.hash
  end)

  type 'v t = { key : 'v Tbl.t Domain.DLS.key; limit : int }

  let create ~limit = { key = Domain.DLS.new_key (fun () -> Tbl.create 64); limit }

  let find_or_add m k f =
    let tbl = Domain.DLS.get m.key in
    match Tbl.find_opt tbl k with
    | Some v -> v
    | None ->
      let v = f k in
      if Tbl.length tbl > m.limit then Tbl.reset tbl;
      Tbl.add tbl k v;
      v
end
