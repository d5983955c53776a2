(** Per-domain memo tables keyed by physical identity.

    For a lowering that is a function of an immutable value alone (a
    parsed policy, a built instance graph): each domain computes it once
    per value, however many callers ask.  Keys compare with [==] and hash
    with [Hashtbl.hash], so an equal but separately built value is a
    different key.  Tables are per domain, so no lock is taken; a table
    is emptied once it holds more than its [limit] entries. *)

module Make (K : sig
  type t
end) : sig
  type 'v t

  val create : limit:int -> 'v t
  (** An empty memo in every domain. *)

  val find_or_add : 'v t -> K.t -> (K.t -> 'v) -> 'v
  (** [find_or_add m k f]: this domain's value for [k], else [f k],
      stored.  Callers must treat a shared value as read-only. *)
end
