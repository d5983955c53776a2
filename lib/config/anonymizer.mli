(** Structure-preserving configuration anonymization (paper §4.1).

    The strategy follows the paper's anonymizer exactly in spirit:

    - comment lines are removed;
    - tokens found in the command dictionary (anything that could appear in
      the vendor command reference) pass through unchanged;
    - all other non-numeric tokens are replaced by a fixed-length string
      derived from their SHA-1 digest, so equal tokens map to equal
      replacements across the whole network;
    - simple integers pass through, except public AS numbers, which are
      remapped deterministically into the public AS range (private AS
      numbers 64512-65534 are kept — they carry no identity);
    - IP addresses are anonymized prefix-preservingly (tcpdpriv style):
      two addresses sharing a k-bit prefix share exactly a k-bit prefix
      after anonymization, so subnet matching still works on the
      anonymized files; the address class (leading 0 / 10 / 110 / 1110
      bits) is additionally preserved, so classful [network] statements
      (RIP/IGRP) keep covering the same interfaces;
    - netmasks and wildcard masks are recognized and left intact.

    All mappings are keyed: the same [key] reproduces the same mapping. *)

type t
(** Anonymization state: the key plus the memoized token, address and AS
    mappings built so far. *)

val create : key:string -> t
(** [create ~key] starts a fresh mapping.  The same [key] reproduces the
    same mapping on every run, so a network's files stay mutually
    consistent when anonymized one at a time. *)

val anonymize_addr : t -> Rd_addr.Ipv4.t -> Rd_addr.Ipv4.t
(** Prefix-preserving address mapping: output bit [i] is input bit [i]
    xored with a keyed SHA-1 PRF of the first [i] input bits (class bits
    excepted).  Memoized per [t], both per address and per (bit, input
    prefix), so a warm [t] maps exactly like a fresh one. *)

val anonymize_token : t -> string -> string
(** Replacement for a single free-form token (stable per [t]). *)

val anonymize_as : t -> int -> int
(** Public AS numbers are remapped into [\[1, 64511\]]; private AS numbers
    and 0 are returned unchanged.  The mapping is injective per [t]
    (PRF-chosen slot, deterministic linear probing on collision), so
    distinct peer ASes never merge under anonymization.  The public
    inputs outnumber the slots by one, so a [t] that has already handed
    out all 64,511 slots raises {!Rd_util.Limits.Budget_exceeded} (site
    ["anonymize.as-space"]) for a new input. *)

val anonymize_config : t -> string -> string
(** Anonymize a whole configuration file. *)

val in_dictionary : string -> bool
(** Whether a token is part of the command dictionary (never hashed). *)
