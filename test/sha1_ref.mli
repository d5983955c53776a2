(** Reference SHA-1 (RFC 3174): the original round-by-round
    implementation of {!Rd_util.Sha1}, retained as executable reference
    semantics.

    Every round branches on its index for the stage function and
    constant, and the whole message is copied into a padded buffer.  The
    qcheck agreement properties check the straight-line kernel against
    this module on digests, PRF values and hex rendering, and the
    anonymizer's per-bit oracle draws its PRF from here.  Production
    code uses {!Rd_util.Sha1}. *)

type digest = string
(** 20-byte raw digest. *)

val digest_string : string -> digest
(** [digest_string s] is the 20-byte SHA-1 digest of [s]. *)

val to_hex : digest -> string
(** Lowercase hexadecimal rendering, two characters per byte. *)

val hex_of_string : string -> string
(** [hex_of_string s] = [to_hex (digest_string s)]. *)

val prf : key:string -> string -> int64
(** The first eight digest bytes of [key ^ "\x00" ^ data], big-endian. *)
