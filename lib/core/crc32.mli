(** CRC-32 (IEEE 802.3) over byte buffers.

    The MC stamps every chunk it ships with the digest of the rewritten
    words; the CC recomputes it on receipt and requests a retransmit on
    mismatch. Digests are 32-bit values held in non-negative OCaml
    ints. *)

val bytes : ?pos:int -> ?len:int -> Bytes.t -> int
(** The CRC of [len] bytes of [b] from [pos] (default: all of [b]).
    Computed slice-by-4, a word per step and the last [len mod 4] bytes
    one at a time; the digest is the bytewise algorithm's exactly.
    Allocates nothing.
    @raise Invalid_argument if the range is not inside [b]. *)

val string : string -> int
