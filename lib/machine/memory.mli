(** Flat byte-addressed memory with a rewrite-coherent decode cache.

    Little-endian, fixed size. 32-bit reads return sign-extended values
    (the machine's registers hold signed 32-bit values represented as
    OCaml ints); byte reads are zero-extended.

    The decode cache predecodes instruction words so the interpreter
    does not re-decode on every fetch. Its coherence rule lives in this
    module and nowhere else: {b every} mutation of memory —
    [write32], [write8], [write_bytes] and the bulk loaders —
    invalidates the covering decode-cache line(s). Code that patches
    instructions at runtime (the SoftCache controller installs blocks,
    backpatches, reverts stubs, unlinks evicted blocks, flushes)
    therefore needs no invalidation protocol of its own, and
    [fetch_decoded] can never return a stale instruction. *)

type t

exception Out_of_bounds of int
(** Raised with the offending byte address. *)

exception Unaligned of int
(** Raised by 32-bit accesses to addresses that are not 4-aligned. *)

exception Undecodable of int
(** Raised by [fetch_decoded] with the fetched word when it does not
    decode to an instruction. *)

val create : int -> t
(** [create n] is [n] bytes of zeroed memory with an empty decode
    cache. *)

val size : t -> int
val read32 : t -> int -> int
val write32 : t -> int -> int -> unit
val write_bytes : t -> int -> Bytes.t -> unit
(** [write_bytes t addr b] stores the words of [b] (4 bytes each,
    little-endian) at [addr] with one blit, and drops the decode line
    of each word it overwrote, exactly the lines (and the
    [invalidations] count) that one [write32] per word would. Checks
    the whole range before writing anything.
    @raise Invalid_argument if [Bytes.length b] is not a multiple of 4.
    @raise Out_of_bounds with [addr] if the range leaves memory.
    @raise Unaligned if [addr] is not 4-aligned. *)

val read8 : t -> int -> int
val write8 : t -> int -> int -> unit

val fetch_decoded : t -> int -> Isa.Instr.t
(** Predecoded instruction fetch: consult the decode cache, filling it
    from memory on a miss. Exactly [Isa.Encode.decode (read32 t addr)]
    observationally — the cache is invisible except for speed. The hit
    (tag compare, hit count, line read) is inlined into callers; the
    miss (read, decode, install the line, widen the filled range
    {!decode_audit} walks) stays out of line.
    @raise Out_of_bounds and @raise Unaligned as [read32] would.
    @raise Undecodable with the word when it has no decoding. *)

val decode_peek : t -> int -> Isa.Instr.t option
(** The decode-cache line currently covering [addr], without filling.
    [None] for invalid addresses, uncached words, and aliased lines.
    Introspection for tests and the coherence auditor. *)

type decode_stats = { hits : int; misses : int; invalidations : int }

val decode_stats : t -> decode_stats
val decode_flush : t -> unit
(** Drop every decode-cache line and empty the filled range (the
    loaders call this after bulk blits; exposed for tests). *)

val decode_audit : t -> int list
(** Addresses of decode-cache lines whose cached instruction disagrees
    with what the underlying word currently decodes to, ascending by
    line. Always [[]] unless the write-driven invalidation rule has
    been broken — the coherence invariant checked by [Check.Audit].

    It walks only the range of lines filled since the last flush
    (every valid line lies in it), so its cost follows that range, not
    the cache size; at worst it is the whole cache. It compares
    [Isa.Encode.encode] of each cached instruction with the word in
    memory (decode is canonical, so this is the same test as
    re-decoding) and allocates nothing while the cache is coherent.
    Read-only: it never touches a tag or the range. *)

val load_image : t -> Isa.Image.t -> unit
(** Copy an image's text and data segments into memory. *)

val load_data : t -> Isa.Image.t -> unit
(** Copy only the data segment (the SoftCache CC has no native text). *)

val blit_code : t -> addr:int -> Isa.Image.t -> unit
(** Copy the text segment to an arbitrary 4-aligned address. *)

val hash : t -> lo:int -> hi:int -> int
(** FNV-1a hash of the byte range [lo, hi); used by equivalence tests. *)
