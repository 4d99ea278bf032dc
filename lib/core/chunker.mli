(** MC-side chunk extraction.

    "On the MC instructions from the original program are broken into
    chunks — for our purposes, a chunk is a basic block, although it
    could certainly be a larger sequence of instructions."

    A chunk starting at virtual address [v] extends
    - in basic-block mode, to the first control-flow instruction at or
      after [v] (inclusive) — branch targets landing mid-block start
      fresh chunks, i.e. tail duplication, exactly as in the paper's
      Figure 3 where blocks are copied on demand per branch target;
    - in procedure mode, to the end of the procedure symbol containing
      [v] (falling back to basic-block extent for symbol-less code). *)

type source =
  | Code of int array  (** an image's [code] array *)
  | Payload of Bytes.t
      (** a staged segment: encoded words, 4 bytes each, little-endian *)

type t = private {
  vaddr : int;  (** first instruction's virtual address *)
  source : source;  (** the words the chunk is a view of *)
  first : int;  (** index of the chunk's first word in [source] *)
  len : int;  (** number of source words, at least 1 *)
}
(** A chunk is a view of source words, never a copy: the MC cuts it
    straight out of the image's encoded text, and a staged prefetch is
    a view of the CRC-verified segment that delivered it. Every word of
    a view decodes (the constructors check), so readers classify words
    with {!Isa.Encode.form} instead of decoding them. *)

exception Bad_address of int
(** The requested address is unaligned or outside the image's text
    segment — the embedded program jumped somewhere that is not code. *)

exception Trap_in_source of int
(** Source images must not contain [Trap]; it is reserved for the
    rewriter. Carries the offending address. *)

val max_chunk_instrs : int
(** Safety bound on chunk length (16384 instructions). *)

val chunk_at : Isa.Image.t -> Config.chunking -> int -> t
(** The chunk starting at a virtual address, found by classifying the
    image's raw words: nothing is decoded or copied.
    @raise Bad_address / Trap_in_source as above, at the first word in
    address order that does not decode or is a trap. *)

val word : t -> int -> int
(** [word c i] is the [i]th source word, [0 <= i < c.len].
    @raise Invalid_argument otherwise. *)

val of_payload : vaddr:int -> Bytes.t -> t option
(** A view of a staged segment's words as the chunk at [vaddr]; [None]
    when the segment holds no whole word or a word with no decoding.
    Unlike {!chunk_at} it accepts [Trap] words, which the rewriter then
    rejects. *)

val to_bytes : t -> Bytes.t
(** A fresh segment holding the chunk's source words: what the MC ships
    as a prefetched chunk body. *)

val span_bytes : t -> int
(** Original footprint of the chunk in the source image. *)

val max_function_instrs : int
(** Degradation bound on whole-function units (8192 instructions):
    3n emitted words stay within the 16-bit branch-offset range, and
    anything larger is degraded to block granularity by the controller
    rather than cached as one unit. [chunk_function] itself does not
    enforce it — callers compare against the returned length. *)

val chunk_function : Isa.Image.t -> int -> t
(** Whole-function extraction for [Config.granularity = Function]: a
    CFG worklist walk over the basic blocks reachable from the entry
    inside the enclosing symbol (or the rest of the text segment when
    there is no symbol), closed over call fall-throughs — a call's
    return site belongs to this unit, the callee is its own unit — and
    checked as ONE contiguous chunk covering the entry up to the
    highest byte any reachable block touches.

    @raise Bad_address with the entry address if the entry itself is
    unaligned or outside the text segment; with a higher address (or
    [Trap_in_source]) if the contiguous extent is not cleanly
    decodable — callers degrade the latter to block granularity. *)

val external_successors : Isa.Image.t -> t -> int list
(** [successors] restricted to addresses outside the chunk's own span —
    in function mode the internal block heads are already part of the
    unit, so only external edges are prefetch candidates. *)

val call_targets : Isa.Image.t -> t -> int list
(** Deduplicated direct-call ([Jal]) targets leaving the unit's span,
    in first-occurrence order, restricted to aligned text-segment
    addresses: the set of PLT slots a function-granularity translation
    of this chunk calls through. *)

val successors : Isa.Image.t -> t -> int list
(** Static successor chunk addresses — the MC's prefetch candidates:
    the fallthrough continuation (unless the chunk ends in an
    unconditional transfer), conditional-branch targets, direct jump
    and call targets, and call return sites, in that order, deduplicated,
    restricted to aligned text-segment addresses other than the chunk's
    own start. Computed jump targets ([Jr]/[Jalr]) are unknowable
    statically and contribute only their return sites. *)

val pp : Format.formatter -> t -> unit
