(** The dynamic binary rewriter (MC side).

    Translates one chunk into tcache words, specialising the cache
    tag checks away: direct control transfers whose targets are already
    resident are bound straight to their in-cache copies; unresolved
    exits become [Trap] miss stubs that the controller patches on first
    use; ambiguous pointers (computed jumps, indirect calls) become
    permanent runtime-lookup traps.

    Emitted layout of a chunk with [n] source instructions:
    {v
    [ rewritten instructions, 1-2 words each ]
    [ fall-through slot, if the chunk can run off its end ]
    [ branch/call islands, one word per unresolved direct exit ]
    v}
    - a conditional branch keeps its own word; its island holds the
      miss trap the branch aims at until the taken target is bound;
    - [Jal] occupies two words: the call itself and the return landing
      pad directly after it (so the link register naturally points at
      the pad) — the ARM prototype's "redirector stub";
    - [Jalr] becomes a lookup trap plus a landing pad;
    - [Jr ra] is a procedure return and is copied verbatim: return
      addresses always hold pad addresses, so returns run at full speed
      with no tag check;
    - any other [Jr] becomes a permanent hash-lookup trap.

    The "two new instructions per translated basic block" of the
    SPARC prototype are the fall-through slot plus the island (or pad)
    of the block's terminator. *)

exception Rewrite_error of string
(** An intra-chunk branch offset does not fit its field (chunk too
    large) — translate at finer granularity instead. Also raised, with
    the address, for a chunk holding a [Trap] word (the chunker rejects
    those) and for an emission whose island count disagrees with its
    layout. *)

type 'b emission = {
  payload : Bytes.t;
      (** the emitted words, 4 bytes each, little-endian, in placement
          order: a fresh exact-size buffer, and the very segment the MC
          ships (the CC installs it with one range write) *)
  bound : ('b * int * int * int) list;
      (** (target, site paddr, revert word, stub index) for every exit
          bound directly at translation time. The target is what
          [resident] returned for it (the controller's oracle returns
          the resident block), and the controller records an incoming
          pointer on it. The stub index names the new block's own
          [Exit] stub, which an unpatch re-arms *)
  pads : (int * int) list;  (** (pad paddr, return vaddr) *)
  resume : int array;
      (** for each emitted word, the source virtual address at which
          execution can correctly resume if the CPU is parked on that
          word when the block is invalidated *)
  overhead_words : int;  (** words beyond the source instruction count *)
}

type layout
(** Where each source word lands in the emission, the fall-through
    slot and the islands: everything about a chunk's emission that
    does not depend on cache state. *)

val layout : ?plt_of:(int -> int option) -> Chunker.t -> layout
(** Lay a chunk out, before placement. [plt_of] is the
    function-granularity PLT slot map: an external [Jal] whose target
    has a slot needs no call island. The layout keeps it, so
    {!translate} routes exactly the calls the layout sized for. *)

val words : layout -> int
(** Emitted size in words: the placement the chunk needs. *)

val layout_words : ?plt_of:(int -> int option) -> Chunker.t -> int
(** [words (layout ?plt_of c)]. *)

val translate :
  layout ->
  block_id:int ->
  base:int ->
  resident:(int -> ('b * int) option) ->
  alloc_stub:((int -> Stub.t) -> int) ->
  'b emission
(** Rewrite a laid-out chunk for placement at physical address [base],
    writing its words straight into the payload. Every non-control word
    is copied as it is (decodable words are canonical, so the copy is
    the word re-encoding it would give); only control transfers are
    rewritten, with the {!Isa.Encode} writers.
    [resident v] returns the target and its paddr for chunks already
    in the tcache; the target comes back untouched in [bound] (the
    controller passes the resident block, tests any plain value).
    [alloc_stub make] allocates a stub-table index [k] and stores
    [make k]. A [plt_of] slot for [tv] turns an external
    [Jal tv] into a direct call through that PLT slot: no island, no
    exit stub, and the call site itself is never patched — only the
    controller-owned slot word is.
    @raise Rewrite_error as above. *)
