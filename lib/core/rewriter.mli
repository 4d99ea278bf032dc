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

type emission = {
  words : int array;  (** encoded tcache words, in placement order *)
  bound : (int * int * int * int) list;
      (** (target block id, site paddr, revert word, stub index) for
          every exit bound directly at translation time; the controller
          records these as incoming pointers on the target blocks. The
          stub index names the new block's own [Exit] stub, which an
          unpatch re-arms *)
  pads : (int * int) list;  (** (pad paddr, return vaddr) *)
  resume : int array;
      (** for each emitted word, the source virtual address at which
          execution can correctly resume if the CPU is parked on that
          word when the block is invalidated *)
  overhead_words : int;  (** words beyond the source instruction count *)
}

val layout_words : ?plt_of:(int -> int option) -> Chunker.t -> int
(** Emitted size of a chunk, computable before placement (it does not
    depend on cache state). [plt_of] is the function-granularity PLT
    slot map: an external [Jal] whose target has a slot needs no call
    island, so it must be the same map later given to {!translate}. *)

val translate :
  ?plt_of:(int -> int option) ->
  Chunker.t ->
  block_id:int ->
  base:int ->
  resident:(int -> (int * int) option) ->
  alloc_stub:((int -> Stub.t) -> int) ->
  emission
(** Rewrite a chunk for placement at physical address [base].
    [resident v] returns [(block id, paddr)] for chunks already in the
    tcache. [alloc_stub make] allocates a stub-table index [k] and
    stores [make k]. [plt_of tv], when it returns a slot paddr, turns
    an external [Jal tv] into a direct call through that PLT slot: no
    island, no exit stub, and the call site itself is never patched —
    only the controller-owned slot word is.
    @raise Rewrite_error as above. *)
