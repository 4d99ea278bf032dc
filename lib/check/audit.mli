(** Tcache invariant auditor.

    After any state-changing controller operation the translation cache
    must satisfy a set of structural invariants; this module checks all
    of them against the encoded words actually present in client
    memory:

    - resident blocks lie inside the code area and never overlap;
    - the placement index reads back exactly the resident blocks of
      each shard's code area, in paddr order, and the occupancy count
      equals a fold over the blocks and the stub areas;
    - the tcache map agrees exactly with the set of resident blocks;
    - every pinned and every leased id names a resident block;
    - every recorded incoming pointer either still holds its revert
      word or decodes to a branch aiming at its target block;
    - every exit stub of a live block is in its miss state (trapping,
      its branch island inside the block) or patched at a resident
      target that has the site recorded; a branch exit patched at its
      site leaves its island dormant, still trapping to the exit's own
      stub (["stub"]);
    - conversely, every encoded branch leaving a block lands on a block
      start and is recorded there as an incoming pointer (completeness
      — this is the direction that catches records that were never
      made);
    - every trap word names a stub its block owns;
    - every slot word (the branch island of an exit in its miss state,
      a return stub, a PLT slot) traps to its own stub or is a [Jmp] to
      its target's resident block, recorded there: one rule, reported
      as ["stub"], ["ret-stub"] or ["plt"] (["incoming"] for a missing
      record); return stubs and PLT slots also sit in a stub area and
      their stub entries mirror their tables;
    - stub-table accounting balances: blocks, return stubs and PLT
      slots own exactly the [nstubs] entries not on the free list, and
      no entry is free twice or both owned and free;
    - every block-to-block incoming record names a live source block
      that holds the record's site, and an exit stub of that source
      aimed at the record's block (the stub the site reverts to); a
      waiting exit has no state beyond its trapping bytes;
    - superblock groups are consistent: every member of a live group is
      resident and [sb_of_block] inverts the group table exactly;
    - every valid decode-cache line agrees with the word it caches, in
      every hart's memory when harts are attached
      ([Machine.Memory.decode_audit]);
    - every staged chunk is within the staging bound and aliases no
      resident block;
    - the replacement policy's victim ([Policy.victim]) is never a
      pinned or a dead block.

    The reverse scan reads each tcache word through the
    non-allocating [Isa.Encode] readers, and the decode-cache check
    walks only the lines filled since the last flush, so a full audit
    costs what the live state costs. *)

type violation = { invariant : string; detail : string }

exception Audit_failure of violation list

val pp_violation : Format.formatter -> violation -> unit

val run : Softcache.Controller.t -> violation list
(** All violations found in the controller's current state; [[]] when
    the cache is consistent. *)

val check_exn : Softcache.Controller.t -> unit
(** @raise Audit_failure if {!run} reports anything. *)

val install : Softcache.Controller.t -> int ref
(** Attach the auditor to [Controller.on_event] (chaining any existing
    subscriber) so the full invariant suite runs after every
    translation, eviction, patch, invalidation and flush. Returns the
    audit counter. *)

val fleet : Fleet.t -> violation list
(** Audit a whole fleet: the shared chunk cache respects its bound (and
    is empty when dedup is off); request conservation holds at the MC
    ([attempts = frames + piggybacked + coalesced], with the per-session
    counters summing to the MC's); the shared link minted exactly one
    message per dispatched frame plus fault-injected duplicates (none
    for piggybacks or coalesced joins); no session holds — resident or
    staged — a chunk it never requested {e or that falls outside its
    own workload's text segment} (the mixed-workload isolation check);
    and every session passes the full per-controller audit ({!run}) —
    or, for multi-hart sessions, the full {!shards} audit — reported
    with a ["fleet-session"] prefix. *)

val shards : Softcache.Shard.t -> violation list
(** Audit a multi-hart (sharded) session at a quiescent point (between
    {!Softcache.Shard.run} calls): every fill has a single in-range
    owner and none is still in flight ([f_done = max_int]); the
    suspension-lease discipline holds (["shard-lease"]: each resident
    block's lease count equals the number of non-halted harts parked
    in it, the lease living only in the tcache); every hart's waits are
    non-negative and within its clock, and the aggregate fill
    statistics are the exact sums of the hart counters; and every
    hart's tcache region is word-for-word hart 0's (["shard-mirror"],
    naming the hart, the number of differing words and the first).
    Includes the
    full per-controller audit ({!run}) of the shared cache, whose map
    section already rejects a chunk resident twice. *)
