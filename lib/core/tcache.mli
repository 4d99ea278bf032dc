(** Translation-cache bookkeeping (the CC side's data structures).

    Tracks the tcache region of client memory: which translated blocks
    occupy it, the tcache map from virtual chunk addresses to physical
    tcache addresses (the paper's hash table, Figure 4), the FIFO
    allocation order, incoming patched pointers per block (recorded "at
    the time they are created" so that eviction can unlink a block), and
    the landing pads that may be live in return addresses.

    Each allocation arena is split in two: translated blocks are
    allocated upward from its base with a circular (FIFO) sweep;
    persistent return stubs grow downward from its top and survive
    block eviction. A sharded tcache ({!create_sharded}) partitions the
    region into [K] such arenas with a deterministic {!home_shard}
    routing of chunks to arenas; the tcache *map* stays global, so a
    lookup finds a block regardless of which shard holds it
    (cross-shard lookup). This module only does bookkeeping; the
    controller performs the actual memory writes.

    A placement index maps every tcache word to the resident block
    covering it, so allocation and eviction touch only the words they
    overwrite, and the block the circular sweep reaches next
    ({!sweep_next}) is read off it; no operation of this module on the
    miss path walks every resident block. The index names its blocks
    itself (each word holds the slot of its block's first word, and a
    second column holds each block at that slot), so no query of it
    looks a block up by id.

    On top of pins, the multi-hart controller takes {e read leases} on
    blocks that suspended harts are executing inside: a leased block is
    an immovable obstacle for the allocation sweep exactly like a
    pinned one, but leases are dropped by flushes and invalidation
    (those writers assert exclusive hold and the parked harts are
    redirected through resume addresses). *)

type incoming = {
  from_block : int;  (** block id containing the site; -1 = persistent *)
  site_paddr : int;
  revert_word : int;  (** word restoring the site to its miss stub *)
  stub : int;
      (** the stub the site reverts to: an [Exit] stub of [from_block]
          aimed at this block, or the return stub / PLT slot whose word
          a persistent patch ([from_block = -1]) specialised *)
}

type block = {
  id : int;
  vaddr : int;  (** chunk start in the original program *)
  paddr : int;  (** placement in the tcache *)
  words : int;  (** emitted size *)
  orig_words : int;  (** source footprint, for invalidation by range *)
  mutable incoming : incoming list;
  pads : (int * int) list;  (** (pad paddr, return vaddr) *)
  resume : int array;
      (** per emitted word: the source vaddr execution resumes at if a
          CPU is parked on that word when the block dies *)
  stubs : int list;
      (** stub-table indices allocated for this block's sites; recycled
          by the controller when the block is evicted, keeping CC
          metadata bounded by residency rather than by run length *)
  installed_at : int;
      (** the CPU cycle counter at install, for the victim-age
          histogram *)
  seq : int;  (** the observation {!clock} at install *)
  mutable entered : int;
      (** the observation {!clock} of the last controller-observed
          entry, or -1 if none was observed *)
  prior : int;
      (** trrip's insertion RRPV, from the controller's temperature
          oracle: hot 0, warm 2, cold 3; 3 when no oracle is
          attached *)
}
(** A resident translated block. The last four fields are the facts
    the replacement policies ([Policy.victim]) decide on; they live on
    the block, so they die with it and need no table of their own. *)

type t

val create : base:int -> bytes:int -> t
(** A single-arena (unsharded) tcache — [create_sharded ~shards:1]. *)

val create_sharded : shards:int -> base:int -> bytes:int -> t
(** Partition [bytes] into [shards] equal arenas. Each arena has its
    own sweep pointer and persistent-stub area; the vaddr map is
    global.
    @raise Invalid_argument on [shards < 1], an unaligned base, or a
    region too small to give every shard a useful arena. *)

val base : t -> int
(** Physical base of the tcache region. *)

val top : t -> int
(** One past the end of the tcache region. *)

val shards : t -> int
(** Number of arenas (1 for an unsharded tcache). *)

val home_shard : t -> int -> int
(** [home_shard t vaddr] — the shard whose arena the chunk at [vaddr]
    is placed in. Deterministic pure routing. *)

val shard_of_paddr : t -> int -> int
(** Which shard's arena contains this physical tcache address.
    @raise Invalid_argument outside [\[base, top)]. *)

val shard_bounds : t -> int -> int * int
(** [\[lo, top)] extent of one shard's arena. *)

val lookup : t -> int -> block option
(** tcache-map probe by chunk virtual address (global across shards). *)

val is_alive : t -> int -> bool
(** Is a block with this id resident? A table probe, for audits and
    tests; the controller asks {!owns} instead. *)

val register : t -> block -> unit
(** Make [b] resident: map its vaddr and index its words. Its id must
    not be resident already, and no resident block may overlap it.
    @raise Invalid_argument if [b] has no words or does not lie inside
    [\[base, top)]. *)

val fold : (block -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over every resident block, in no particular order, without
    building a list. *)

val blocks : t -> block list
(** All resident blocks, in no particular order. A fold over every
    resident block: for audits and invalidation, not for the miss
    path ({!overlapping} gives paddr order over a range, {!covering}
    the block holding one address). *)

val overlapping : t -> int -> int -> block list
(** [overlapping t lo hi] — the resident blocks that meet [\[lo, hi)],
    each once, in ascending paddr. Reads only the index words of
    [\[lo, hi)] clamped to the tcache. *)

val covering : t -> int -> block option
(** [covering t paddr] — the resident block whose words include
    [paddr], if any: two array reads of the placement index. [None]
    outside [\[base, top)], on a free word and on a persistent stub. *)

val owns : t -> id:int -> int -> bool
(** [owns t ~id paddr] — the resident block covering [paddr] has id
    [id]. Block ids are never reused, so once block [id] dies this is
    false at every address, whatever is placed there later: the
    controller's test that a captured site still belongs to its
    block. *)

val resident_blocks : t -> int

val tick : t -> int
(** Advance the observation clock and return its new value. The
    controller ticks it once per install and once per observed entry
    into a resident block; a block's [seq] and [entered] are ticks of
    this clock. *)

val clock : t -> int
(** The observation clock's current value (0 on a fresh tcache). *)

val occupied_bytes : t -> int
(** Blocks plus persistent stubs, summed across shards. Constant time:
    the block bytes are a running count kept by {!register},
    {!remove} and {!reset}. *)

val map_entries : t -> int

val alloc :
  ?shard:int ->
  ?seed:int ->
  t ->
  words:int ->
  (int * block list, [ `Full | `Too_large ]) result
(** Allocate with the circular FIFO sweep of [shard] (default 0).
    Returns the placement and the blocks that had to be evicted
    (already deregistered), in ascending paddr. [`Too_large] means the
    chunk exceeds the arena's capacity outright; [`Full] means it would
    fit an empty arena but pinned or leased blocks crowd out every
    placement.

    [seed] — the physical address of a victim block chosen by a
    replacement policy — restarts the sweep there, so the placement
    reclaims that block first. A [seed] outside the shard's current
    code area is ignored (the sweep continues where it was), degrading
    gracefully to FIFO for this allocation. *)

val alloc_ptr : ?shard:int -> t -> int
(** Current position of the shard's circular allocation sweep
    (diagnostic; also used by tests that emulate pathological stub
    growth). *)

val sweep_next : ?shard:int -> t -> ok:(block -> bool) -> block option
(** The block the shard's circular sweep reaches next among those [ok]
    accepts: the first one at or above {!alloc_ptr} (a block straddling
    the pointer included) up to the shard's top, else, wrapping, the
    first from the shard's start. Reads the placement index, hopping
    over each block [ok] rejects; [None] if [ok] accepts no resident of
    the shard. Without [shard] it reads the whole tcache from shard 0's
    pointer. *)

val alloc_append : ?shard:int -> t -> words:int -> (int, [ `Full | `Too_large ]) result
(** Allocate without evicting (flush-all policy): fail when the sweep
    pointer cannot fit the block before the persistent region. Skips
    over pinned and leased blocks left behind by a flush. *)

val persist_base : ?shard:int -> t -> int
(** Lower bound of the shard's persistent stub area — block placements
    in that shard must end at or below it. *)

val alloc_persistent :
  ?shard:int -> t -> words:int -> (int * block list, [ `Too_large ]) result
(** Carve words off the top of the shard's arena for persistent return
    stubs, evicting any blocks the stub area grows over (leases do not
    protect against persistent growth — the writer holds the region
    exclusively and parked readers are redirected). *)

val pin : t -> block -> unit
(** Exempt a resident block from eviction and flushes. The allocator
    treats it as an immovable obstacle. No-op if not resident. *)

val unpin : t -> block -> unit
val is_pinned : t -> int -> bool

val pinned_ids : t -> int list
(** The raw pin set, for invariant auditing (every pinned id must name
    a resident block). *)

val lease : t -> block -> unit
(** Take one read lease on a resident block: a suspended hart is
    executing inside it, so the allocation sweep must not reclaim it.
    Counted — [lease] twice needs [release] twice. No-op if the block
    is not resident. *)

val release : t -> block -> unit
(** Drop one read lease (no-op below zero). *)

val lease_count : t -> int -> int
(** Outstanding read leases on a block id (0 when none). *)

val is_leased : t -> int -> bool

val leased_ids : t -> int list
(** The raw lease set, for invariant auditing. *)

val remove : t -> block -> unit
(** Deregister one block (invalidation; also clears its pin and any
    leases). Its space is reclaimed when the FIFO sweep passes over
    it. *)

val reset : t -> block list
(** Flush: deregister every unpinned block, rewind every shard's FIFO
    sweep, and return the former residents. Pinned blocks and the
    persistent stub areas are preserved — return addresses saved on
    program stacks may reference the latter across flushes. All leases
    on flushed blocks are dropped (the flush holds every arena
    exclusively; parked harts are redirected by the controller). *)

val pp : Format.formatter -> t -> unit
