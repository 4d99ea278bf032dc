(** Tcache replacement policies, as victim functions.

    The controller never decides *which* block dies — it asks
    {!victim}. A policy keeps no state of its own: it reads the facts
    the tcache keeps on each resident block ([Tcache.block]'s [seq],
    [entered] and [prior]) and the tcache's observation clock
    ([Tcache.clock]), which the controller advances on two events:

    - {b install}: a chunk was translated and registered;
    - {b entry}: control entered a resident block through a path the
      controller mediates — a computed jump, an indirect call, a return
      stub, or an exit-stub target lookup. Patched direct branches jump
      straight into the tcache and are invisible; this is the paper's
      "cache state is encoded in the branches" trade-off, and it is what
      keeps hit tracking free of per-instruction cost.

    Residency is stored once, in the tcache; a block's facts die with
    it. [None] from {!victim} means "no preference": the controller
    continues the circular FIFO sweep (the pre-policy FIFO behaviour,
    so fifo and flush are cycle-identical to it).

    {b Invariants} (the [Check.Audit] policy section checks the first
    two after every event):
    - {!victim} never returns a pinned block;
    - {!victim} never returns a block that is not resident;
    - {!victim} is a pure query: the auditor and the allocation loop
      may call it any number of times without perturbing any state. *)

type reason = Trace.evict_reason =
  | Victim
  | Collateral
  | Stub_growth
  | Invalidated
  | Flushed
(** Why a block left the tcache; the [cc_evict] trace event carries
    it ([Trace.evict_reason_name] names it). *)

type temperature = Hot | Warm | Cold
(** Profile-derived block temperature, the TRRIP classification. The
    policy layer defines its own copy of this type (rather than using
    the profiler's) because [lib/core] must not depend on
    [lib/profiler]; the glue converting one to the other lives with
    whoever attaches the oracle (CLI, bench, tests). *)

val rrpv_of_temperature : temperature -> int
(** The TRRIP insertion mapping: hot 0, warm 2, cold 3. *)

val victim :
  Config.eviction -> ?shard:int -> Tcache.t -> Tcache.block option
(** Which resident block should the allocator reclaim first? [None] =
    no preference, continue the FIFO sweep; fifo and flush always
    answer [None]. Never names a pinned or leased block. Under a
    sharded tcache the allocator passes the arena it is placing into
    and the victim lives there; without [shard] every arena is
    considered.

    lru and trrip practice {e sweep deference}: they answer only when
    the sweep's own candidate ({!sweep_candidate}) was entered within
    the last [2 * (residents + 2)] clock ticks, roughly two sweep
    laps. lru then offers the least recently installed-or-entered
    block. trrip reads each block's RRPV as 0 while an entry is that
    fresh and as its [prior] otherwise, and offers the most distant
    block (oldest install on ties) only if it reads strictly more
    distant than the candidate. *)

(** {2 Selection primitives}

    Exposed so the tie-break discipline can be unit-tested directly:
    both must be deterministic in the residents' facts, never in the
    order a fold happens to visit them (which depends on insertion
    history). *)

val pick_min :
  ?shard:int -> key:(Tcache.block -> 'k) -> Tcache.t -> Tcache.block option
(** Unpinned, unleased resident with the smallest key ([compare]
    order); exact key ties break on the smaller block id. [None] if
    every resident is immovable (or the tcache is empty). [shard]
    restricts candidates to one arena of a sharded tcache. *)

val sweep_candidate : ?shard:int -> Tcache.t -> Tcache.block option
(** The block the shard's circular FIFO allocation sweep would reclaim
    next: the lowest-placed unpinned, unleased block whose extent ends
    past the sweep pointer, else (wrapped) the lowest-placed such
    block overall; placement ties break on the smaller block id. *)
