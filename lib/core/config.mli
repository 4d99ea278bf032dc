(** SoftCache configuration.

    Mirrors the knobs the paper's two prototypes differ on: chunk
    granularity (basic blocks on SPARC, procedures on ARM), the eviction
    policy, the interconnect, and the client-side cycle prices of the
    cache-controller operations. *)

type chunking =
  | Basic_block  (** SPARC prototype: translate one basic block at a time *)
  | Procedure
      (** ARM prototype: "code is chunked by procedures rather than by
          basic blocks" *)

type eviction =
  | Flush_all
      (** invalidate the whole tcache when full, the strategy of the
          dynamic rewriters the paper cites (Dynamo, Shade, Embra) *)
  | Fifo  (** evict oldest blocks in allocation order, one at a time *)
  | Lru
      (** evict the least-recently-*entered* block: recency is tracked
          over the block-entry events the controller already observes
          (translations, computed jumps, indirect calls, return stubs),
          so there is no per-instruction cost — the paper's "cache
          state encoded in the branches" *)
  | Trrip
      (** temperature-aware RRIP, 2-bit re-reference interval
          prediction over the same observed entry events: blocks are
          promoted to RRPV 0 on entry, an entry older than about two
          sweep laps decays to the block's insertion prior, and the
          sweep is overridden only for a strictly more distant block.
          A profile-derived temperature oracle
          ([Controller.set_temperature_oracle]) sets the prior per
          block — hot 0, warm 2, cold 3 — so profile-hot blocks survive
          the sweep before their first observed entry. With no oracle
          attached ("unprimed") every block's prior is 3: plain RRIP *)

val eviction_table : (string * eviction) list
(** The canonical name <-> policy mapping. The CLI [--eviction] enum,
    [pp], and the bench policy sweep are all generated from this table,
    so the valid-value set can never drift between them. *)

val eviction_name : eviction -> string
(** Flag-style name of a policy: a total match, from which
    [eviction_table] is built. *)

type granularity =
  | Block  (** cache units are chunker output (basic blocks / procedures) *)
  | Function
      (** cache units are whole functions: a CFG walk from the entry
          point closes over the contiguous body (fall-through closure),
          call sites are rewritten through a PLT-style indirection table
          owned by the controller, and returns need no patching. A
          function whose rewritten body cannot fit the tcache degrades
          to block granularity for that function only *)

val granularity_table : (string * granularity) list
(** Canonical name <-> granularity mapping, in the style of
    [eviction_table]: the CLI [--granularity] enum, [pp] and the bench
    gransweep grid are all generated from it. *)

val granularity_name : granularity -> string

type t = {
  tcache_bytes : int;  (** CC translation-cache memory, bytes *)
  chunking : chunking;
  eviction : eviction;
  bind_at_translate : bool;
      (** when the MC rewrites a chunk, bind exits whose targets are
          already resident directly (the paper's design); disabling it
          makes every exit trap once before being patched — an ablation
          of translate-time specialisation *)
  net : Netmodel.t;
  engine : Machine.Cpu.engine;
      (** CPU dispatch engine for the cached run: [Decoded] (default)
          fetches through the memory-coherent predecode cache;
          [Interpretive] re-decodes every fetch — kept for differential
          testing of the decode cache against reference dispatch *)
  prefetch_degree : int;
      (** on a miss, how many predicted-next chunks the MC ships in the
          same frame as the demand chunk (0 = prefetch off); the demand
          response amortizes [latency_cycles] and the per-message
          overhead across the batch *)
  staging_chunks : int;
      (** bound on the CC staging buffer holding prefetched chunks that
          have not been touched yet; oldest entries are discarded when
          the bound is hit *)
  trace_limit : int;
      (** capacity of the structured-event trace ring when a tracer is
          attached ([Controller.attach_tracer] / CLI [--trace]); the
          oldest events are overwritten past this bound and reported as
          dropped *)
  chain : bool;
      (** eager branch chaining: whenever a chunk becomes resident, every
          unresolved exit branch of an already-resident block that
          targets it is patched tcache-direct immediately, instead of
          waiting for that branch to trap once (the paper's rewrite rule
          applied at install time). Off by default — the lazy
          patch-on-trap behaviour is the baseline the golden cycle
          numbers pin down *)
  superblock_threshold : int;
      (** edge-temperature threshold for superblock formation (0 = off;
          requires [chain]). On a miss, the controller consults the
          profile-derived chain oracle ([Controller.t.chain_oracle]) and
          fuses the chain of chunks whose successor edges were observed
          at least this many times into one contiguous group allocation,
          installing the members adjacently in chain order with all
          internal edges bound directly *)
  granularity : granularity;
      (** caching unit size: [Block] (default) caches chunker output;
          [Function] caches whole functions behind a PLT-style
          indirection table (see {!granularity}). Incompatible with
          [Procedure] chunking — function mode already subsumes it *)
  harts : int;
      (** CPU hart contexts sharing this controller's tcache (default
          1 = the solo single-threaded CC of the paper). With more, the
          run is driven by the shard layer ([Softcache.Shard]): a
          deterministic seeded scheduler interleaves the harts, misses
          open single-owner fills, and duplicate misses coalesce onto
          in-flight fills *)
  shards : int;
      (** tcache arenas (default 1 = one shared arena). [K > 1]
          partitions the tcache into K arenas with deterministic
          home-shard chunk routing and a global (cross-shard) lookup
          map. Incompatible with superblock formation, whose contiguous
          group reservations would break home-shard routing *)
  sched_seed : int;
      (** seed of the deterministic hart-interleaving scheduler; the
          same seed replays the same interleaving byte-identically *)
}

val make :
  ?tcache_bytes:int ->
  ?chunking:chunking ->
  ?eviction:eviction ->
  ?bind_at_translate:bool ->
  ?net:Netmodel.t ->
  ?engine:Machine.Cpu.engine ->
  ?prefetch_degree:int ->
  ?staging_chunks:int ->
  ?trace_limit:int ->
  ?chain:bool ->
  ?superblock_threshold:int ->
  ?granularity:granularity ->
  ?harts:int ->
  ?shards:int ->
  ?sched_seed:int ->
  unit ->
  t
(** Defaults: 48 KiB tcache, basic-block chunking, FIFO eviction,
    local (SPARC-style) interconnect, decoded dispatch,
    prefetch off with an 8-chunk staging buffer, a 65536-event trace
    ring, chaining/superblocks off, block granularity, one hart, one
    shard, scheduler seed 1.
    @raise Invalid_argument on out-of-range values (including
    [trace_limit <= 0], [superblock_threshold > 0] without [chain],
    [Function] granularity combined with [Procedure] chunking, and
    [shards > 1] combined with superblock formation). *)

(** {2 Fixed controller constants}

    The client-side cycle prices of the cache-controller operations,
    the tcache's place in memory, the transport's retry budget and
    timing, and the multi-hart scheduler's quantum. Every run uses
    these values. *)

val tcache_base : int
(** Physical base of the tcache region: [0x10000]. *)

val lookup_cycles : int
(** Client cost of one tcache-map hash probe (ambiguous-pointer
    fallback): 12. *)

val patch_cycles : int
(** Client cost of rewriting one code word: 4. *)

val miss_fixed_cycles : int
(** Fixed client-side bookkeeping per miss, on top of network and
    per-word costs: 30. *)

val translate_cycles_per_word : int
(** MC-side rewriting work, charged per emitted word: 2. "Could easily
    be reduced to near zero by more powerful MC systems". *)

val scrub_cycles_per_word : int
(** Cost per stack word scanned when evicting live landing pads: 2. *)

val max_retries : int
(** How many times the CC re-requests a chunk after a dropped or
    corrupted frame before declaring it unavailable: 8. *)

val retry_backoff_cycles : int
(** Base of the exponential backoff charged before retry [n]:
    [retry_backoff_cycles * 2^(n-1)] cycles, base 64. *)

val timeout_cycles : int
(** Cycles the CC waits before concluding a frame was dropped: 1000. *)

val quantum : int
(** Multi-hart scheduler quantum: cycles a hart may advance before the
    scheduler re-picks: 64. *)

val sparc_prototype : ?tcache_bytes:int -> unit -> t
(** Basic-block chunking, local MC (no network), FIFO eviction. *)

val pp : Format.formatter -> t -> unit
