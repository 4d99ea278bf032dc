(** The SoftCache controller: CC (client) + MC (server) orchestration.

    Owns the simulated embedded client — an ERISC CPU whose memory holds
    the application's data segment and the tcache region, but none of
    its code — and the server-side memory controller, which holds the
    program image and rewrites chunks on demand.

    Execution starts by translating the entry chunk. Every [Trap] the
    rewriter planted lands here:
    - unresolved direct exits are translated (an MC round trip, charged
      through the interconnect model), backpatched to point at the
      in-cache copy, and recorded as incoming pointers on the target;
    - computed jumps and indirect calls do a tcache-map lookup each
      time (the paper's ambiguous-pointer fallback);
    - persistent return stubs re-translate evicted return targets.

    Eviction unlinks a block by reverting all recorded incoming
    pointers to miss stubs (each record names the stub its site
    reverts to) and drops the records the block's own exit stubs left
    on surviving targets; no table lists the exits still waiting, as
    an exit waits exactly while its branch bytes trap, so restoring
    the word re-arms it. It then scrubs the stack: live landing-pad
    addresses in [ra] or stack slots are redirected to persistent
    return stubs ("the runtime system must know the layout of all such
    data"). A flush is that same eviction applied to every unpinned
    block.

    Which block dies on a miss is decided by [Policy.victim], a pure
    function over the facts the tcache keeps on each block; the
    controller records those facts (install tick, last observed entry,
    temperature prior) as it installs and enters blocks. Besides
    [Policy.victim], only the miss path's allocator reads
    [Config.eviction] (flush-all flushes instead of evicting). The
    implementation is decomposed into [Cc_state] (shared record),
    [Cc_evict], [Cc_staging], [Cc_translate] and [Cc_trap]; this module
    re-exports the types and the public API. *)

type event = Cc_state.event =
  | Translated of int  (** a chunk at this vaddr became resident *)
  | Evicted of int  (** this many blocks were just unlinked *)
  | Flushed
  | Invalidated
  | Patched
      (** an exit site, branch island, return stub or PLT slot was
          specialised in place ([Cc_state.specialise]) *)
  | Promoted of int
      (** a hot chain was fused into a superblock of this many members *)

type staged = Cc_state.staged = {
  st_bytes : Bytes.t;  (** encoded source instruction words of the chunk *)
  st_crc : int;  (** MC-side CRC32, verified at install time *)
}
(** A prefetched chunk body parked in the CC staging buffer, not yet
    rewritten or resident. *)

type superblock = Cc_state.superblock = {
  sb_head : int;  (** source vaddr of the head chunk *)
  sb_members : int list;  (** member block ids, layout order *)
}
(** A profile-hot chain fused into one contiguous group allocation.
    Members remain ordinary tcache blocks; the group exists so the
    whole chain can be de-promoted (dissolved) when any member dies. *)

type t = Cc_state.t = {
  cfg : Config.t;
  image : Isa.Image.t;
  mutable cpu : Machine.Cpu.t;
      (** the CPU currently advancing under this controller. Solo runs
          never reassign it; the multi-hart shard layer points it at
          the scheduled hart so cycle charges, stack scrubs and
          parked-pc redirects land on the active hart *)
  mutable harts : Machine.Cpu.t array;
      (** every hart sharing this controller ([[||]] in solo runs; set
          by [Shard.attach]). Tcache-region code writes are mirrored
          byte-identically into each hart's private memory *)
  tc : Tcache.t;
  stats : Stats.t;
  mutable staging : (int * staged) list;
      (** staged prefetched chunks by source vaddr, in arrival order
          (oldest first); bounded by [Config.staging_chunks], which
          drops the oldest entry when full; consumed on first touch *)
  mutable prefetch_ranker : (lo:int -> hi:int -> int) option;
      (** optional hotness oracle over a source byte range (typically
          [Profiler.samples_in]); ranks prefetch candidates when set *)
  mutable temperature : (lo:int -> hi:int -> Policy.temperature) option;
      (** optional profile temperature oracle over a source byte range,
          set by {!set_temperature_oracle}; sampled once per install
          into the block's [prior] *)
  mutable chain_oracle : (int -> (int * int) option) option;
      (** optional profile oracle: chunk vaddr -> hottest successor
          chunk and its edge temperature (typically built by
          [Cc_chain.oracle_of_profile]); consulted by superblock
          formation when [cfg.superblock_threshold > 0] *)
  mutable dynamic_text_hint : int option;
      (** profile-measured distinct executed code bytes
          ([Profiler.dynamic_text_bytes]), set alongside [chain_oracle]
          by profile-guided callers; the promotion churn guard's
          working-set estimate. When the rewritten working set would
          marginally exceed the tcache (the knee), superblock
          reservations are suppressed — [None] (the default) never
          suppresses *)
  superblocks : (int, superblock) Hashtbl.t;
      (** live superblocks by group id *)
  sb_of_block : (int, int) Hashtbl.t;
      (** member block id -> its superblock's group id *)
  mutable next_sb_id : int;
  mutable stubs : Stub.t array;
  mutable nstubs : int;
  ret_stubs : (int, int * int) Hashtbl.t;
      (** return vaddr -> (stub paddr, stub index); persistent across
          flushes because program stacks may hold the addresses *)
  plt : (int, int * int) Hashtbl.t;
      (** function vaddr -> (slot paddr, stub index); the PLT-style
          indirection table of function-granularity mode
          ([Config.granularity = Function]). One persistent one-word
          slot per called function: [Trap] while the function is
          absent, [Jmp paddr] while resident. Rewritten call sites jump
          through the slot, so installing or evicting a function
          patches exactly this word — byte-reversibly, through the same
          incoming-pointer discipline as chained exits *)
  gran_degraded : (int, int) Hashtbl.t;
      (** function entry vaddr -> extent end, for functions degraded to
          block granularity (whole-body unit too large for the tcache,
          or body not contiguously decodable); misses inside a recorded
          extent chunk as basic blocks. Sticky for the run *)
  stack_top : int;
  mutable next_block_id : int;
  mutable started : bool;
  mutable ra_regions : (int * int) list;
      (** registered non-stack return-address storage, scanned by the
          scrubber alongside the stack *)
  mutable free_stubs : int list;
      (** recycled stub-table entries from evicted blocks; every other
          entry below [nstubs] is live (owned by a block, a return stub
          or a PLT slot) *)
  mutable on_event : (event -> unit) option;
      (** fired after every state-changing controller operation, with
          the cache in a consistent state — the hook the [Check.Audit]
          invariant auditor attaches to *)
  mutable tracer : Trace.t option;
      (** structured event ring attached by [attach_tracer]; [None]
          (the default) records nothing *)
  mutable alloc_guard : int;
      (** rounds the miss path will re-allocate when processing the
          evictions grows the persistent stub area into the fresh
          placement (default 64, plenty: each round strictly consumes
          residents). Exhaustion raises {!Alloc_guard_exhausted}.
          Mutable as a test hook — lower it to make the exception
          reachable without a pathological workload. *)
  mutable mc_transport :
    (vaddr:int ->
    prefetch_vaddrs:int list ->
    payloads:Bytes.t list ->
    (int * Bytes.t list, Netmodel.error) result)
    option;
      (** server-side transport interposition. When set (a fleet MC
          multiplexing a shared link across clients — see [Fleet]),
          every demand frame dispatches through it instead of calling
          [Netmodel.transfer_batch] on [cfg.net] directly; the hook is
          handed the demand chunk's vaddr, the prefetch riders' vaddrs
          and the MC-stamped payload segments, and returns the usual
          transfer result. A coalesced delivery may carry fewer
          segments than offered (the demand segment only). [None] (the
          default) is the direct single-client path, byte- and
          draw-identical to before the hook existed. *)
  mutable mc_crc : (Bytes.t -> int) option;
      (** server-side CRC stamping hook; a fleet MC memoizes through
          its shared content-addressed chunk cache so identical content
          requested by many clients is chunked and CRC-computed once.
          [None] (the default) computes [Crc32.bytes] directly. *)
}

exception Chunk_too_large of int
(** A single chunk does not fit the configured tcache (carries the
    chunk's virtual address). *)

exception Tcache_too_small
(** The persistent stub area cannot grow any further, or pinned blocks
    crowd out every placement for a chunk that would otherwise fit. *)

exception Chunk_unavailable of { vaddr : int; attempts : int }
(** The interconnect failed to deliver a chunk intact within
    [Config.max_retries] re-requests. The cache state remains
    consistent (allocated stubs are rolled back); [Runner.cached_robust]
    surfaces this as a clean outcome rather than a crash. *)

exception
  Alloc_guard_exhausted of {
    loops : int;  (** re-allocation rounds attempted ([alloc_guard]) *)
    base : int;  (** the code region was [base, persist_base) *)
    persist_base : int;  (** the stub region was [persist_base, top) *)
    top : int;
  }
(** The miss path re-allocated [loops] times and every round the
    persistent stub area grew back over the placement. Carries both
    region bounds at the moment of exhaustion so the failure is
    diagnosable (a stub region that has consumed the whole tcache shows
    up as [persist_base] ≈ [base]). *)

exception Internal_invariant_broken of { chunk : int; detail : string }
(** A controller bookkeeping invariant failed while processing the
    chunk at this virtual address — e.g. an [mc_transport] hook
    replied without the demand segment. Replaces what used to be a
    bare assertion, so audit-off production runs fail with the failing
    chunk identified. *)

val create : Config.t -> Isa.Image.t -> t
(** Build the client machine (8 MiB of memory: data segment + tcache +
    stack, priced by the default {!Machine.Cost} model) and wire the
    trap handler.
    @raise Invalid_argument if the tcache region overlaps the image's
    data segment. *)

val attach_tracer : t -> Trace.t -> unit
(** Attach a structured-event tracer: its clock is bound to this
    controller's cycle counter, the interconnect forwards frame and
    fault events into the same ring, and every subsequent client-side
    charge is labelled in the tracer's cycle-attribution ledger (so
    [Trace.conserved] holds against [cpu.cycles] — checked by
    [Check.Audit] when a tracer is present). Tracing is architecturally
    invisible: it never changes cycles, statistics, or the fault rng
    draw stream ([Check.Lockstep.trace] proves this). Attach before
    [start] so the ledger covers the whole run. *)

val set_temperature_oracle :
  t -> (lo:int -> hi:int -> Policy.temperature) option -> unit
(** Attach a profile-derived temperature oracle: the [trrip] insertion
    prior, sampled into each block's [prior] as it installs. Only trrip
    reads the prior, so under every other policy no simulated number
    changes and callers may attach unconditionally. Like
    [prefetch_ranker], this threads profiling-pre-run data into the
    dependency-inverted core: build the classifier with
    [Profiler.temperature_classifier] and convert its temperature type
    to {!Policy.temperature} at the call site. Attach before [start] —
    the prior is sampled when a block installs. *)

val start : t -> unit
(** Translate the entry chunk and point the CPU at it. *)

val run : ?fuel:int -> t -> Machine.Cpu.outcome
(** [start] (if not already started) then run to completion. *)

val ensure_resident : t -> int -> Tcache.block
(** Translate (or find) the chunk at a virtual address — the miss
    path, also usable for prefetching. *)

val invalidate : t -> lo:int -> hi:int -> unit
(** Evict every translated block overlapping the virtual address range
    [lo, hi) — the contract self-modifying programs must follow. *)

val flush : t -> unit
(** Evict every unpinned block as one eviction, keeping return
    continuity through persistent stubs. Pinned blocks survive, with
    the CPUs parked in them and the stubs and PLT slots aimed at them.
    Fires [Evicted n], then [Flushed]. *)

val register_ra_region : t -> lo:int -> hi:int -> unit
(** Register a data region that may hold return addresses — the
    paper's thread-system interface: "the current return address is
    stored in a particular register and a particular place in the
    stack frame ... any non-stack storage (e.g. thread control blocks)
    must be registered with the runtime system. The interface to the
    thread system is the only new requirement (and we have not yet
    implemented it)." This reproduction implements it: registered
    regions are scanned during eviction scrubbing and flushes, so
    programs that park return addresses in thread control blocks stay
    correct under paging.
    @raise Invalid_argument on an unaligned or inverted range. *)

val pin : t -> int -> unit
(** Pin the chunk at a virtual address: translate it if needed and
    exempt it from eviction and flushes — Section 4's "more flexible
    version of data pinning ... we can pin or fix pages in memory and
    prevent their eviction without wasting space". [invalidate] and
    persistent-stub-area growth override pins (correctness beats the
    timing hint).
    @raise Chunk_too_large / Tcache_too_small as for any translation. *)

val unpin : t -> int -> unit
(** Release a pin. No-op if the chunk is absent or unpinned. *)

val is_pinned : t -> int -> bool

val preload : t -> lo:int -> hi:int -> unit
(** Translate every chunk in the virtual address range [lo, hi) —
    fetch a whole module ahead of a mode switch so that the switch
    itself runs without misses (the Figure 2 predictability story).
    @raise Chunk_too_large if a chunk cannot fit. *)

val metadata_bytes : t -> int
(** CC-side bookkeeping footprint: tcache map entries plus *live* stub
    table entries ([nstubs] minus the free list; 12 bytes per map
    entry, 8 per stub) plus PLT table entries (12 bytes each: function
    vaddr, slot paddr, stub index).
    Stub entries are recycled when their block is evicted, so this
    stays proportional to residency — the paper's "adjustable
    tradeoff" — rather than growing with run length. *)

val resident : t -> int -> bool
(** Is the chunk at this virtual address in the tcache? *)
