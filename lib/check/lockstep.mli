(** Lockstep differential runner: native vs SoftCached execution, side
    by side, reporting the first divergent data access.

    The native run goes first and its load/store address stream is
    recorded; the cached run then compares against it inside the CPU
    hooks, so a divergence is caught at the exact access where the two
    executions part ways rather than at end-of-run state comparison.
    Output values are compared after both streams match. Fetch
    addresses and return-address values are excluded by design: they
    legitimately differ (tcache placement, landing pads). *)

type event = Load of int | Store of int | Output of int

type divergence = {
  index : int;  (** position in the event stream *)
  native : event option;  (** [None]: native had already finished *)
  cached : event option;  (** [None]: cached stopped short *)
}

type verdict =
  | Equivalent of { events : int }
  | Diverged of divergence
  | Native_out_of_fuel  (** reference run did not finish; no verdict *)
  | Cached_out_of_fuel of { events : int }
  | Unavailable of { vaddr : int; attempts : int; events : int }
      (** the faulty interconnect gave up on a chunk; everything up to
          that point matched *)

val run :
  ?fuel:int ->
  ?ops:(Softcache.Controller.t -> unit) list ->
  ?audit:bool ->
  ?on_controller:(Softcache.Controller.t -> unit) ->
  Softcache.Config.t ->
  Isa.Image.t ->
  verdict
(** [run cfg img] executes the differential pair. [ops] are applied to
    the cached controller at evenly spaced fuel slices — use them to
    invalidate or flush mid-run and check that execution still tracks
    the native stream. [audit] additionally installs {!Audit.install}
    on the cached controller. [on_controller] receives the cached
    controller right after construction (so callers can install
    oracles or inspect its final state once [run] returns). Default
    [fuel] is 2M instructions per side. *)

val pp_event : Format.formatter -> event -> unit
val pp_verdict : Format.formatter -> verdict -> unit

(** {2 Decoded vs interpretive dispatch}

    A second differential axis: the same softcached execution run twice,
    once through the predecoded engine and once through reference
    interpretive dispatch, stepped one instruction at a time. Because
    both sides run the {e same} execution, the full architectural state
    — pc, registers, cycle and retire counts — must match after every
    step, and outputs plus the entire memory image at the end. This is
    the proof obligation of the decode cache's coherence rule: if any
    memory write failed to invalidate its predecode line, the decoded
    side executes a stale instruction and the pair diverges at that
    exact step. *)

type engine_verdict =
  | Engines_equivalent of { steps : int }
  | Engines_diverged of { step : int; detail : string }
  | Engines_out_of_fuel of { steps : int }
      (** every compared step matched; the budget ran out first *)
  | Engines_unavailable of { vaddr : int; attempts : int; steps : int }
      (** the faulty interconnect gave up on a chunk; all steps up to
          that point matched *)

val engines :
  ?fuel:int ->
  ?ops:(Softcache.Controller.t -> unit) list ->
  ?audit:bool ->
  (unit -> Softcache.Config.t) ->
  Isa.Image.t ->
  engine_verdict
(** [engines mk_cfg img] builds one controller per engine — each from a
    fresh [mk_cfg ()] so the pair never shares mutable transport state —
    and steps them in lockstep. [ops] are applied to {e both} controllers
    at evenly spaced fuel slices (state is re-compared right after), so
    mid-run patches, evictions and flushes are exercised at identical
    instruction boundaries. [audit] installs {!Audit.install} (including
    its decode-coherence section) on the decoded side. Default [fuel] is
    2M instructions. *)

val pp_engine_verdict : Format.formatter -> engine_verdict -> unit

val prefetch :
  ?fuel:int ->
  ?ops:(Softcache.Controller.t -> unit) list ->
  ?audit:bool ->
  (unit -> Softcache.Config.t) ->
  Isa.Image.t ->
  engine_verdict
(** [prefetch mk_cfg img] runs the configuration as given (typically
    with [prefetch_degree > 0]) against the same configuration forced
    to [prefetch_degree = 0], in instruction lockstep. Prefetching must
    be architecturally invisible — staged chunks install lazily and
    never touch client-visible state early — so everything the
    {!engines} runner compares must match {e except} cycle counts,
    which legitimately differ and are excluded. [ops] and [audit]
    behave as in {!engines} (the audit, including its staging-buffer
    section, goes on the prefetching side). *)

val trace :
  ?fuel:int ->
  ?ops:(Softcache.Controller.t -> unit) list ->
  ?audit:bool ->
  (unit -> Softcache.Config.t) ->
  Isa.Image.t ->
  engine_verdict
(** [trace mk_cfg img] proves that tracing is architecturally invisible:
    the same configuration is run twice, once with a {!Trace.t} attached
    via {!Softcache.Controller.attach_tracer} and once without, in
    instruction lockstep. Recording an event only appends to the trace
    ring — it never charges cycles, touches statistics or draws from the
    interconnect's randomness — so {e everything} must match, cycle
    counts included. On top of the step-wise state comparison the runner
    checks end-of-run statistics and interconnect counters for equality,
    and that the traced side's cycle attribution conserves exactly
    against its final cycle counter ({!Trace.conserved}). [ops] are
    applied to both controllers at evenly spaced fuel slices; [audit]
    installs {!Audit.install} on the traced side. Default [fuel] is 2M
    instructions. *)

val fleet :
  ?fuel:int ->
  ?ops:(Softcache.Controller.t -> unit) list ->
  ?audit:bool ->
  (unit -> Softcache.Config.t) ->
  Isa.Image.t ->
  engine_verdict
(** [fleet mk_cfg img] proves the fleet layer is a strict
    generalisation of the single-client path: a 1-client {!Fleet.t}
    (dedup and batching enabled) hosting a controller over [mk_cfg ()]
    is driven in instruction lockstep against a plain
    [Softcache.Controller] over another [mk_cfg ()], with cycle counts
    included in the per-step comparison. With one client, queueing
    wait is provably zero, coalescing and piggybacking cannot trigger,
    and the shared chunk cache only memoizes CRC values the MC would
    have computed anyway — so {e everything} must match: per-step
    architectural state, end-of-run statistics and every interconnect
    counter (the same epilogue {!trace} runs). [ops] are applied to
    both sides at evenly spaced fuel slices; [audit] installs
    {!Audit.install} on the fleet-hosted side. *)

val shards :
  ?fuel:int ->
  ?ops:(Softcache.Controller.t -> unit) list ->
  ?audit:bool ->
  (unit -> Softcache.Config.t) ->
  Isa.Image.t ->
  engine_verdict
(** [shards mk_cfg img] proves the multi-hart layer is a strict
    generalisation of the solo path: a 1-hart {!Softcache.Shard}
    session over [mk_cfg ()] is driven in instruction lockstep
    against a plain [Softcache.Controller] over another [mk_cfg ()],
    with cycle counts included in the per-step comparison. With one
    hart, no lease is ever held while controller code runs and every
    fill completes before the hart's next miss, so everything must
    match: per-step architectural state, end-of-run statistics
    (modulo the fill counters the solo path bypasses) and every
    interconnect counter. The epilogue additionally requires the lone
    hart's wait ledger to be zero and the final state to pass
    {!Audit.shards}. [ops] are applied to both sides at evenly spaced
    fuel slices; [audit] installs {!Audit.install} on the
    shard-hosted side. *)

(** {2 Observational equivalence}

    Chaining modes, replacement policies and caching granularities
    legitimately change pc and retire streams, cycle counts and tcache
    placement: an unresolved Br/Jal exit hops through its in-block trap
    island where a chained site branches direct, superblocks relocate
    whole chains, different victims produce different stub and trap
    sequences, and whole-function units change the call linkage
    (persistent PLT slots instead of per-site call patching). What must
    never change is what the program computes. So each runner below
    records the native execution once, replays every variant against it
    in data-access lockstep ({!run}), and then cross-compares the
    variants on the observables that survive those differences: the
    output stream and the final data segment. Each variant overrides
    its fields on a fresh [mk_cfg ()] (own transport state, own
    tcache); [ops] and [audit] pass through to every replay. *)

type modes_verdict =
  | Modes_equivalent of { modes : string list; events : int }
      (** every variant matched the native access stream and all agree
          on outputs and final data; [events] is the length of the
          (shared) native access stream *)
  | Mode_diverged of { mode : string; verdict : verdict }
      (** this variant's cached run diverged from native *)
  | Modes_mismatch of { mode : string; baseline : string; detail : string }
      (** every variant matched native, yet two disagree on a terminal
          observable — should be impossible; kept as a separate arm so
          a bug here is named, not lumped into divergence *)

val pp_modes_verdict : Format.formatter -> modes_verdict -> unit

val chain_modes :
  ?fuel:int ->
  ?ops:(Softcache.Controller.t -> unit) list ->
  ?audit:bool ->
  ?oracle:(int -> (int * int) option) ->
  ?superblock_threshold:int ->
  (unit -> Softcache.Config.t) ->
  Isa.Image.t ->
  modes_verdict
(** [chain_modes mk_cfg img] compares the chaining modes off, eager
    chaining and chaining + profile-guided superblock formation,
    overriding only [Config.chain] and [Config.superblock_threshold].
    [oracle] (typically built by [Softcache.Cc_chain.oracle_of_profile]
    from a profiling pre-run) is installed as the superblock mode's
    [chain_oracle]; without it the superblock mode degenerates to plain
    chaining, which still checks but proves less.
    [superblock_threshold] is the edge temperature the superblock mode
    uses (default 1: fuse any observed edge — the most aggressive, and
    therefore most falsifying, setting). Valid under any replacement
    policy. *)

val policies :
  ?fuel:int ->
  ?ops:(Softcache.Controller.t -> unit) list ->
  ?audit:bool ->
  (unit -> Softcache.Config.t) ->
  Isa.Image.t ->
  modes_verdict
(** [policies mk_cfg img] compares every policy in
    {!Softcache.Config.eviction_table}, overriding only
    [Config.eviction]. Pick a configuration every policy can execute —
    e.g. a tcache large enough that [Flush_all] does not hit
    [Chunk_too_large]. *)

val granularity :
  ?fuel:int ->
  ?ops:(Softcache.Controller.t -> unit) list ->
  ?audit:bool ->
  ?eviction:Softcache.Config.eviction ->
  (unit -> Softcache.Config.t) ->
  Isa.Image.t ->
  modes_verdict
(** [granularity mk_cfg img] compares block and whole-function caching
    units ({!Softcache.Config.granularity_table}), overriding only
    [Config.granularity] (and, when [eviction] is given,
    [Config.eviction] — so callers can sweep the full policy ×
    granularity grid). The audit includes the PLT-slot section, so a
    function-mode run is also checked for slot-table/residency agreement
    at every controller event. Pick a tcache large enough that the
    workload's functions fit or degrade cleanly. *)
