(** Driver for the software data cache design.

    Runs a program on the interpreter with the Section 3 memory system
    attached: every data access is classified as stack (served by the
    {!Scache} frame buffer) or general data (served by the fully
    associative {!Assoc} store through per-site predictions), and the
    Figure 10 cycle prices are charged on top of the machine's own
    memory costs. Procedure entries and exits are detected from stack
    pointer movement; leaf procedures skip the exit presence check, as
    the design allows.

    Per-site constant specialisation models the rewriter: a load or
    store whose address has been stable for [specialise_threshold]
    executions is rewritten into a direct access and deoptimised if the
    address ever changes. *)

type stats = {
  mutable const_hits : int;  (** specialised direct accesses *)
  mutable fast_hits : int;  (** prediction correct *)
  mutable second_chance_hits : int;
  mutable slow_hits : int;  (** found by binary search *)
  mutable slow_probes : int;  (** total search probes *)
  mutable misses : int;
  mutable deopts : int;  (** specialised sites torn down *)
  mutable specialised_sites : int;
  mutable stack_accesses : int;
  mutable data_accesses : int;
  mutable scache_checks : int;
  mutable scache_spills : int;
  mutable scache_refills : int;
  mutable extra_cycles : int;
      (** cycles charged on top of the baseline machine costs *)
}

val attach :
  ?tracer:Trace.t -> Config.t -> Machine.Cpu.t -> stats * (unit -> unit)
(** Install the data-cache model on an existing CPU: hooks classify
    every load and store, and the returned thunk must be invoked after
    each [Machine.Cpu.step] (it watches the stack pointer to detect
    procedure entry and exit). [stats.extra_cycles] accumulates the
    charges; the caller decides when to fold them into the CPU's cycle
    counter. Replaces any load/store hooks already installed — attach
    the data cache last. With [tracer], state transitions (site
    specialisation / deopt, misses, scache spills and refills) are
    recorded as structured events; recording never changes behaviour
    or cost. *)

val run :
  ?fuel:int ->
  ?tracer:Trace.t ->
  Config.t ->
  Isa.Image.t ->
  Machine.Cpu.outcome * Machine.Cpu.t * stats
(** Execute the image to completion under the software data cache.
    The observable results are unchanged (the design never alters
    values, only costs); the returned statistics and the CPU's cycle
    counter carry the measurements. With [tracer], its clock is bound
    to this run's CPU, the channel's frame events are forwarded into
    the ring, and [stats.extra_cycles] is labelled as dcache overhead
    in the attribution ledger when folded in, so [Trace.conserved]
    holds against the final cycle counter. *)

val tag_checks_avoided : stats -> float
(** Fraction of data accesses that paid no tag check at all (stack
    accesses within resident frames plus specialised constants) — the
    design's headline metric. *)

val guaranteed_latency_cycles : Config.t -> int
(** The worst on-chip latency: a slow hit through a full binary
    search — "the guaranteed memory latency is the speed of a slow
    hit". *)

val pp_stats : Format.formatter -> stats -> unit
