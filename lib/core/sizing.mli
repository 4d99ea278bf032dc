(** Dominant-block analytic tcache sizing.

    Predicts the miss-rate knee of the Fig. 7 curve — the smallest
    acceptable tcache size — without running the sweep: a static CFG
    walk over the chunker enumerates every reachable chunk, a profiling
    pre-run weights them, and the smallest hottest-first prefix
    covering a threshold share of the samples (the {e dominant set},
    the paper's gprof 90% rule at chunk granularity) is priced in
    rewritten bytes via [Rewriter.layout_words]. A tcache holding the
    dominant set in rewritten form sits at the knee.

    Like the rest of [lib/core] this module never touches the profiler:
    the sample oracle arrives as a closure, exactly as
    [Controller.prefetch_ranker] does ([Profiler.samples_in] partially
    applied is the intended argument). *)

type chunk_info = {
  ci_vaddr : int;  (** chunk start in the source image *)
  ci_span_bytes : int;  (** source footprint *)
  ci_tcache_bytes : int;  (** rewritten footprint, [4 * layout_words] *)
  ci_samples : int;  (** profile samples attributed to the chunk *)
}

type estimate = {
  chunks_walked : int;  (** reachable chunks the CFG walk found *)
  dominant_chunks : int;
  dominant_source_bytes : int;
  dominant_tcache_bytes : int;
      (** the dominant set priced in rewritten (tcache) bytes *)
  predicted_bytes : int;
      (** [headroom *. dominant_tcache_bytes], rounded up — the
          predicted smallest acceptable tcache size *)
  predicted_knee : int option;
      (** smallest entry of [sizes] >= [predicted_bytes]; [None] when
          the prediction exceeds the whole ladder *)
  chunks : chunk_info list;  (** every walked chunk, hottest first *)
}

val estimate :
  ?threshold:float ->
  ?headroom:float ->
  ?granularity:Config.granularity ->
  image:Isa.Image.t ->
  chunking:Config.chunking ->
  samples_in:(lo:int -> hi:int -> int) ->
  sizes:int list ->
  unit ->
  estimate
(** [threshold] (default 0.9) is the dominant-set cumulative-sample
    share; [headroom] (default 1.4) inflates the rewritten footprint to
    cover what the static model cannot see — the persistent stub area
    growing down from the tcache top (including PLT slots in function
    mode), allocation-sweep fragmentation, and tail-duplicated chunks
    translated once per branch target. [granularity] (default [Block])
    selects the caching unit the walk enumerates and prices: under
    [Function] the units are whole-function chunks linked by external
    successors, layouts are priced assuming every external call goes
    through a PLT slot (no per-call trap island), and a function the
    controller would degrade is priced as basic blocks, mirroring the
    runtime rule. The walk seeds at the image entry and every symbol
    start (standing in for statically unknowable computed-jump targets)
    and skips addresses the chunker rejects. A zero-sample profile
    yields an empty dominant set and [predicted_bytes = 0].
    @raise Invalid_argument unless [0 < threshold <= 1] and
    [headroom >= 1]. *)

val deep_thrash : estimate -> tcache_bytes:int -> bool
(** Should a temperature prior be primed at this tcache size? True when
    [predicted_bytes] exceeds twice the tcache — at least a full
    power-of-two ladder step of oversubscription, where the dominant
    set cannot come close to fitting and protecting its hottest blocks
    is pure win. In the transition zone around the knee (within 2x of
    the prediction) the layout nearly fits and prior-driven sweep
    deviations churn more than they save, so [trrip] should run
    unprimed there, as plain RRIP. The CLI and
    the policysweep bench both consult this before attaching
    [Controller.set_temperature_oracle]. *)
