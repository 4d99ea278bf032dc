(** Multi-client MC fleet service, as a deterministic discrete-event
    simulation.

    One memory controller serves [N] cache-controller clients — each a
    full [Softcache.Controller] session running its own workload —
    multiplexed over a single shared [Netmodel] link. The fleet layer
    owns what the paper's one-client MC never needed:

    - {b per-client sessions}: each client keeps its own tcache,
      statistics and virtual clock ([cpu.cycles]); the fleet advances
      them in 256-instruction slices, least-advanced clock first;
    - {b a shared server-side chunk cache with content dedup}: CRC
      stamps are memoized by exact payload content, so identical chunks
      requested by many clients are chunked and CRC-computed once
      (wired into the controllers through [Controller.mc_crc]);
    - {b request coalescing}: a miss for content identical to a frame
      already in flight joins that frame — it waits until the frame
      lands and reads the same delivered bytes, putting nothing new on
      the wire;
    - {b frame batching}: a miss that (in virtual time) arrives before
      the frame occupying the link has departed rides it as piggyback
      segments at marginal per-byte cost — no latency, no per-message
      overhead ([Netmodel.transfer_piggyback]);
    - {b link serialization}: the shared link carries one frame at a
      time; a request finding the link busy queues until it frees, and
      the queueing wait is charged to the requesting client's clock.

    Everything is deterministic: same seed, same settings, same
    workloads — same byte-for-byte summary. A 1-client fleet is
    {e cycle-identical} to the plain single-controller path
    ([Check.Lockstep.fleet] proves it): queueing wait is provably zero,
    coalescing and batching cannot trigger, and the dedup cache
    memoizes values it would have computed anyway. *)

val cache_chunks : int
(** Bound on shared chunk-cache entries (256; content-addressed,
    FIFO-evicted). *)

(** {1 Sessions} *)

type outcome =
  | Running
  | Halted
  | Out_of_fuel
  | Unavailable of { vaddr : int; attempts : int }
      (** the shared link gave up on a chunk for this client; the other
          sessions keep running *)

type session

val session_id : session -> int
val controller : session -> Softcache.Controller.t

val image : session -> Isa.Image.t
(** The workload this session runs — under a heterogeneous fleet
    ([Fleet.create] with several images) each client's isolation is
    audited against {e its own} image's text segment. *)

val shard : session -> Softcache.Shard.t option
(** The multi-hart wrapper, when the session's [Config.harts > 1]; such
    sessions advance through [Shard.run] (their controller's cpu is only
    one hart among several). [None] for single-hart clients. *)

val requested : session -> int -> bool
(** Has this session ever requested the chunk at this vaddr (as a
    demand miss or as a prefetch rider on one of its own frames)? The
    isolation invariant [Check.Audit.fleet] enforces: every block
    resident or staged in a session maps to a requested vaddr. *)

val fetches : session -> int
(** Demand transport attempts this session made against the MC. *)

val session_coalesced : session -> int
(** How many of those attempts were served by joining an in-flight
    frame. *)

val stall_samples : session -> float list
(** Cycles this session stalled per transport attempt (queueing wait +
    wire time, or wait-until-landing for coalesced joins), in attempt
    order — the input to the p50/p99 metrics. *)

(** {1 The fleet} *)

type t

val create :
  ?clients:int ->
  ?dedup:bool ->
  ?sizing:(int -> int option) ->
  net:Netmodel.t ->
  (int -> Softcache.Config.t) ->
  Isa.Image.t array ->
  t
(** [create ~net mk_cfg images] builds [clients] sessions (default 4);
    session [i] runs [images.(i mod length)] under [mk_cfg i] with its
    [Config.net] replaced by the shared link [net] (pass the net from
    one of the configs to share its fault schedule). The sessions'
    [mc_transport] and [mc_crc] hooks are pointed at the fleet MC; no
    session starts executing until {!run}.

    [dedup] (default on) enables the shared chunk cache and request
    coalescing; off is the baseline every dedup gate compares against.

    [sizing] is the auto-size admission hook: for client [i] it returns
    the [Sizing.estimate]-predicted smallest acceptable tcache in bytes
    (the caller runs the analytic model — the profiler lives above this
    layer). A client whose configured [tcache_bytes] falls below the
    prediction is admitted at the predicted size (rounded up to a
    16-byte boundary) instead; the per-client stats report both sizes.
    Sizing never shrinks a configured tcache.

    A client whose config asks for [harts > 1] is wrapped in a
    {!Softcache.Shard} and advanced through the shard scheduler; its
    fuel is measured on the furthest hart.
    @raise Invalid_argument if [clients < 1] or [images] is empty. *)

val run : ?fuel:int -> t -> unit
(** Drive every session to halt (or [fuel] retired instructions per
    client, default 2M; or chunk unavailability) in 256-instruction
    slices, always serving the running session with the lowest
    virtual clock (ties: lowest id). Deterministic; idempotent
    once every session has left [Running]. *)

val attach_tracer : t -> Trace.t -> unit
(** Attach a structured-event observer: fleet events (requests,
    coalesced joins, frames, piggybacks) and shared-link frame/fault
    events are recorded, stamped by the fleet's virtual clock (the
    clock of the session being served). Observational only. *)

(** {1 Introspection (audit surface)} *)

val dedup : t -> bool
val sessions : t -> session array

val attempts : t -> int
(** Demand transport attempts that reached the MC, across sessions. *)

val frames : t -> int
(** Frames actually dispatched on the shared link (including dropped
    ones). *)

val coalesced : t -> int
(** Attempts served by joining an in-flight frame (no wire traffic). *)

val piggybacked : t -> int
(** Attempts that rode a frame still occupying the link. *)

val cache_entries : t -> int

val messages_delta : t -> int
(** Shared-link messages accounted since {!create} — with the fleet as
    the link's only user this must equal [frames + duplicates_delta]
    (piggybacks account no message), the conservation law
    [Check.Audit.fleet] checks. *)

val duplicates_delta : t -> int

(** {1 Metrics} *)

type client_stats = {
  c_id : int;
  c_outcome : outcome;
  c_cycles : int;
      (** single-hart: the session cpu's cycle clock; multi-hart: the
          shard makespan (max over hart clocks) *)
  c_retired : int;  (** summed over harts for multi-hart sessions *)
  c_translations : int;
  c_traps : int;
  c_fetches : int;
  c_coalesced : int;
  c_workload : string;  (** [Isa.Image.name] of the session's image *)
  c_harts : int;
  c_tcache_bytes : int;  (** the size the client was admitted at *)
  c_predicted_bytes : int option;
      (** [Sizing]-predicted smallest acceptable tcache under
          [create ?sizing]; [None] when auto-sizing was off *)
  c_stall_p50 : float option;
      (** [None] when the session recorded no stall samples (it never
          touched the wire) — rendered as ["n/a"] by [summary_fields],
          never masked as 0 *)
  c_stall_p99 : float option;
}

val client_stats : session -> client_stats

val summary_fields : t -> (string * string) list
(** The fleet's MC counters, shared-link deltas and per-client stats as
    a stable, ordered key/value row — exactly what the fleetsweep bench
    writes to BENCH_fleet.json, and what the determinism test compares
    byte-for-byte across two runs. Per-client values are ";"-joined in
    session order. *)

val print_summary : t -> unit
(** Render {!summary_fields} as [Report.kv] lines. *)
