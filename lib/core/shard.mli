(** Multi-hart execution over one controller (the sharded CC).

    [attach] wraps a freshly created {!Controller} (before it starts)
    with [Config.harts] CPU hart contexts: hart 0 is the controller's
    own CPU; each further hart gets a private memory (own data segment
    and stack) whose tcache region is kept byte-identical with every
    other hart's by controller write mirroring — coherent shared code
    over private data. All harts run the same image from its entry
    (SPMD).

    [run] advances the harts in quantum slices under a deterministic
    seeded interleaving scheduler ([Config.sched_seed] /
    [Config.quantum]); the same seed replays the same interleaving
    byte-identically. Concurrent misses go through one fill record per
    chunk — its single owner and its completion stamp — with MC-link
    serialization, and duplicate misses coalescing onto in-flight
    fills instead of re-requesting over the wire. Suspended harts hold
    read leases on the tcache blocks their pc is parked in, which the
    allocation sweep treats as immovable; flush and invalidation
    override leases and redirect the parked harts. A lease is kept only
    as the tcache's count ([Tcache.lease_count]): the hart record holds
    no copy, and resuming releases the block that covers the pc.

    A 1-hart run is cycle-identical to the plain solo controller —
    the active hart holds no lease while controller code runs, and a
    lone hart's fills always complete before its next miss, so no wait
    is ever charged. [Check.Lockstep.shards] proves this registry-wide;
    [Check.Audit.shards] checks the fill/lease/wait invariants. *)

type fill = {
  f_vaddr : int;  (** the chunk being filled *)
  f_owner : int;  (** the single hart that owns this fill *)
  mutable f_done : int;
      (** completion stamp in virtual (owner-clock) time; [max_int]
          exactly while the fill is in flight, which never outlives the
          owner's trap. A hart whose clock is before this stamp when it
          misses the same chunk coalesces instead of re-requesting *)
}

type hart = {
  h_id : int;
  h_cpu : Machine.Cpu.t;
  mutable h_wait_fill : int;
      (** cycles spent suspended on fills owned by other harts *)
  mutable h_wait_mc : int;
      (** cycles spent waiting for the shared MC link to free *)
  mutable h_fills : int;  (** fills this hart owned *)
  mutable h_joins : int;  (** fills this hart coalesced onto *)
}

type t

val run_cycles : hart -> int
(** Cycles the hart spent advancing, controller work charged to it
    included: its clock minus its waits
    ([h_cpu.cycles - h_wait_fill - h_wait_mc]). *)

val attach : Controller.t -> t
(** Wrap a controller with [cfg.harts] hart contexts and install the
    multi-hart trap front end on each. Must be called before the
    controller starts (the harts replicate the pristine tcache
    region); a controller can only be attached once.
    @raise Invalid_argument otherwise. *)

val start : t -> unit
(** Bring every hart to the image entry through the fill machinery:
    the first hart owns the entry fill, the rest coalesce onto it.
    Implied by the first {!run}. @raise Invalid_argument if already
    started. *)

val run : ?fuel:int -> t -> Machine.Cpu.outcome
(** Interleave the harts until all halt or each has retired [fuel]
    instructions (default unbounded). [Halted] iff every hart halted.
    Resumable: leases are re-established at every suspension, so a
    fuel-bounded run can be continued. *)

val controller : t -> Controller.t
val harts : t -> hart list
(** In id order. *)

val hart : t -> int -> hart
val fills : t -> fill list
(** Every fill opened so far (the latest per chunk), stably ordered. *)

val mc_free_at : t -> int
(** Virtual time the shared MC link is busy until. *)

val total_cycles : t -> int
(** Sum of hart clocks (the work metric). *)

val makespan : t -> int
(** Max hart clock (the wall-clock metric the shardsweep bench
    grids). *)

val pp_hart : Format.formatter -> hart -> unit
