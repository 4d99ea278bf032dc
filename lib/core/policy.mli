(** Pluggable tcache replacement policies.

    The controller never decides *which* block dies — it asks the
    policy. A policy is a first-class module holding its own mutable
    bookkeeping, created per controller from [Config.eviction], and fed
    the stream of cache events the controller already observes:

    - {b install}: a chunk was translated and registered;
    - {b entry}: control entered a resident block through a path the
      controller mediates — a computed jump, an indirect call, a return
      stub, or an exit-stub target lookup. Patched direct branches jump
      straight into the tcache and are invisible; this is the paper's
      "cache state is encoded in the branches" trade-off, and it is what
      keeps hit tracking free of per-instruction cost;
    - {b evict}: a block left the cache, with a {!reason} (a flush
      evicts every unpinned resident with reason [Flushed]).

    In return the policy answers one question on the miss path:
    {!S.victim} — which resident block should the allocation sweep be
    seeded at. [None] means "no preference": the controller continues
    the circular FIFO sweep (this is exactly the pre-refactor FIFO
    behaviour, so the re-expressed policies are cycle-identical).

    {b Invariants} (enforced by the [Check.Audit] policy section):
    - the policy's resident view ({!S.resident_ids}) equals the set of
      blocks registered in the tcache, exactly, after every event;
    - {!S.victim} never returns a pinned block;
    - {!S.victim} is a pure query: the auditor and the allocation loop
      may call it any number of times without perturbing policy state. *)

type reason =
  | Victim  (** chosen by the policy (or swept by FIFO) to make room *)
  | Collateral
      (** overlapped by a placement seeded at another block's address *)
  | Stub_growth  (** run over by the growing persistent-stub area *)
  | Invalidated  (** [Controller.invalidate] — self-modifying code *)
  | Flushed  (** whole-tcache flush *)

val reason_name : reason -> string
(** Stable lowercase name, used by the [cc_evict] trace event and the
    per-reason statistics ("victim", "collateral", "stub_growth",
    "invalidated", "flushed"). *)

val reason_names : string list
(** All valid {!reason_name} values (for schema validation). *)

type temperature = Hot | Warm | Cold
(** Profile-derived block temperature, the TRRIP classification. The
    policy layer defines its own copy of this type (rather than using
    the profiler's) because [lib/core] must not depend on
    [lib/profiler]; the glue converting one to the other lives with
    whoever attaches the oracle (CLI, bench, tests). *)

val temperature_name : temperature -> string
(** "hot" / "warm" / "cold". *)

val rrpv_of_temperature : temperature -> int
(** The TRRIP insertion mapping: hot 0, warm 2, cold 3. *)

module type S = sig
  val name : string
  (** The [Config.eviction_name] this instance was created from. *)

  val kind : [ `Evict | `Flush_all ]
  (** [`Evict]: make room by evicting blocks ([victim] seeds the
      sweep). [`Flush_all]: never evict incrementally — the controller
      flushes the whole tcache when allocation fails. *)

  val set_temperature_oracle :
    (lo:int -> hi:int -> temperature) option -> unit
  (** Attach (or detach, with [None]) a profile temperature oracle
      classifying a source address range [\[lo, hi)]. Only [trrip]
      consults it — a no-op on every other policy. Attach it before
      execution starts (the prior is sampled at install time). *)

  val on_install : Tcache.block -> unit
  (** A freshly translated block became resident. *)

  val on_entry : Tcache.block -> unit
  (** Control observably entered a resident block (hit). *)

  val on_evict : reason -> Tcache.block -> unit
  (** The block left the tcache. Fired on every removal path,
      including flushes (once per unpinned former resident). *)

  val victim : ?shard:int -> Tcache.t -> Tcache.block option
  (** Which resident block should the allocator reclaim first? [None]
      = no preference, continue the FIFO sweep. Must be pure and must
      never name a pinned or leased block. Under a sharded tcache the
      allocator passes the arena it is placing into and the victim
      must live there; without [shard] every arena is considered. *)

  val resident_ids : unit -> int list
  (** The policy's view of residency, unordered — audited against the
      tcache's own block set. *)

  val debug_state : unit -> string
  (** One-line dump of the policy's internal state (stamps, RRPVs) for
      audit failure messages. *)
end

type t = (module S)

val create : Config.eviction -> t
(** Fresh policy state for one controller. The returned module closes
    over its own tables; never share an instance between controllers. *)

(** {2 Selection primitives}

    Exposed so the tie-break discipline can be unit-tested directly:
    both must be deterministic in the *contents* of the table, never in
    [Hashtbl.fold]'s visit order (which depends on insertion history). *)

val pick_min :
  ?shard:int ->
  (int, Tcache.block * 'm) Hashtbl.t ->
  key:('m -> 'k) ->
  Tcache.t ->
  Tcache.block option
(** Unpinned, unleased resident with the smallest key ([compare]
    order); exact key ties break on the smaller block id. [None] if
    every resident is immovable (or the table is empty). [shard]
    restricts candidates to one arena of a sharded tcache. *)

val sweep_candidate :
  ?shard:int ->
  (int, Tcache.block * 'm) Hashtbl.t ->
  Tcache.t ->
  (Tcache.block * 'm) option
(** The block the shard's circular FIFO allocation sweep would reclaim
    next: the lowest-placed unpinned, unleased block whose extent ends
    past the sweep pointer, else (wrapped) the lowest-placed such
    block overall; placement ties break on the smaller block id. *)
