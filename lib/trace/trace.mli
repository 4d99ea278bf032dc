(** Cycle-stamped structured event tracing.

    A bounded ring of typed events recorded from every layer of the
    simulator — controller (miss / translate / backpatch / evict /
    flush / invalidate / staged install), tcache placement, netmodel
    frames and faults, and dcache-sim transitions — plus an exact
    cycle-attribution ledger splitting [cpu.cycles] into execute,
    translate, wire, trap-dispatch, dcache-overhead, patch, scrub and
    lookup categories.

    The tracer is architecturally invisible: recording an event only
    appends to the ring and never touches cycle counters, statistics,
    or the netmodel rng draw stream, so a traced run is cycle- and
    counter-identical to an untraced one ([Check.Lockstep.trace] proves
    this across the workload registry). The attribution ledger
    conserves: the categories sum exactly to the CPU cycle counter
    ([conserved], enforced by [Check.Audit] when a tracer is
    attached).

    When the ring wraps, the oldest events are overwritten and
    [dropped] counts them — overflow is reported, never silent. *)

(** {1 Events} *)

type fault = Drop | Corrupt | Duplicate | Delay_spike

(** Why a block left the tcache. *)
type evict_reason =
  | Victim  (** chosen by the replacement policy or the FIFO sweep *)
  | Collateral
      (** overlapped by a placement seeded at another block's address *)
  | Stub_growth  (** run over by the growing persistent-stub area *)
  | Invalidated  (** [Controller.invalidate] — self-modifying code *)
  | Flushed  (** whole-tcache flush *)

type event =
  | Cc_miss of { pc : int }  (** trap taken on a non-resident target *)
  | Cc_translated of { chunk : int; base : int; words : int }
      (** chunk [chunk] rewritten into the tcache at [base] *)
  | Cc_backpatch of { site : int; target : int }
      (** exit at [site] rewritten to jump straight to [target] *)
  | Cc_unpatch of { site : int; target : int }
      (** patched exit at [site] reverted to its miss stub because the
          block at [target] is being evicted *)
  | Cc_promote of { head : int; members : int; bytes : int }
      (** hot chain starting at chunk [head] fused into a contiguous
          superblock of [members] blocks occupying [bytes] *)
  | Cc_depromote of { head : int; members : int }
      (** superblock dissolved (a member was evicted); survivors revert
          to independent baseline blocks *)
  | Cc_evict of {
      chunk : int;
      base : int;
      bytes : int;
      incoming : int;
      reason : evict_reason;
    }
      (** block unlinked ([incoming] = inbound sites reverted);
          [reason] says why it died and is exported as its
          {!evict_reason_name} *)
  | Cc_flush of { chunks : int }  (** whole-tcache flush of [chunks] chunks *)
  | Cc_invalidate of { chunks : int }
      (** image-write invalidation dropping [chunks] chunks *)
  | Cc_staged_install of { chunk : int }
      (** prefetched chunk installed from the staging buffer *)
  | Cc_retry of { chunk : int; attempt : int }
      (** re-request after a dropped or corrupted frame *)
  | Cc_degrade of { chunk : int; bytes : int }
      (** the function at [chunk] fell back from function to block
          granularity — its whole-body unit of [bytes] could not be
          cached (oversized, non-contiguously decodable, or larger
          than the tcache can ever hold) *)
  | Tc_alloc of { chunk : int; base : int; bytes : int }
      (** tcache placement decision for a chunk body *)
  | Net_send of { bytes : int; segments : int }
      (** frame put on the wire ([segments] > 1 for a batched frame) *)
  | Net_recv of { bytes : int; cycles : int }
      (** frame delivered after [cycles] on the wire *)
  | Net_fault of { fault : fault }  (** scheduled fault fired *)
  | Fl_request of { client : int; chunk : int }
      (** a fleet session's demand fetch reached the shared MC *)
  | Fl_coalesce of { client : int; chunk : int; wait : int }
      (** the request joined an in-flight frame for identical content:
          no new wire traffic, [wait] cycles until that frame lands *)
  | Fl_frame of { client : int; segments : int; queued : int }
      (** a frame dispatched on the shared link for this client after
          [queued] cycles waiting for the link to free up *)
  | Fl_piggyback of { client : int; bytes : int }
      (** the request rode a frame still occupying the link, adding
          [bytes] of rider segments at marginal wire cost *)
  | Fl_stall of { client : int; cycles : int }
      (** one client-observed transport stall sample of [cycles],
          emitted exactly where the fleet records it for the per-client
          stall percentiles — the trace view of the summary's p50/p99 *)
  | Sh_fill of { hart : int; chunk : int; wait : int }
      (** a hart missed an absent chunk and owned its fill; [wait] is
          the MC-serialization wait paid before the request was
          issued *)
  | Sh_coalesce of { hart : int; chunk : int; wait : int }
      (** a duplicate miss joined another hart's in-flight fill
          instead of re-requesting over the wire *)
  | Dc_specialise of { site : int }  (** site rewritten to a direct access *)
  | Dc_deopt of { site : int }  (** specialised site torn down *)
  | Dc_miss of { addr : int }  (** software data cache miss *)
  | Dc_spill of { words : int }  (** scache frame spilled to memory *)
  | Dc_refill of { words : int }  (** scache frame refilled *)

val event_type : event -> string
(** Stable snake_case tag, e.g. ["cc_miss"] — the ["type"] field of the
    JSONL schema and the Chrome event name. *)

val evict_reason_name : evict_reason -> string
(** Stable lowercase name: ["victim"], ["collateral"], ["stub_growth"],
    ["invalidated"] or ["flushed"]. *)

val exemplars : event list
(** One event of every constructor. The schema validator reads each
    type's field names off its exemplar, so the exporters and the
    validator share one table. *)

val pp_event : Format.formatter -> event -> unit

(** {1 Tracer} *)

type t

val create : ?limit:int -> unit -> t
(** Ring capacity [limit] (default 65536, must be > 0).
    @raise Invalid_argument if [limit <= 0]. *)

val set_clock : t -> (unit -> int) -> unit
(** Install the cycle source (normally [fun () -> cpu.cycles]); also
    re-bases the attribution ledger at the clock's current value. *)

val emit : t -> event -> unit
(** Record one event at the current clock. Never raises, never touches
    simulator state. *)

val events : t -> (int * event) list
(** Retained [(cycle, event)] pairs, chronological. At most [capacity]
    entries; the oldest are dropped first on overflow. *)

val emitted : t -> int
(** Total events recorded, including overwritten ones. *)

val dropped : t -> int
(** Events lost to ring overflow: [max 0 (emitted - capacity)]. *)

val capacity : t -> int

(** {1 Cycle attribution}

    The ledger splits the CPU cycle counter by cause. Explicit charges
    are labelled at the charge site ([attribute] before the charge
    lands, [attribute_included] after — used for the trap-dispatch cost
    the CPU adds itself); everything between two labelled charges is
    ordinary execution and is swept into [execute] as the residual.
    [sync] folds the residual up to the present; it is idempotent and
    called implicitly by [summary] and [conserved]. *)

type category =
  | Execute  (** instruction execution (the residual) *)
  | Translate  (** miss bookkeeping + per-word rewriting *)
  | Wire  (** interconnect latency, backoff, timeouts *)
  | Trap  (** trap dispatch into the CC *)
  | Dcache  (** software data-cache overhead *)
  | Patch  (** code-word rewrites: backpatch, unlink, stubs *)
  | Scrub  (** stack scans for live landing pads *)
  | Lookup  (** tcache-map hash probes *)

val attribute : t -> category -> int -> unit
(** [attribute t cat c]: charge of [c] cycles about to land on the CPU
    counter belongs to [cat]. *)

val attribute_included : t -> category -> int -> unit
(** Like [attribute], for a charge of [c] cycles that is already
    included in the current clock value. *)

val sync : t -> unit

type summary = {
  s_execute : int;
  s_translate : int;
  s_wire : int;
  s_trap : int;
  s_dcache : int;
  s_patch : int;
  s_scrub : int;
  s_lookup : int;
  s_total : int;  (** sum of all categories *)
  s_emitted : int;
  s_dropped : int;
  s_capacity : int;
}

val summary : t -> summary

val conserved : t -> total:int -> bool
(** [conserved t ~total] — do the attributed categories sum exactly to
    [total] (the CPU cycle counter)? The conservation law checked by
    [Check.Audit]. *)

(** {1 Exporters} *)

val to_jsonl : t -> string
(** One JSON object per line:
    [{"cycle":C,"type":"cc_miss","pc":N}]. *)

val to_chrome : t -> string
(** Chrome trace-event JSON (open in Perfetto / [chrome://tracing]):
    one instant event per ring entry on a per-layer thread, plus
    per-chunk tcache-residency intervals as async spans ([ph:"b"/"e"])
    reconstructed from translate / evict / flush events. Timestamps are
    cycles, and events are emitted in stamp order (stably, so a ring
    stamped from one clock keeps its recording order) — a multi-hart
    ring, stamped from whichever hart is active, renders valid too. *)

val export : t -> format:[ `Jsonl | `Chrome ] -> string -> unit
(** Write the chosen rendering to a file. *)

(** {1 JSON utilities}

    A dependency-free JSON parser, enough to validate our own
    exports — the test suite and the bench smoke gate check every JSONL
    line against the event schema and the Chrome export for
    well-formedness and timestamp monotonicity. *)

module Json : sig
  type value =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of value list
    | Obj of (string * value) list

  val parse : string -> (value, string) result
  (** Parse a complete JSON document (trailing whitespace allowed). *)

  val member : string -> value -> value option
  (** Field lookup in an [Obj]. *)
end

module Schema : sig
  val validate_jsonl_line : string -> (unit, string) result
  (** Is this line a well-formed event object: a ["cycle"] >= 0, a
      known ["type"], exactly the fields that type requires? *)

  val validate_jsonl : string -> (int, string) result
  (** Validate every non-empty line; returns the number of events or
      the first error (prefixed with its line number). *)

  val validate_chrome : string -> (int, string) result
  (** Well-formed JSON, a ["traceEvents"] array whose entries carry
      [name]/[ph]/[pid]/[tid], with ["ts"] nondecreasing across the
      file and every async begin matched by an end. Returns the number
      of trace events. *)
end
