(** MC <-> CC interconnect model.

    The ARM prototype measured "60 application bytes (not counting
    Ethernet framing)" of protocol overhead per code chunk exchanged
    between cache controller and memory controller. This channel charges
    a fixed request/response latency plus a per-byte cost, and accounts
    messages, payload bytes and total bytes, so benches can report the
    paper's network-overhead numbers.

    A networked deployment also sees faults. [Faults] describes a
    deterministic, seedable per-message fault schedule — drop, payload
    corruption, spurious duplication, latency spikes — and
    [transfer_batch] delivers real payload bytes through it, so the controller's CRC /
    retry / timeout machinery can be exercised reproducibly. *)

module Rng : sig
  (** Deterministic splitmix64 stream, independent of [Stdlib.Random]. *)

  type t

  val create : int -> t
  val float : t -> float  (** uniform in [0, 1) *)

  val int : t -> int -> int  (** uniform in [0, bound) *)
end

module Faults : sig
  type t = private {
    seed : int;
    drop : float;  (** P(frame lost in flight) *)
    corrupt : float;  (** P(one payload bit flipped) *)
    duplicate : float;  (** P(frame retransmitted spuriously) *)
    delay_spike : float;  (** P(delivery delayed by [spike_cycles]) *)
    spike_cycles : int;
  }

  val none : t
  (** The fault-free schedule (all probabilities zero). *)

  val make :
    ?seed:int ->
    ?drop:float ->
    ?corrupt:float ->
    ?duplicate:float ->
    ?delay_spike:float ->
    ?spike_cycles:int ->
    unit ->
    t
  (** @raise Invalid_argument if a probability is outside [0, 1]. *)

  val is_none : t -> bool
  val pp : Format.formatter -> t -> unit
end

type t

val create :
  ?latency_cycles:int ->
  ?cycles_per_byte:int ->
  ?overhead_bytes:int ->
  ?faults:Faults.t ->
  unit ->
  t
(** Defaults are the [local] preset (all zeros) with no faults. *)

val local : ?faults:Faults.t -> unit -> t
(** The SPARC prototype: MC and CC in the same address space —
    communication "by jumping back and forth", no network cost. *)

val ethernet_10mbps : ?cpu_mhz:int -> ?faults:Faults.t -> unit -> t
(** The ARM prototype's link: two Skiff boards on 10 Mbps Ethernet,
     200 MHz SA-110 by default. 10 Mbps = 1.25 MB/s = 160 cycles/byte at
    200 MHz; round-trip latency modelled as 0.5 ms = 100k cycles;
    60 bytes protocol overhead per chunk. *)

val request : t -> payload_bytes:int -> int
(** Cost in cycles of one MC round trip delivering [payload_bytes] of
    application data; accounts the message. Never faulted — the legacy
    pure-cost path used where payload content does not matter. *)

type error = [ `Dropped of int ]
(** The frame was lost; the payload carries the cycles already burned
    on the wire before the receiver could give up. *)

val transfer_batch :
  t -> payloads:Bytes.t list -> (int * Bytes.t list, error) result
(** One MC round trip carrying one or more payload segments in a
    single frame through the fault schedule: latency and per-message
    overhead are paid once for the whole batch. [Ok (cycles, received)]
    delivers the (possibly bit-flipped) segments; [Error (`Dropped
    cycles)] models a lost frame. Faults apply to the frame as a unit
    (a drop loses every segment; a corruption flips one bit somewhere
    in the concatenated payload). Duplicates and delay spikes only add
    cost and accounting; a dropped frame's spurious retransmission is
    lost with it (only the drop is counted). Deterministic given the
    [Faults.seed] and the call sequence: how the bytes are split into
    segments changes neither the cost nor the rng draw stream. *)

val transfer_piggyback : t -> payloads:Bytes.t list -> int * Bytes.t list
(** Rider segments appended to a frame already occupying the link
    (fleet frame batching across clients). The host frame paid latency
    and per-message overhead, so the rider costs only the marginal wire
    time of its own bytes and accounts {e no} new message — just
    payload. A rider shares its host frame's fate: there is no
    independent drop, duplicate or delay roll (callers only piggyback
    onto frames known delivered), but the rider's bytes take their own
    corruption roll. Cannot fail; returns [(cycles, segments)]. *)

val messages : t -> int
val payload_bytes : t -> int
val total_bytes : t -> int
(** Payload plus per-message protocol overhead. *)

val overhead_bytes_per_message : t -> int

val drops : t -> int
val corruptions : t -> int
val duplicates : t -> int
val delay_spikes : t -> int

val reset_stats : t -> unit

val set_tracer : t -> Trace.t option -> unit
(** Attach (or detach) a structured-event observer: every frame put on
    the wire, every delivery and every scheduled fault that fires is
    recorded in the ring, cycle-stamped by the tracer's own clock.
    Purely observational — counters, costs and the rng draw stream are
    untouched, so a traced channel behaves identically to an untraced
    one. *)

val pp : Format.formatter -> t -> unit
