(** SoftCache statistics.

    [translations] is the paper's miss count: "the software miss rate is
    the number of basic blocks translated divided by the number of
    instructions executed" (Fig. 7). The cycle-stamped paging activity
    behind Fig. 8 is not kept here: observe it through
    [Controller.on_event] ([Evicted n]). *)

val age_buckets : int
(** Number of log2 buckets in the victim-age histogram (32). *)

type t = {
  mutable translations : int;  (** chunks translated = misses *)
  mutable translated_words : int;  (** words emitted into the tcache *)
  mutable overhead_words : int;
      (** emitted words beyond the original instruction count (pads,
          islands, fall-through slots) *)
  mutable lookups : int;  (** runtime hash-table lookups *)
  mutable traps : int;
      (** stub traps dispatched — every controller-mediated control
          transfer (exit misses, computed jumps, indirect calls, return
          stubs); the trap-elimination metric chaining is gated on *)
  mutable patches : int;  (** words rewritten to point into the tcache *)
  mutable chained : int;
      (** eager chain patches: exits patched at target-install time
          rather than on their own first trap (subset of [patches]) *)
  mutable reverts : int;  (** words rewritten back to miss stubs (unpatches) *)
  mutable superblocks : int;  (** hot chains promoted to superblocks *)
  mutable superblock_blocks : int;
      (** total member blocks across all promotions *)
  mutable depromotions : int;
      (** superblocks dissolved because a member was evicted *)
  mutable superblock_guard_skips : int;
      (** promotions skipped by the churn guard because the profiled
          working set sits at the tcache knee, where group reservations
          mass-evict established blocks (see
          [Cc_translate.promotion_guarded]) *)
  mutable superblock_collateral_reverts : int;
      (** patched branches reverted while carving superblock
          reservations (subset of [reverts]); diagnostic for how much
          live chain linkage group reservations tear down *)
  mutable evicted_blocks : int;
  mutable flushes : int;  (** whole-tcache invalidations *)
  mutable scrubbed_words : int;  (** stack words scanned for live pads *)
  mutable ret_stubs : int;  (** persistent return stubs created *)
  mutable plt_slots : int;  (** persistent PLT slots created (function mode) *)
  mutable plt_patches : int;
      (** PLT slot specialisations — slot words patched from trap to
          direct jump, at install time or on a slot trap (subset of
          [patches]) *)
  mutable gran_degraded : int;
      (** functions degraded from function to block granularity because
          their whole-body unit could not be cached *)
  mutable max_resident_blocks : int;
  mutable max_occupied_bytes : int;
  mutable net_retries : int;  (** chunk re-requests after a transport fault *)
  mutable net_timeouts : int;  (** dropped frames the CC waited out *)
  mutable crc_failures : int;  (** chunks rejected by the CRC32 check *)
  mutable recoveries : int;
      (** chunks eventually delivered intact after at least one retry *)
  mutable chunk_failures : int;
      (** chunks given up on after the retry budget was exhausted *)
  mutable max_chunk_retries : int;
      (** worst retry count any single chunk needed *)
  mutable prefetch_issued : int;
      (** chunks the MC shipped speculatively alongside demand misses *)
  mutable prefetch_installs : int;
      (** staged chunks later installed on first touch (useful prefetch) *)
  mutable prefetch_wasted : int;
      (** staged chunks discarded without ever being touched *)
  mutable prefetch_crc_failures : int;
      (** staged chunks rejected by the install-time CRC check *)
  mutable batches : int;  (** demand frames that carried ≥ 1 prefetch *)
  mutable batch_chunks : int;  (** total chunks shipped across batches *)
  mutable max_batch_chunks : int;  (** largest single batched frame *)
  mutable policy_entries : int;
      (** block-entry (hit) events the replacement policy observed —
          the controller-mediated entries only, never one per
          instruction *)
  mutable evicted_victim : int;
      (** blocks evicted because the policy (or the FIFO sweep) chose
          them *)
  mutable evicted_collateral : int;
      (** blocks overlapped by a placement seeded at another victim *)
  mutable evicted_stub_growth : int;
      (** blocks run over by the growing persistent-stub area *)
  mutable evicted_invalidated : int;  (** [Controller.invalidate] range hits *)
  mutable evicted_flushed : int;  (** unpinned residents of a flush *)
  mutable fills : int;
      (** multi-hart fills: misses on an absent chunk that owned a
          wire fetch; 0 in solo runs, where the fill machinery is
          bypassed *)
  mutable fills_coalesced : int;
      (** duplicate misses from other harts that joined an in-flight
          fill instead of re-requesting over the wire *)
  mutable fill_wait_cycles : int;
      (** cycles harts spent suspended on fills owned by other harts *)
  mutable mc_wait_cycles : int;
      (** cycles harts spent waiting for the shared MC link to free up
          before issuing their own fill *)
  victim_age_hist : int array;
      (** log2-bucketed cycles-resident-at-eviction; use
          [record_victim_age] / [victim_ages], not the raw array *)
}

val create : unit -> t

val miss_rate : t -> retired:int -> float
(** Translations per retired instruction — the Fig. 7 metric. *)

val record_victim_age : t -> age:int -> unit
(** Record one evicted block's residency span (cycles between install
    and eviction) into the log2 histogram; bucket [k] holds ages in
    [2^k, 2^(k+1)), the last bucket saturates. *)

val victim_ages : t -> (int * int) list
(** Non-empty histogram buckets as [(2^k, count)] pairs, ascending. *)

val pp : Format.formatter -> t -> unit
(** One summary line, then one line per active subsystem (transport,
    prefetch, chaining, plt, policy, harts). The policy line ends with
    the victim-age histogram as ["lo+:count"] pairs. *)
