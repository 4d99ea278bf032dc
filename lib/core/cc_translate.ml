(* The miss path: chunk acquisition (staged prefetch or the wire),
   placement in the tcache under the configured replacement policy,
   rewriting, and installation. [alloc] and [Policy.victim] are the
   only readers of [Config.eviction] in the whole controller. *)

open Cc_state

(* Find room for [words_needed] words under an evicting policy.

   Free space first: placing at the sweep point without evicting keeps
   the policy out of the loop while the cache is filling (a policy
   victim exists as soon as anything is resident — consulting it on a
   cold cache would evict needlessly). Only when the sweep point is
   blocked does the policy pick the victim; seeding the circular sweep
   at the victim's placement reclaims that block first, and anything
   else the placement runs over is collateral.

   Processing the evictions can grow the persistent stub area down into
   the range we just reserved (stack scrubbing creates return stubs);
   re-allocate until the placement is clear, bounded by
   [t.alloc_guard] rounds. *)
let alloc_evicting t ~vaddr ~words_needed =
  let shard = Tcache.home_shard t.tc vaddr in
  let sh_lo, sh_top = Tcache.shard_bounds t.tc shard in
  let rec alloc_loop guard =
    if guard = 0 then
      raise
        (Alloc_guard_exhausted
           {
             loops = t.alloc_guard;
             base = sh_lo;
             persist_base = Tcache.persist_base ~shard t.tc;
             top = sh_top;
           })
    else begin
      let p, victims, chosen =
        match Tcache.alloc_append ~shard t.tc ~words:words_needed with
        | Ok p -> (p, [], None)
        | Error `Too_large -> raise (Chunk_too_large vaddr)
        | Error `Full -> (
          let chosen = Policy.victim t.cfg.eviction ~shard t.tc in
          match
            Tcache.alloc ~shard
              ?seed:(Option.map (fun (vb : Tcache.block) -> vb.paddr) chosen)
              t.tc ~words:words_needed
          with
          | Error `Too_large -> raise (Chunk_too_large vaddr)
          | Error `Full -> raise Tcache_too_small
          | Ok (p, victims) -> (p, victims, chosen))
      in
      (* label the victims: the block the policy chose — or, when the
         sweep chose implicitly, the lowest-placed block the placement
         ran over, the head of [victims] (ascending paddr) — is the
         victim; everything else the placement consumed is collateral.
         (Labelling every implicit-sweep victim [Victim] was a latent
         bug: multi-block placements hid their collateral damage from
         policies, stats and auditors.) *)
      let primary =
        match (chosen, victims) with
        | Some (vb : Tcache.block), _ -> vb.id
        | None, (v0 : Tcache.block) :: _ -> v0.id
        | None, [] -> -1
      in
      Cc_evict.process_evicted t victims
        ~reason_of:(fun (b : Tcache.block) ->
          if b.id = primary then Policy.Victim else Policy.Collateral);
      if p + (4 * words_needed) <= Tcache.persist_base ~shard t.tc then p
      else alloc_loop (guard - 1)
    end
  in
  alloc_loop t.alloc_guard

(* Flush-all never evicts single blocks: append until the region is
   exhausted, then flush everything and retry once. *)
let alloc_flushing t ~vaddr ~words_needed =
  let shard = Tcache.home_shard t.tc vaddr in
  match Tcache.alloc_append ~shard t.tc ~words:words_needed with
  | Ok p -> p
  | Error `Too_large -> raise (Chunk_too_large vaddr)
  | Error `Full -> (
    Cc_evict.do_flush t;
    match Tcache.alloc_append ~shard t.tc ~words:words_needed with
    | Ok p -> p
    | Error `Too_large -> raise (Chunk_too_large vaddr)
    | Error `Full ->
      (* post-flush only pinned blocks remain in the way: a chunk
         that fits the region's capacity is being crowded out *)
      raise Tcache_too_small)

let alloc t ~vaddr ~words_needed =
  match t.cfg.eviction with
  | Config.Flush_all -> alloc_flushing t ~vaddr ~words_needed
  | Config.Fifo | Config.Lru | Config.Trrip ->
    alloc_evicting t ~vaddr ~words_needed

(* Translate one chunk. [placed] hands in a pre-reserved placement
   (superblock group allocation) instead of allocating here. *)
let translate_unit ?placed t v =
  if tracing t then trace t (Trace.Cc_miss { pc = v });
  (* a staged prefetched copy of this chunk skips the wire entirely;
     a corrupted one is discarded and the miss pays the round trip *)
  let chunk, from_staging =
    match Cc_staging.take_staged t v with
    | None -> (chunk_for t v, false)
    | Some s -> (
      match Cc_staging.chunk_of_staged v s with
      | Some c ->
        t.stats.prefetch_installs <- t.stats.prefetch_installs + 1;
        trace t (Trace.Cc_staged_install { chunk = v });
        (c, true)
      | None ->
        t.stats.prefetch_crc_failures <- t.stats.prefetch_crc_failures + 1;
        (chunk_for t v, false))
  in
  (* function granularity: every external callee of this unit calls
     through a persistent PLT slot. The slots must exist before layout
     (they determine which external [Jal]s need islands) and before
     placement (growing the slot area during translation could evict a
     block the rewriter already bound against). *)
  if t.cfg.granularity = Config.Function then
    List.iter
      (fun fv -> ignore (Cc_evict.persistent_slot t ~plt:true fv))
      (Chunker.call_targets t.image chunk);
  let plt_of =
    match t.cfg.granularity with
    | Config.Block -> None
    | Config.Function ->
      Some (fun tv -> Option.map fst (Hashtbl.find_opt t.plt tv))
  in
  let layout = Rewriter.layout ?plt_of chunk in
  let words_needed = Rewriter.words layout in
  let base =
    match placed with
    | Some base -> base
    | None -> alloc t ~vaddr:v ~words_needed
  in
  if tracing t then
    trace t (Trace.Tc_alloc { chunk = v; base; bytes = 4 * words_needed });
  let id = t.next_block_id in
  t.next_block_id <- id + 1;
  let resident =
    if t.cfg.bind_at_translate then resident_oracle t else fun _ -> None
  in
  let allocated = ref [] in
  let alloc_stub make =
    let k = add_stub t make in
    allocated := k :: !allocated;
    k
  in
  let emission =
    Rewriter.translate layout ~block_id:id ~base ~resident ~alloc_stub
  in
  (* the rewritten words travel MC -> CC over the link (unless a staged
     prefetch already delivered the chunk body); a chunk that cannot be
     delivered intact within the retry budget must leave the cache
     state exactly as it was (minus any evictions already done) *)
  let delivered =
    if from_staging then emission.payload
    else
      let prefetch =
        List.map
          (fun (c : Chunker.t) -> (c.vaddr, Chunker.to_bytes c))
          (Cc_staging.prefetch_candidates t chunk)
      in
      match
        Cc_staging.fetch_chunk t ~vaddr:v ~payload:emission.payload ~prefetch
      with
      | d -> d
      | exception (Chunk_unavailable _ as e) ->
        free_stub_list t !allocated;
        raise e
  in
  write_payload t base delivered;
  let emitted = words_needed in
  let orig_words = chunk.len in
  let block =
    {
      Tcache.id;
      vaddr = v;
      paddr = base;
      words = emitted;
      orig_words;
      incoming = [];
      pads = emission.pads;
      resume = emission.resume;
      stubs = !allocated;
      installed_at = t.cpu.cycles;
      seq = Tcache.tick t.tc;
      entered = -1;
      prior =
        (match t.temperature with
        | Some f ->
          Policy.rrpv_of_temperature (f ~lo:v ~hi:(v + (4 * orig_words)))
        | None -> 3);
    }
  in
  Tcache.register t.tc block;
  (* each bound target is still resident: between translation and here
     only delivery, rider staging, [write_payload] and [register] ran,
     and none of them evicts *)
  List.iter
    (fun (target_block, site_paddr, revert_word, stub) ->
      record_incoming target_block ~from_block:id ~site_paddr ~revert_word
        ~stub)
    emission.bound;
  if debug_logging () then
    Log.debug (fun m ->
        m "translate v=0x%x -> @0x%x (%d words, id=%d)" v base emitted id);
  t.stats.translations <- t.stats.translations + 1;
  t.stats.translated_words <- t.stats.translated_words + emitted;
  t.stats.overhead_words <- t.stats.overhead_words + emission.overhead_words;
  t.stats.max_resident_blocks <-
    max t.stats.max_resident_blocks (Tcache.resident_blocks t.tc);
  t.stats.max_occupied_bytes <-
    max t.stats.max_occupied_bytes (Tcache.occupied_bytes t.tc);
  charge t Trace.Translate
    (Config.miss_fixed_cycles + (Config.translate_cycles_per_word * emitted));
  if tracing t then
    trace t (Trace.Cc_translated { chunk = v; base; words = emitted });
  if listening t then emit_event t (Translated v);
  (* function granularity: specialise this unit's own PLT slot into a
     direct jump. Unconditional — the unit was absent a moment ago, so
     its slot (if any) is trapping — and byte-reversible: the incoming
     record restores the trap when the unit is evicted. *)
  (if t.cfg.granularity = Config.Function then
     match Hashtbl.find_opt t.plt v with
     | Some (slot, k) -> specialise_slot t ~slot k block
     | None -> ());
  (* eager chaining: patch every exit already waiting for this chunk *)
  Cc_chain.chain_install t block;
  block

(* The degradation rule: a whole-function unit the tcache can never
   hold must not abort the run — the function falls back to block
   granularity (sticky, via [gran_degraded]) and the miss retranslates
   small. Only a genuinely-too-large *block* still raises. *)
let rec translate_one ?placed t v =
  try translate_unit ?placed t v with
  | Chunk_too_large a
    when a = v
         && t.cfg.granularity = Config.Function
         && not (in_degraded_extent t v) ->
    (match Chunker.chunk_function t.image v with
    | c -> record_degraded t v (v + Chunker.span_bytes c)
    | exception _ -> record_degraded t v (v + 4));
    translate_one ?placed t v

(* Follow the profile's hottest-successor edges from [v] while they
   stay at or above the temperature threshold, collecting the chain a
   superblock would fuse. Stops at already-resident chunks (their
   placement is fixed), repeats, unchunkable successors, and
   [max_superblock_members]. *)
let superblock_chain t v =
  match t.chain_oracle with
  | None -> [ v ]
  | Some oracle ->
    let threshold = t.cfg.superblock_threshold in
    let rec grow acc cur n =
      if n = 0 then List.rev acc
      else
        match oracle cur with
        | Some (succ, heat)
          when heat >= threshold
               && (not (List.mem succ acc))
               && Tcache.lookup t.tc succ = None -> (
          match Chunker.chunk_at t.image t.cfg.chunking succ with
          | exception _ -> List.rev acc
          | _ -> grow (succ :: acc) succ (n - 1))
        | _ -> List.rev acc
    in
    grow [ v ] v (Cc_chain.max_superblock_members - 1)

(* Churn guard for superblock promotion — the working-set-knee fix. A
   superblock's contiguous reservation is large; at full occupancy,
   carving it out mass-evicts whatever stands in its way. Whether that
   is tolerable depends on the regime. In deep thrash (capacity far
   below the working set) residents turn over fast and die before
   they accumulate incoming patches; the reservation's victims were
   about to die anyway and fusing the hot chain is a large net win.
   When the working set fits outright, reservations evict nothing and
   promotions are free. At the knee in between, the resident set *is*
   the working set: blocks live long enough to become richly chained,
   every block a reservation kills traps straight back in, and the
   re-installs trigger further promotions — pure churn (mpeg2enc at
   16 KB paid +66% traps over chain-only for exactly this).

   The knee is identified offline, from the same profile that feeds
   the chain oracle: promotion is suppressed when the profiled
   dynamic text (distinct executed source bytes) is between 0.6x and
   1.2x the tcache size — with the rewriter's measured ~1.6-2x code
   expansion, that is precisely the band where the rewritten working
   set marginally exceeds capacity. On the workload suite the regimes
   separate cleanly in those units: working-set fit sits at <= 0.45x
   (compress95 at 16 KB, where promotion halves residual traps),
   the knee at ~0.8x (mpeg2enc at 16 KB), deep thrash at >= 1.6x
   (everything at 2-4 KB, where promotion cuts traps by half or
   more).

   An offline verdict is deliberate: no online churn statistic
   managed to make this call, because the promotion storm poisons
   every signal that would detect it. Global revert-per-eviction
   ratio and resident-age quantiles separate the regimes 10x under
   chain-only dynamics, but promotions begin at the very first traps
   of a cold run, and storm-churned victims die young and unlinked —
   the knee run measurably never develops the signal (the guard sat
   at zero fires). Attributing reverts to group reservations alone
   fails the same way: knee reservations usually carve transiently
   free space (the storm keeps occupancy oscillating) and the
   eviction damage lands on later ordinary allocations. And recency
   at trap granularity is inverted: a chained hot block re-enters
   through patched branches the controller never sees, so the
   longest-lived blocks have the stalest controller-visible
   entries. *)
let promotion_guarded t =
  match t.dynamic_text_hint with
  | None -> false
  | Some text ->
    let c = t.cfg.tcache_bytes in
    5 * text >= 3 * c && 5 * text <= 6 * c

(* Promote a hot chain: one contiguous reservation sized for every
   member, then the members install adjacently in chain order.
   Backward edges bind at translate time (the earlier members are
   resident by then) and forward edges chain eagerly as each member
   lands, so the whole group runs trap-free internally from the start.
   Any sizing or reservation failure abandons the promotion and the
   caller falls back to a plain translation. *)
let translate_superblock t v members =
  match
    List.map
      (fun m ->
        (m, Rewriter.layout_words (Chunker.chunk_at t.image t.cfg.chunking m)))
      members
  with
  | exception _ -> None
  | sized -> (
    let total = List.fold_left (fun a (_, w) -> a + w) 0 sized in
    if promotion_guarded t then begin
      t.stats.superblock_guard_skips <- t.stats.superblock_guard_skips + 1;
      None
    end
    else
    let reverts_before = t.stats.reverts in
    match alloc t ~vaddr:v ~words_needed:total with
    | exception (Chunk_too_large _ | Tcache_too_small) -> None
    | base ->
      t.stats.superblock_collateral_reverts <-
        t.stats.superblock_collateral_reverts
        + (t.stats.reverts - reverts_before);
      let _, rev_blocks =
        List.fold_left
          (fun (off, acc) (m, w) ->
            let b = translate_one ~placed:(base + (4 * off)) t m in
            (off + w, b :: acc))
          (0, []) sized
      in
      let blocks = List.rev rev_blocks in
      ignore (Cc_chain.register_superblock t ~head:v blocks);
      (match blocks with b :: _ -> Some b | [] -> None))

let translate t v =
  (* superblock promotion fuses hot block chains; whole-function units
     already subsume it, so function granularity takes the plain path *)
  if t.cfg.superblock_threshold > 0 && t.cfg.granularity = Config.Block then
    match superblock_chain t v with
    | [] | [ _ ] -> translate_one t v
    | members -> (
      match translate_superblock t v members with
      | Some b -> b
      | None -> translate_one t v)
  else translate_one t v

(* The single block-entry observation point. Every control transfer the
   controller mediates — computed jumps, indirect calls, return stubs,
   unresolved direct exits — lands here; transfers along already-patched
   direct branches never trap, so the policy cannot see them. That is
   the paper's bargain made explicit: the cache state is encoded in the
   branches, so recency is observed only at trap granularity, at zero
   per-instruction cost. *)
let ensure_resident t v =
  match Tcache.lookup t.tc v with
  | Some b ->
    b.entered <- Tcache.tick t.tc;
    t.stats.policy_entries <- t.stats.policy_entries + 1;
    b
  | None -> translate t v
