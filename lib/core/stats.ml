let age_buckets = 32

type t = {
  mutable translations : int;
  mutable translated_words : int;
  mutable overhead_words : int;
  mutable lookups : int;
  mutable traps : int;
  mutable patches : int;
  mutable chained : int;
  mutable reverts : int;
  mutable superblocks : int;
  mutable superblock_blocks : int;
  mutable depromotions : int;
  mutable superblock_guard_skips : int;
  mutable superblock_collateral_reverts : int;
  mutable evicted_blocks : int;
  mutable flushes : int;
  mutable scrubbed_words : int;
  mutable ret_stubs : int;
  mutable plt_slots : int;
  mutable plt_patches : int;
  mutable gran_degraded : int;
  mutable max_resident_blocks : int;
  mutable max_occupied_bytes : int;
  mutable net_retries : int;
  mutable net_timeouts : int;
  mutable crc_failures : int;
  mutable recoveries : int;
  mutable chunk_failures : int;
  mutable max_chunk_retries : int;
  mutable prefetch_issued : int;
  mutable prefetch_installs : int;
  mutable prefetch_wasted : int;
  mutable prefetch_crc_failures : int;
  mutable batches : int;
  mutable batch_chunks : int;
  mutable max_batch_chunks : int;
  mutable policy_entries : int;
  mutable evicted_victim : int;
  mutable evicted_collateral : int;
  mutable evicted_stub_growth : int;
  mutable evicted_invalidated : int;
  mutable evicted_flushed : int;
  mutable fills : int;
  mutable fills_coalesced : int;
  mutable fill_wait_cycles : int;
  mutable mc_wait_cycles : int;
  victim_age_hist : int array;
}

let create () =
  {
    translations = 0;
    translated_words = 0;
    overhead_words = 0;
    lookups = 0;
    traps = 0;
    patches = 0;
    chained = 0;
    reverts = 0;
    superblocks = 0;
    superblock_blocks = 0;
    depromotions = 0;
    superblock_guard_skips = 0;
    superblock_collateral_reverts = 0;
    evicted_blocks = 0;
    flushes = 0;
    scrubbed_words = 0;
    ret_stubs = 0;
    plt_slots = 0;
    plt_patches = 0;
    gran_degraded = 0;
    max_resident_blocks = 0;
    max_occupied_bytes = 0;
    net_retries = 0;
    net_timeouts = 0;
    crc_failures = 0;
    recoveries = 0;
    chunk_failures = 0;
    max_chunk_retries = 0;
    prefetch_issued = 0;
    prefetch_installs = 0;
    prefetch_wasted = 0;
    prefetch_crc_failures = 0;
    batches = 0;
    batch_chunks = 0;
    max_batch_chunks = 0;
    policy_entries = 0;
    evicted_victim = 0;
    evicted_collateral = 0;
    evicted_stub_growth = 0;
    evicted_invalidated = 0;
    evicted_flushed = 0;
    fills = 0;
    fills_coalesced = 0;
    fill_wait_cycles = 0;
    mc_wait_cycles = 0;
    victim_age_hist = Array.make age_buckets 0;
  }

let miss_rate t ~retired =
  if retired = 0 then 0.0
  else float_of_int t.translations /. float_of_int retired

(* Victim ages land in log2 buckets: bucket k holds ages in
   [2^k, 2^(k+1)), bucket 0 also takes age <= 1, the last bucket
   saturates. Cheap enough for every eviction, wide enough for any
   plausible cycle count. *)
let record_victim_age t ~age =
  let k =
    if age <= 1 then 0 else min (age_buckets - 1) (Bitmath.floor_log2 age)
  in
  t.victim_age_hist.(k) <- t.victim_age_hist.(k) + 1

let victim_ages t =
  let rec go k acc =
    if k < 0 then acc
    else
      let n = t.victim_age_hist.(k) in
      go (k - 1) (if n = 0 then acc else (1 lsl k, n) :: acc)
  in
  go (age_buckets - 1) []

let pp ppf t =
  Format.fprintf ppf
    "translations=%d words=%d (overhead %d), lookups=%d, patches=%d, \
     reverts=%d, evicted=%d, flushes=%d, scrubbed=%d, ret-stubs=%d, \
     peak=%d blocks/%d B"
    t.translations t.translated_words t.overhead_words t.lookups t.patches
    t.reverts t.evicted_blocks t.flushes t.scrubbed_words t.ret_stubs
    t.max_resident_blocks t.max_occupied_bytes;
  if
    t.net_retries > 0 || t.net_timeouts > 0 || t.crc_failures > 0
    || t.chunk_failures > 0
  then
    Format.fprintf ppf
      "@.transport: retries=%d (max %d/chunk), timeouts=%d, crc-fail=%d, \
       recovered=%d, unavailable=%d"
      t.net_retries t.max_chunk_retries t.net_timeouts t.crc_failures
      t.recoveries t.chunk_failures;
  if t.prefetch_issued > 0 then
    Format.fprintf ppf
      "@.prefetch: issued=%d, installed=%d, wasted=%d, crc-fail=%d, \
       batches=%d (%d chunks, max %d)"
      t.prefetch_issued t.prefetch_installs t.prefetch_wasted
      t.prefetch_crc_failures t.batches t.batch_chunks t.max_batch_chunks;
  if t.chained > 0 || t.superblocks > 0 then
    Format.fprintf ppf
      "@.chaining: traps=%d, eager patches=%d, superblocks=%d (%d blocks), \
       de-promotions=%d"
      t.traps t.chained t.superblocks t.superblock_blocks t.depromotions;
  if t.plt_slots > 0 || t.gran_degraded > 0 then
    Format.fprintf ppf
      "@.plt: slots=%d, slot patches=%d, degraded functions=%d" t.plt_slots
      t.plt_patches t.gran_degraded;
  if t.evicted_blocks > 0 || t.policy_entries > 0 then begin
    Format.fprintf ppf
      "@.policy: entries=%d, evicted victim=%d collateral=%d stub-growth=%d \
       invalidated=%d flushed=%d"
      t.policy_entries t.evicted_victim t.evicted_collateral
      t.evicted_stub_growth t.evicted_invalidated t.evicted_flushed;
    match victim_ages t with
    | [] -> ()
    | ages ->
      Format.fprintf ppf ", victim-age=%s"
        (String.concat " "
           (List.map (fun (lo, n) -> Printf.sprintf "%d+:%d" lo n) ages))
  end;
  if t.fills > 0 then
    Format.fprintf ppf
      "@.harts: fills=%d, coalesced=%d, fill-wait=%d, mc-wait=%d" t.fills
      t.fills_coalesced t.fill_wait_cycles t.mc_wait_cycles
