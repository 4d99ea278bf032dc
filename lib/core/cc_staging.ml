(* The CC staging buffer for prefetched chunks and the MC->CC chunk
   transport: CRC-verified delivery with retry/backoff, speculative
   chunk bodies riding demand frames, and candidate ranking. *)

open Cc_state

(* The staging list is in arrival order, oldest first, and holds at
   most [staging_chunks] entries (8 by default), so a walk costs
   little. A full list discards its oldest entry. *)
let rec make_staging_room t =
  match t.staging with
  | _ :: rest when List.length t.staging >= t.cfg.staging_chunks ->
    t.staging <- rest;
    t.stats.prefetch_wasted <- t.stats.prefetch_wasted + 1;
    make_staging_room t
  | _ -> ()

let stage_chunk t vaddr st_bytes st_crc =
  if not (List.mem_assoc vaddr t.staging) then begin
    make_staging_room t;
    t.staging <- t.staging @ [ (vaddr, { st_bytes; st_crc }) ];
    t.stats.prefetch_issued <- t.stats.prefetch_issued + 1
  end

let take_staged t v =
  match List.assoc_opt v t.staging with
  | None -> None
  | Some s ->
    t.staging <- List.remove_assoc v t.staging;
    Some s

let drop_staged_in t ~lo ~hi =
  t.staging <-
    List.filter
      (fun (v, (s : staged)) ->
        let doomed = v < hi && v + Bytes.length s.st_bytes > lo in
        if doomed then t.stats.prefetch_wasted <- t.stats.prefetch_wasted + 1;
        not doomed)
      t.staging

(* MC-side CRC stamping goes through the [mc_crc] hook when set: a
   fleet MC memoizes stamps in its shared chunk cache, so identical
   content requested by many clients is CRC-computed once. *)
let stamp t b = match t.mc_crc with Some f -> f b | None -> Crc32.bytes b

let rec stamp_riders t = function
  | [] -> []
  | (pv, pb) :: rest ->
    let crc = stamp t pb in
    (pv, pb, crc) :: stamp_riders t rest

let send t ~vaddr ~prefetch_vaddrs ~payloads =
  match t.mc_transport with
  | None -> Netmodel.transfer_batch t.cfg.net ~payloads
  | Some f -> f ~vaddr ~prefetch_vaddrs ~payloads

(* Send the frame until its demand segment arrives with the CRC the MC
   stamped, or the retry budget runs out. *)
let rec deliver t ~vaddr ~prefetch_vaddrs ~payloads ~crc tries =
  if tries > Config.max_retries then begin
    t.stats.chunk_failures <- t.stats.chunk_failures + 1;
    Log.warn (fun m ->
        m "chunk v=0x%x unavailable after %d attempts" vaddr tries);
    raise (Chunk_unavailable { vaddr; attempts = tries })
  end;
  if tries > 0 then begin
    t.stats.net_retries <- t.stats.net_retries + 1;
    t.stats.max_chunk_retries <- max t.stats.max_chunk_retries tries;
    trace t (Trace.Cc_retry { chunk = vaddr; attempt = tries });
    charge t Trace.Wire (Config.retry_backoff_cycles * (1 lsl (tries - 1)))
  end;
  match send t ~vaddr ~prefetch_vaddrs ~payloads with
  | Error (`Dropped wasted) ->
    charge t Trace.Wire (wasted + Config.timeout_cycles);
    t.stats.net_timeouts <- t.stats.net_timeouts + 1;
    deliver t ~vaddr ~prefetch_vaddrs ~payloads ~crc (tries + 1)
  | Ok (_, []) ->
    (* the direct link always carries the demand segment back; only an
       [mc_transport] hook can reply without one *)
    raise
      (Internal_invariant_broken
         { chunk = vaddr; detail = "transport reply has no demand segment" })
  | Ok (cycles, demand :: rest) ->
    charge t Trace.Wire cycles;
    if Crc32.bytes demand <> crc then begin
      t.stats.crc_failures <- t.stats.crc_failures + 1;
      deliver t ~vaddr ~prefetch_vaddrs ~payloads ~crc (tries + 1)
    end
    else begin
      if tries > 0 then t.stats.recoveries <- t.stats.recoveries + 1;
      (demand, rest)
    end

(* Pair up to the shorter list: a coalesced fleet delivery carries the
   demand segment only (nothing new went on the wire, so no prefetch
   riders arrive); the direct path always returns the full batch.
   Returns how many riders were staged. *)
let rec stage_riders t riders received n =
  match (riders, received) with
  | (pv, _, pcrc) :: riders', r :: received' ->
    stage_chunk t pv r pcrc;
    stage_riders t riders' received' (n + 1)
  | _, [] | [], _ -> n

(* Ship a rewritten chunk's [payload] from the MC to the CC through the
   (possibly faulty) interconnect, with the [prefetch] chunk bodies
   riding in the same frame. The MC stamps each segment with a CRC32;
   the CC verifies the demand segment on receipt (even when the link
   hands back [payload] itself), waits out dropped frames, and
   re-requests with exponential backoff. Prefetched segments are staged
   unverified — their CRC is checked at install time. All waiting, wire
   time and backoff are charged through the cost model. Returns the
   delivered demand segment, which the caller installs. *)
let fetch_chunk t ~vaddr ~payload ~prefetch =
  let crc = stamp t payload in
  let riders = stamp_riders t prefetch in
  let payloads = payload :: List.map (fun (_, pb, _) -> pb) riders in
  let prefetch_vaddrs = List.map (fun (pv, _, _) -> pv) riders in
  let demand, rest = deliver t ~vaddr ~prefetch_vaddrs ~payloads ~crc 0 in
  let staged = stage_riders t riders rest 0 in
  if staged > 0 then begin
    let n = 1 + staged in
    t.stats.batches <- t.stats.batches + 1;
    t.stats.batch_chunks <- t.stats.batch_chunks + n;
    t.stats.max_batch_chunks <- max t.stats.max_batch_chunks n
  end;
  demand

(* Which chunks should ride along with this demand miss? Static
   successors of the chunk being translated, minus anything already
   resident or staged, ranked by the attached hotness oracle (profile
   samples over the chunk's source span) when there is one. *)
let prefetch_candidates t (chunk : Chunker.t) =
  if t.cfg.prefetch_degree = 0 || t.cfg.staging_chunks = 0 then []
  else begin
    let succs =
      match t.cfg.granularity with
      | Config.Block -> Chunker.successors t.image chunk
      | Config.Function ->
        (* internal block heads are already part of this unit; only
           edges leaving the span can miss next *)
        Chunker.external_successors t.image chunk
    in
    let cands =
      succs
      |> List.filter (fun a ->
             Tcache.lookup t.tc a = None && not (List.mem_assoc a t.staging))
      |> List.filter_map (fun a ->
             match chunk_for t a with
             | c -> Some c
             | exception (Chunker.Bad_address _ | Chunker.Trap_in_source _) ->
               None)
    in
    let rank (c : Chunker.t) =
      match t.prefetch_ranker with
      | None -> 0
      | Some f -> f ~lo:c.vaddr ~hi:(c.vaddr + Chunker.span_bytes c)
    in
    let keyed = List.map (fun c -> (rank c, c)) cands in
    let ranked =
      List.stable_sort (fun (ka, _) (kb, _) -> compare kb ka) keyed
    in
    let rec take n = function
      | (_, c) :: rest when n > 0 -> c :: take (n - 1) rest
      | _ -> []
    in
    take t.cfg.prefetch_degree ranked
  end

(* A staged chunk body as a chunk: CRC-check, then view its words.
   [None] means the staged copy is unusable (corrupted in flight, or
   holding a word with no decoding) and the miss must go back to the
   wire. *)
let chunk_of_staged v (s : staged) =
  if Crc32.bytes s.st_bytes <> s.st_crc then None
  else Chunker.of_payload ~vaddr:v s.st_bytes
