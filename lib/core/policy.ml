type reason = Trace.evict_reason =
  | Victim
  | Collateral
  | Stub_growth
  | Invalidated
  | Flushed

type temperature = Hot | Warm | Cold

(* The TRRIP insertion mapping: hot blocks insert protected, warm at
   the usual SRRIP "long re-reference", cold already distant. *)
let rrpv_of_temperature = function Hot -> 0 | Warm -> 2 | Cold -> 3

(* A block is a legal victim only if nothing makes it immovable (pins
   and read leases both do) and, under a sharded tcache, it lives in
   the arena the allocation is headed for. *)
let eligible ?shard tc (b : Tcache.block) =
  (not (Tcache.is_pinned tc b.id))
  && (not (Tcache.is_leased tc b.id))
  &&
  match shard with
  | None -> true
  | Some s -> Tcache.shard_of_paddr tc b.paddr = s

(* One fold over the residents, O(resident blocks); lru and trrip run
   it only when the sweep's candidate is protected. Ties break on the
   smaller key, and exact key ties on the smaller block id — never on
   the fold's visit order, which depends on table history rather than
   on any stable property of the blocks. *)
let pick_min ?shard ~key tc =
  Tcache.fold
    (fun (b : Tcache.block) best ->
      if not (eligible ?shard tc b) then best
      else
        let k = key b in
        match best with
        | Some (kb, (bb : Tcache.block))
          when compare kb k < 0 || (compare kb k = 0 && bb.id < b.id) ->
          best
        | _ -> Some (k, b))
    tc None
  |> Option.map snd

(* Which block would the circular FIFO sweep reclaim next? The first
   eligible block the placement index shows at or past the sweep
   pointer; when the sweep is past every block it wraps, so fall back
   to the lowest-placed eligible block. Recency policies use this to
   decide whether deviating from the sweep is worth it at all: block
   entries are only observable at trap granularity (transfers along
   patched direct branches are invisible — the cache state is encoded
   in the branches), so most of the time a recency policy has
   *no* evidence distinguishing the sweep's candidate from any other
   block. Deviating without evidence buys nothing and costs a lot:
   placements seeded away from the sweep point fragment the region,
   evict collateral neighbours and spill landing pads into persistent
   stubs. A policy therefore returns a victim only when the sweep is
   about to kill a block with a recent observed entry. *)
let sweep_candidate ?shard tc = Tcache.sweep_next ?shard tc ~ok:(eligible tc)

(* The clock ticks once per install or observed entry, so
   [2 * residents] ticks is roughly two sweep laps: long enough that a
   block in active reuse re-arms its protection, short enough that a
   block whose entries have all been patched into direct branches falls
   back to cold and the policy stops vouching for it. *)
let fresh tc (b : Tcache.block) =
  b.entered >= 0
  && Tcache.clock tc - b.entered <= 2 * (Tcache.resident_blocks tc + 2)

(* lru: the least recently installed-or-entered block, but only when
   the sweep's own candidate was entered within the window. *)
let lru ?shard tc =
  match sweep_candidate ?shard tc with
  | Some sb when fresh tc sb -> (
    match pick_min ?shard ~key:(fun b -> max b.Tcache.seq b.entered) tc with
    | Some b when b.id <> sb.id -> Some b
    | Some _ | None -> None)
  | Some _ | None -> None

(* Temperature-aware RRIP. A 2-bit RRPV in the SRRIP mould: a block
   reads 0 ("near-immediate re-reference") while an observed entry is
   fresh, and the victim is the block predicted most distant. Hardware
   SRRIP ages every RRPV until one saturates; here aging is by the
   clock window instead, so the read is a pure query (the auditor
   calls it freely) that still forgets blocks whose entries have been
   patched into silent direct branches. An expired (or never observed)
   entry reads as the block's temperature prior — hot 0, warm 2, cold
   3 — so hot blocks stay protected before their first observed entry
   and after their entries went silent, which is exactly where plain
   RRIP is blind. With no oracle ("unprimed") every prior is 3, the
   plain-RRIP "distant" reading. *)
let rrpv tc (b : Tcache.block) = if fresh tc b then 0 else b.prior

let trrip ?shard tc =
  match sweep_candidate ?shard tc with
  | Some sb when rrpv tc sb < 3 -> (
    (* max RRPV first, oldest insertion on ties — and the victim must
       read strictly colder than the candidate, or the seeded sweep
       restart costs more than the candidate was worth. Unprimed, the
       RRPV is two-valued ({0,3}), and "strictly colder than a
       protected candidate" means fully distant. *)
    match pick_min ?shard ~key:(fun b -> (-rrpv tc b, b.Tcache.seq)) tc with
    | Some b when b.id <> sb.id && rrpv tc b > rrpv tc sb -> Some b
    | Some _ | None -> None)
  | Some _ | None -> None

let victim (eviction : Config.eviction) ?shard tc =
  match eviction with
  | Fifo | Flush_all -> None
  | Lru -> lru ?shard tc
  | Trrip -> trrip ?shard tc
