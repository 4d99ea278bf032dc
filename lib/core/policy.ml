type reason = Victim | Collateral | Stub_growth | Invalidated | Flushed

let reason_name = function
  | Victim -> "victim"
  | Collateral -> "collateral"
  | Stub_growth -> "stub_growth"
  | Invalidated -> "invalidated"
  | Flushed -> "flushed"

let reason_names =
  List.map reason_name [ Victim; Collateral; Stub_growth; Invalidated; Flushed ]

type temperature = Hot | Warm | Cold

let temperature_name = function Hot -> "hot" | Warm -> "warm" | Cold -> "cold"

(* The TRRIP insertion mapping: hot blocks insert protected, warm at
   the usual SRRIP "long re-reference", cold already distant. *)
let rrpv_of_temperature = function Hot -> 0 | Warm -> 2 | Cold -> 3

module type S = sig
  val name : string
  val kind : [ `Evict | `Flush_all ]
  val set_temperature_oracle : (lo:int -> hi:int -> temperature) option -> unit
  val on_install : Tcache.block -> unit
  val on_entry : Tcache.block -> unit
  val on_evict : reason -> Tcache.block -> unit
  val victim : ?shard:int -> Tcache.t -> Tcache.block option
  val resident_ids : unit -> int list
  val debug_state : unit -> string
end

type t = (module S)

(* Every policy keeps (block, meta) per resident id; the differences
   are only in what [meta] is, how the hooks update it, and how
   [victim] orders it. *)

let ids_of tbl = Hashtbl.fold (fun id _ acc -> id :: acc) tbl []

(* A block is a legal victim only if nothing makes it immovable (pins
   and read leases both do) and, under a sharded tcache, it lives in
   the arena the allocation is headed for. *)
let eligible ?shard tc id (b : Tcache.block) =
  (not (Tcache.is_pinned tc id))
  && (not (Tcache.is_leased tc id))
  &&
  match shard with
  | None -> true
  | Some s -> Tcache.shard_of_paddr tc b.paddr = s

(* [victim] scans the policy's own table, not the tcache: both views
   are audited equal, and the scan is O(resident blocks) — the same
   order the allocation sweep already pays. Pinned and leased blocks
   are skipped; ties break on the smaller key, and exact key ties on
   the smaller block id — never on Hashtbl.fold visit order, which
   depends on table history rather than on any stable property of the
   blocks. *)
let pick_min ?shard tbl ~key tc =
  Hashtbl.fold
    (fun id (b, m) best ->
      if not (eligible ?shard tc id b) then best
      else
        let k = key m in
        match best with
        | Some (kb, (bb : Tcache.block))
          when compare kb k < 0 || (compare kb k = 0 && bb.id < id) ->
          best
        | _ -> Some (k, b))
    tbl None
  |> Option.map snd

(* Which block would the circular FIFO sweep reclaim next? The first
   unpinned block whose extent ends past the sweep pointer, lowest
   placement first; when the sweep is past every block it wraps, so
   fall back to the lowest-placed unpinned block. Recency policies use
   this to decide whether deviating from the sweep is worth it at all:
   block entries are only observable at trap granularity (transfers
   along patched direct branches are invisible — the cache state is
   encoded in the branches), so most of the time a recency policy has
   *no* evidence distinguishing the sweep's candidate from any other
   block. Deviating without evidence buys nothing and costs a lot:
   placements seeded away from the sweep point fragment the region,
   evict collateral neighbours and spill landing pads into persistent
   stubs. A policy therefore returns a victim only when the sweep is
   about to kill a block with a recent observed entry. *)
let sweep_candidate ?shard tbl tc =
  let ptr = Tcache.alloc_ptr ?shard tc in
  let ahead, wrapped =
    Hashtbl.fold
      (fun id ((b : Tcache.block), m) (ahead, wrapped) ->
        if not (eligible ?shard tc id b) then (ahead, wrapped)
        else
          let ends = b.paddr + (4 * b.words) in
          let better best =
            match best with
            | Some ((bb : Tcache.block), _)
              when bb.paddr < b.paddr || (bb.paddr = b.paddr && bb.id < b.id)
              ->
              best
            | _ -> Some (b, m)
          in
          if ends > ptr then (better ahead, wrapped)
          else (ahead, better wrapped))
      tbl (None, None)
  in
  match ahead with Some c -> Some c | None -> wrapped

let fifo_like name kind : t =
  (module struct
    let name = name
    let kind = kind
    let set_temperature_oracle _ = ()
    let tbl : (int, Tcache.block * unit) Hashtbl.t = Hashtbl.create 64
    let on_install (b : Tcache.block) = Hashtbl.replace tbl b.id (b, ())
    let on_entry _ = ()
    let on_evict _ (b : Tcache.block) = Hashtbl.remove tbl b.id
    let victim ?shard:_ _ = None
    let resident_ids () = ids_of tbl

    let debug_state () =
      Printf.sprintf "%s: %d resident, no per-block state" name
        (Hashtbl.length tbl)
  end)

type lru_meta = {
  mutable stamp : int;  (* last observed install-or-entry tick *)
  mutable entered : int option;  (* last observed *entry* tick *)
}

let lru () : t =
  (module struct
    let name = "lru"
    let kind = `Evict
    let set_temperature_oracle _ = ()

    (* Stamps come from a logical clock ticked on every observed
       install/entry; strictly increasing, so stamps are unique and
       the min-stamp victim is deterministic. [entered] tracks entries
       alone: an entry within the last ~two sweep laps is the evidence
       [victim] requires before overriding the sweep. *)
    let tbl : (int, Tcache.block * lru_meta) Hashtbl.t = Hashtbl.create 64
    let clock = ref 0

    let tick () =
      incr clock;
      !clock

    let on_install (b : Tcache.block) =
      Hashtbl.replace tbl b.id (b, { stamp = tick (); entered = None })

    let on_entry (b : Tcache.block) =
      match Hashtbl.find_opt tbl b.id with
      | Some (_, m) ->
        m.stamp <- tick ();
        m.entered <- Some m.stamp
      | None -> ()

    let on_evict _ (b : Tcache.block) = Hashtbl.remove tbl b.id

    (* The clock ticks once per install or entry, so [2 * residents]
       ticks is roughly two sweep laps: long enough that a block in
       active reuse re-arms its protection, short enough that a block
       whose entries have all been patched into direct branches falls
       back to cold and the policy stops vouching for it. *)
    let window () = 2 * (Hashtbl.length tbl + 2)

    let fresh m =
      match m.entered with
      | Some e -> !clock - e <= window ()
      | None -> false

    let victim ?shard tc =
      match sweep_candidate ?shard tbl tc with
      | None -> None
      | Some (sb, sm) ->
        if not (fresh sm) then None
        else
          let lru = pick_min ?shard tbl ~key:(fun m -> m.stamp) tc in
          (match lru with
          | Some b when b.Tcache.id <> sb.Tcache.id -> Some b
          | Some _ | None -> None)

    let resident_ids () = ids_of tbl

    let debug_state () =
      let stamps =
        Hashtbl.fold
          (fun id (_, m) acc ->
            Printf.sprintf "%d@%d%s" id m.stamp
              (match m.entered with
              | Some e -> Printf.sprintf "!%d" e
              | None -> "")
            :: acc)
          tbl []
      in
      Printf.sprintf "lru: clock=%d window=%d [%s]" !clock (window ())
        (String.concat " " (List.sort compare stamps))
  end)

type trrip_meta = {
  mutable t_rrpv : int;
  mutable t_last_entry : int option;
  t_seq : int;
  t_prior : int;  (* profile prior: the RRPV this block decays back to *)
}

let trrip () : t =
  (module struct
    let name = "trrip"
    let kind = `Evict

    (* Temperature-aware RRIP. A 2-bit RRPV in the SRRIP mould: a
       block is promoted to 0 ("near-immediate re-reference") on an
       observed entry, and the victim is the block predicted most
       distant. Hardware SRRIP ages every RRPV until one saturates;
       here aging is by a clock window instead — an entry older than
       ~two sweep laps has expired. The windowed read keeps [victim] a
       pure query (the auditor calls it freely) while still forgetting
       blocks whose entries have been patched into silent direct
       branches. An expired (or never observed) entry reads as the
       block's temperature prior — hot 0, warm 2, cold 3 — so hot
       blocks stay protected before their first observed entry and
       after their entries went silent, which is exactly where plain
       RRIP is blind. With no oracle ("unprimed") every prior is 3,
       the plain-RRIP "distant" reading. Ties break by insertion
       order, oldest first. *)
    let tbl : (int, Tcache.block * trrip_meta) Hashtbl.t = Hashtbl.create 64
    let clock = ref 0
    let oracle : (lo:int -> hi:int -> temperature) option ref = ref None
    let set_temperature_oracle f = oracle := f

    let tick () =
      incr clock;
      !clock

    (* the prior is sampled once at install: the profile is static, and
       a fixed prior keeps [victim] a pure query *)
    let prior_of (b : Tcache.block) =
      match !oracle with
      | None -> 3
      | Some f ->
        rrpv_of_temperature
          (f ~lo:b.vaddr ~hi:(b.vaddr + (4 * b.orig_words)))

    let on_install (b : Tcache.block) =
      let s = tick () in
      let p = prior_of b in
      Hashtbl.replace tbl b.id
        (b, { t_rrpv = p; t_last_entry = None; t_seq = s; t_prior = p })

    let on_entry (b : Tcache.block) =
      match Hashtbl.find_opt tbl b.id with
      | Some (_, m) ->
        m.t_rrpv <- 0;
        m.t_last_entry <- Some (tick ())
      | None -> ()

    let on_evict _ (b : Tcache.block) = Hashtbl.remove tbl b.id
    let window () = 2 * (Hashtbl.length tbl + 2)

    (* aged read: an in-window entry speaks for itself; otherwise the
       block decays to its profile prior rather than to "distant" *)
    let effective m =
      match m.t_last_entry with
      | Some e when !clock - e <= window () -> m.t_rrpv
      | Some _ | None -> m.t_prior

    let victim ?shard tc =
      match sweep_candidate ?shard tbl tc with
      | None -> None
      | Some (sb, sm) ->
        if effective sm >= 3 then None
        else
          (* max effective RRPV first, oldest insertion on ties — and
             the victim must read strictly colder than the candidate,
             or the seeded sweep restart costs more than the candidate
             was worth. Without an oracle effective is two-valued
             ({0,3}), and "strictly colder than a protected candidate"
             means fully distant. *)
          let distant =
            pick_min ?shard tbl ~key:(fun m -> (-effective m, m.t_seq)) tc
          in
          (match distant with
          | Some b when b.Tcache.id <> sb.Tcache.id -> (
            match Hashtbl.find_opt tbl b.id with
            | Some (_, m) when effective m > effective sm -> Some b
            | Some _ | None -> None)
          | Some _ | None -> None)

    let resident_ids () = ids_of tbl

    let debug_state () =
      let rrpvs =
        Hashtbl.fold
          (fun id (_, m) acc ->
            Printf.sprintf "%d:rrpv=%d/eff=%d/prior=%d,seq=%d" id m.t_rrpv
              (effective m) m.t_prior m.t_seq
            :: acc)
          tbl []
      in
      Printf.sprintf "trrip: clock=%d window=%d oracle=%s [%s]" !clock
        (window ())
        (match !oracle with Some _ -> "yes" | None -> "no")
        (String.concat " " (List.sort compare rrpvs))
  end)

let create = function
  | Config.Fifo -> fifo_like "fifo" `Evict
  | Config.Flush_all -> fifo_like "flush" `Flush_all
  | Config.Lru -> lru ()
  | Config.Trrip -> trrip ()
