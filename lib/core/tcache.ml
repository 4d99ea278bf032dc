type incoming = {
  from_block : int;
  site_paddr : int;
  revert_word : int;
  stub : int;
}

type block = {
  id : int;
  vaddr : int;
  paddr : int;
  words : int;
  orig_words : int;
  mutable incoming : incoming list;
  pads : (int * int) list;
  resume : int array;
  stubs : int list; (* stub-table entries owned by this block *)
  installed_at : int;
  seq : int;
  mutable entered : int;
  prior : int;
}

(* The vaddr map's table: keys are word-aligned vaddrs, so the word
   index is its own hash, and a probe compares ints directly. The map
   is never iterated, so its order is free. *)
module Vmap = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash v = v lsr 2
end)

(* One allocation arena. The unsharded tcache is a single region
   spanning the whole [base, top) range; [--shards K] partitions the
   range into K equal regions, each with its own circular sweep pointer
   and its own persistent-stub area growing down from its top. *)
type region = {
  r_lo : int;
  r_top : int;  (* one past the region *)
  mutable r_alloc_ptr : int;  (* next candidate placement *)
  mutable r_persist_base : int;  (* stubs occupy [r_persist_base, r_top) *)
}

type t = {
  base : int;
  top : int;  (* one past the whole tcache *)
  regions : region array;
  span : int;  (* bytes per region *)
  by_vaddr : block Vmap.t;  (* global: cross-shard lookup *)
  by_id : (int, block) Hashtbl.t;
      (* the enumeration [fold] and [blocks] read. Flush and
         invalidation evict in its iteration order, which the generic
         hash fixes, so it keeps that hash *)
  pinned : (int, unit) Hashtbl.t;  (* block ids exempt from eviction *)
  leased : (int, int) Hashtbl.t;
      (* block id -> read-lease count. A leased block has a suspended
         hart executing inside it: the allocation sweep must hop over
         it exactly as it hops over pins. Unlike pins, leases do not
         survive flushes or invalidation — those writers take the
         region by force and the parked-pc redirect re-routes the
         reader (the lease is re-established on a live block when the
         hart next suspends). *)
  owner : int array;
      (* the placement index: one slot per tcache word, holding the
         slot of the first word of the resident block covering it, or
         -1, so placement and eviction touch only the words they
         overwrite *)
  heads : block array;
      (* the index's second column: each resident block at the slot of
         its first word, [no_block] at every other slot. An [owner]
         entry names its block through it, with no table lookup *)
  mutable code_bytes : int;  (* summed size of the resident blocks *)
  mutable clock : int;
      (* the observation clock the replacement policies read: ticked
         once per install and once per controller-observed entry *)
}

(* The filler of [heads]' vacant slots; no resident block has its id. *)
let no_block =
  {
    id = -1;
    vaddr = -1;
    paddr = -1;
    words = 0;
    orig_words = 0;
    incoming = [];
    pads = [];
    resume = [||];
    stubs = [];
    installed_at = 0;
    seq = 0;
    entered = -1;
    prior = 3;
  }

let create_sharded ~shards ~base ~bytes =
  if base land 3 <> 0 then invalid_arg "Tcache.create: unaligned base";
  if shards < 1 then invalid_arg "Tcache.create: shards must be >= 1";
  if bytes < 16 * shards then invalid_arg "Tcache.create: region too small";
  let span = (bytes land lnot 3) / shards land lnot 3 in
  let regions =
    Array.init shards (fun i ->
        let lo = base + (i * span) in
        {
          r_lo = lo;
          r_top = lo + span;
          r_alloc_ptr = lo;
          r_persist_base = lo + span;
        })
  in
  {
    base;
    top = base + (shards * span);
    regions;
    span;
    by_vaddr = Vmap.create 256;
    by_id = Hashtbl.create 256;
    pinned = Hashtbl.create 8;
    leased = Hashtbl.create 8;
    owner = Array.make (shards * span / 4) (-1);
    heads = Array.make (shards * span / 4) no_block;
    code_bytes = 0;
    clock = 0;
  }

let create ~base ~bytes = create_sharded ~shards:1 ~base ~bytes
let base t = t.base
let top t = t.top
let shards t = Array.length t.regions

(* Deterministic home routing: which shard's arena a chunk is placed
   in. Any pure function of the vaddr works; word-granularity modulo
   spreads consecutive chunks across shards. *)
let home_shard t vaddr = (vaddr lsr 2) mod Array.length t.regions

let shard_of_paddr t paddr =
  if paddr < t.base || paddr >= t.top then
    invalid_arg "Tcache.shard_of_paddr: outside the tcache"
  else min (Array.length t.regions - 1) ((paddr - t.base) / t.span)

let shard_bounds t i =
  let r = t.regions.(i) in
  (r.r_lo, r.r_top)

let lookup t vaddr = Vmap.find_opt t.by_vaddr vaddr
let is_alive t id = Hashtbl.mem t.by_id id

(* Index slot of the word holding [a], and one past the slot of the
   word holding [a - 1]; both clamped to [base, top), so a probe range
   may straddle the tcache. *)
let slot t a = (min (max a t.base) t.top - t.base) asr 2
let slot_end t a = (min (max a t.base) t.top - t.base + 3) asr 2

(* Is [b] itself resident? Read off its head slot, without hashing:
   block ids are never reused. *)
let indexed t b =
  let h = slot t b.paddr in
  h < Array.length t.heads && t.heads.(h).id = b.id

(* Take a block out of the index and the occupancy count, clearing
   only the words it still owns. *)
let unindex t b =
  t.code_bytes <- t.code_bytes - (b.words * 4);
  let h = slot t b.paddr in
  t.heads.(h) <- no_block;
  for i = h to slot_end t (b.paddr + (b.words * 4)) - 1 do
    if t.owner.(i) = h then t.owner.(i) <- -1
  done

let register t b =
  if b.words < 1 || b.paddr < t.base || b.paddr + (b.words * 4) > t.top then
    invalid_arg "Tcache.register: block outside the tcache";
  Vmap.replace t.by_vaddr b.vaddr b;
  Hashtbl.replace t.by_id b.id b;
  t.code_bytes <- t.code_bytes + (b.words * 4);
  let h = slot t b.paddr in
  t.heads.(h) <- b;
  for i = h to slot_end t (b.paddr + (b.words * 4)) - 1 do
    t.owner.(i) <- h
  done

let pin t (b : block) = if indexed t b then Hashtbl.replace t.pinned b.id ()

let unpin t (b : block) = Hashtbl.remove t.pinned b.id
let is_pinned t id = Hashtbl.mem t.pinned id
let pinned_ids t = Hashtbl.fold (fun id () acc -> id :: acc) t.pinned []

let lease t (b : block) =
  if indexed t b then
    Hashtbl.replace t.leased b.id
      (1 + Option.value ~default:0 (Hashtbl.find_opt t.leased b.id))

let release t (b : block) =
  match Hashtbl.find_opt t.leased b.id with
  | Some n when n > 1 -> Hashtbl.replace t.leased b.id (n - 1)
  | Some _ -> Hashtbl.remove t.leased b.id
  | None -> ()

let lease_count t id =
  Option.value ~default:0 (Hashtbl.find_opt t.leased id)

let is_leased t id = Hashtbl.mem t.leased id

let leased_ids t =
  Hashtbl.fold (fun id _ acc -> id :: acc) t.leased []

(* sweep obstacles: blocks the allocator may never reclaim *)
let is_obstacle t id = Hashtbl.mem t.pinned id || Hashtbl.mem t.leased id
let obstacles t = Hashtbl.length t.pinned + Hashtbl.length t.leased

let remove t b =
  if Hashtbl.length t.pinned > 0 then Hashtbl.remove t.pinned b.id;
  if Hashtbl.length t.leased > 0 then Hashtbl.remove t.leased b.id;
  (match Vmap.find_opt t.by_vaddr b.vaddr with
  | Some b' when b'.id = b.id -> Vmap.remove t.by_vaddr b.vaddr
  | Some _ | None -> ());
  if indexed t b then begin
    unindex t b;
    Hashtbl.remove t.by_id b.id
  end

let fold f t init = Hashtbl.fold (fun _ b acc -> f b acc) t.by_id init
let blocks t = fold List.cons t []
let resident_blocks t = Hashtbl.length t.by_id

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let clock t = t.clock

let occupied_bytes t =
  Array.fold_left
    (fun acc r -> acc + (r.r_top - r.r_persist_base))
    t.code_bytes t.regions

let map_entries t = Vmap.length t.by_vaddr

(* Walk the index down from [hi], hopping over each block found to the
   slot below its start: every block is read once, and consing while
   descending leaves the list in ascending paddr order. An empty range
   meets nothing, even inside a word. *)
let overlapping t lo hi =
  let i0 = slot t lo in
  let i = ref (if hi <= lo then i0 - 1 else slot_end t hi - 1) in
  let acc = ref [] in
  while !i >= i0 do
    let h = t.owner.(!i) in
    if h < 0 then decr i
    else begin
      acc := t.heads.(h) :: !acc;
      i := min (!i - 1) (h - 1)
    end
  done;
  !acc

let covering t a =
  if a < t.base || a >= t.top then None
  else
    match t.owner.((a - t.base) asr 2) with
    | -1 -> None
    | h -> Some t.heads.(h)

let owns t ~id a =
  a >= t.base && a < t.top
  &&
  let h = t.owner.((a - t.base) asr 2) in
  h >= 0 && t.heads.(h).id = id

let vacant t lo hi =
  let i = ref (slot t lo) and i1 = slot_end t hi in
  while !i < i1 && t.owner.(!i) < 0 do
    incr i
  done;
  !i >= i1

(* [lo] when no pinned or leased block meets [lo, hi); otherwise the
   furthest end among those that do. *)
let obstacle_end t lo hi =
  if obstacles t = 0 then lo
  else
    List.fold_left
      (fun acc b ->
        if is_obstacle t b.id then max acc (b.paddr + (b.words * 4)) else acc)
      lo (overlapping t lo hi)

let evict_range t lo hi =
  let victims = overlapping t lo hi in
  List.iter (remove t) victims;
  victims

(* Pinned and leased blocks are immovable obstacles for the sweep: when
   the candidate range would overlap one, skip past it. [budget] bounds
   the number of skips so a region crowded with obstacles terminates in
   [`Full] — the chunk would fit an empty region, the obstacles are
   what is in the way. An evicting sweep wraps to the start of the code
   area and takes the first obstacle-free range; an appending one never
   wraps and takes only a vacant range. Either way it returns the
   placement alone: [alloc] reclaims the range itself. *)
let rec place_skipping_pinned t (r : region) ~bytes ~budget ~can_evict =
  if budget = 0 then Error `Full
  else if r.r_alloc_ptr + bytes > r.r_persist_base then
    if can_evict then begin
      r.r_alloc_ptr <- r.r_lo;
      place_skipping_pinned t r ~bytes ~budget:(budget - 1) ~can_evict
    end
    else Error `Full
  else
    let lo = r.r_alloc_ptr in
    let hi = lo + bytes in
    let skip_to = obstacle_end t lo hi in
    if skip_to > lo then begin
      (* hop past the furthest immovable obstacle *)
      r.r_alloc_ptr <- skip_to;
      place_skipping_pinned t r ~bytes ~budget:(budget - 1) ~can_evict
    end
    else if can_evict || vacant t lo hi then begin
      r.r_alloc_ptr <- hi;
      Ok lo
    end
    else Error `Full

let region t shard =
  if shard < 0 || shard >= Array.length t.regions then
    invalid_arg "Tcache: shard out of range"
  else t.regions.(shard)

(* A replacement policy seeds the sweep at its chosen block so that
   block (and only its immediate neighbourhood) is reclaimed. A seed
   outside the code area — possible when the persistent stub region
   grew over the victim between the choice and the placement — is
   ignored and the sweep just continues, which degrades gracefully to
   FIFO for this one allocation. *)
let alloc ?(shard = 0) ?seed t ~words =
  let r = region t shard in
  let bytes = words * 4 in
  if bytes > r.r_persist_base - r.r_lo then Error `Too_large
  else begin
    (match seed with
    | Some p when p >= r.r_lo && p < r.r_persist_base -> r.r_alloc_ptr <- p
    | Some _ | None -> ());
    match
      place_skipping_pinned t r ~bytes
        ~budget:(2 * (obstacles t + 2))
        ~can_evict:true
    with
    | Ok lo -> Ok (lo, evict_range t lo (lo + bytes))
    | Error `Full -> Error `Full
  end

let alloc_ptr ?(shard = 0) t = (region t shard).r_alloc_ptr

(* Read the index from slot [i] up to [i1], hopping over each block
   [ok] rejects; the first block it accepts, if any. *)
let rec first_ok t ~ok i i1 =
  if i >= i1 then None
  else
    let h = t.owner.(i) in
    if h < 0 then first_ok t ~ok (i + 1) i1
    else
      let b = t.heads.(h) in
      if ok b then Some b
      else
        first_ok t ~ok (max (i + 1) (slot_end t (b.paddr + (b.words * 4)))) i1

let sweep_next ?shard t ~ok =
  let ptr, lo, hi =
    match shard with
    | Some s ->
      let r = region t s in
      (r.r_alloc_ptr, r.r_lo, r.r_top)
    | None -> (t.regions.(0).r_alloc_ptr, t.base, t.top)
  in
  let p = slot t ptr in
  match first_ok t ~ok p (slot_end t hi) with
  | Some _ as ahead -> ahead
  | None -> first_ok t ~ok (slot t lo) p

let alloc_append ?(shard = 0) t ~words =
  let r = region t shard in
  let bytes = words * 4 in
  if bytes > r.r_persist_base - r.r_lo then Error `Too_large
  else
    place_skipping_pinned t r ~bytes ~budget:(obstacles t + 2)
      ~can_evict:false

let persist_base ?(shard = 0) t = (region t shard).r_persist_base

let alloc_persistent ?(shard = 0) t ~words =
  let r = region t shard in
  let bytes = words * 4 in
  if bytes > r.r_persist_base - r.r_lo then Error `Too_large
  else begin
    let lo = r.r_persist_base - bytes in
    let victims = evict_range t lo r.r_persist_base in
    r.r_persist_base <- lo;
    (* keep the FIFO sweep out of the shrunken code area *)
    if r.r_alloc_ptr > r.r_persist_base then r.r_alloc_ptr <- r.r_lo;
    Ok (lo, victims)
  end

let reset t =
  (* pinned blocks survive the flush; leases do not — the flush writer
     takes every region by force and parked readers are redirected *)
  let former = List.filter (fun b -> not (is_pinned t b.id)) (blocks t) in
  List.iter (remove t) former;
  Array.iter (fun r -> r.r_alloc_ptr <- r.r_lo) t.regions;
  former

let pp ppf t =
  if Array.length t.regions = 1 then
    Format.fprintf ppf
      "tcache [0x%x,0x%x): %d blocks, ptr=0x%x, persist=0x%x" t.base t.top
      (resident_blocks t) t.regions.(0).r_alloc_ptr
      t.regions.(0).r_persist_base
  else
    Format.fprintf ppf "tcache [0x%x,0x%x): %d blocks, %d shards%s" t.base
      t.top (resident_blocks t)
      (Array.length t.regions)
      (match Hashtbl.length t.leased with
      | 0 -> ""
      | n -> Printf.sprintf ", %d leased" n)
