(* Tcache invariant auditor.

   Walks the controller's concrete state — resident blocks, the stub
   table, recorded incoming pointers, persistent return stubs, the pin
   set — and cross-checks it against the encoded words actually sitting
   in client memory. Every patched pointer must be accounted for: the
   whole eviction protocol rests on "incoming pointers are recorded at
   the time they are created", so a single missing record is a latent
   wild branch after the target block dies. *)

open Softcache

type violation = { invariant : string; detail : string }

exception Audit_failure of violation list

let pp_violation ppf v = Format.fprintf ppf "[%s] %s" v.invariant v.detail

let word (t : Controller.t) paddr = Machine.Memory.read32 t.cpu.mem paddr

let block_range (b : Tcache.block) = (b.paddr, b.paddr + (4 * b.words))

let in_block (b : Tcache.block) p = p >= b.paddr && p < b.paddr + (4 * b.words)

(* Does [w], fetched from [site], transfer control to the start of
   [b]?  Branch offsets are pc-relative in words; jumps are absolute. *)
let aims_at ~site ~(b : Tcache.block) w =
  Isa.Encode.static_target ~site w = b.paddr

let has_incoming (b : Tcache.block) ~site_paddr =
  List.exists
    (fun (i : Tcache.incoming) -> i.site_paddr = site_paddr)
    b.incoming

let report viols invariant fmt =
  Format.kasprintf (fun detail -> viols := { invariant; detail } :: !viols) fmt

(* [w] as a [Jmp]'s absolute target, or [Isa.Encode.none]. A [Jmp]
   keeps its opcode in the bits above its 26-bit word index. *)
let jmp_opcode = Isa.Encode.jmp 0

let jmp_target w =
  if w land lnot 0x3FFFFFF = jmp_opcode then Isa.Encode.static_target ~site:0 w
  else Isa.Encode.none

(* The in-block island a branch exit traps through: the target of its
   revert word [rw], or [Isa.Encode.none] if [rw] is not a branch. Reads
   the word's fields, so it allocates nothing. *)
let island_of ~site_paddr rw = Isa.Encode.branch_target ~site:site_paddr rw

(* The one rule for a slot word: a branch island ([inv] "stub"), a
   return stub ("ret-stub") or a PLT slot ("plt") traps to its own stub
   [k], or is a [Jmp] to [target]'s resident block and recorded on that
   block. A trap over a resident target is legal (install and
   specialisation are distinct steps); a jump over a dead target is the
   wild branch this rule exists to catch. *)
let check_slot viols (t : Controller.t) inv ~what slot k target =
  let w = word t slot in
  let j = Isa.Encode.trap_index w in
  if j <> Isa.Encode.none then begin
    if j <> k then
      report viols inv "%s 0x%x traps to %d, expected stub %d" what slot j k
  end
  else
    let p = jmp_target w in
    if p = Isa.Encode.none then
      report viols inv "%s 0x%x holds 0x%08x, neither trap nor jump" what slot
        w
    else
      match Tcache.lookup t.tc target with
      | Some tb when tb.paddr = p ->
        if not (has_incoming tb ~site_paddr:slot) then
          report viols "incoming"
            "%s 0x%x jumps to v=0x%x but is not recorded as an incoming \
             pointer"
            what slot target
      | Some tb ->
        report viols inv "%s 0x%x jumps to 0x%x but v=0x%x resides at 0x%x"
          what slot p target tb.paddr
      | None ->
        report viols inv "%s 0x%x jumps to 0x%x for dead target v=0x%x" what
          slot p target

(* is [p] inside some shard's persistent stub area?  (the whole region
   when unsharded — shard 0's [persist_base, top)) *)
let in_stub_area tc p =
  p >= Tcache.base tc
  && p < Tcache.top tc
  &&
  let sh = Tcache.shard_of_paddr tc p in
  let _, sh_top = Tcache.shard_bounds tc sh in
  p >= Tcache.persist_base ~shard:sh tc && p < sh_top

(* One entry of a persistent-slot table, [ret_stubs] or ([plt]) [plt]:
   the slot sits in a stub area, its stub entry mirrors the table, and
   its word obeys [check_slot]. *)
let check_slot_entry viols (t : Controller.t) ~plt v (paddr, k) =
  let inv, what =
    if plt then ("plt", "PLT slot") else ("ret-stub", "return stub")
  in
  if not (in_stub_area t.tc paddr) then
    report viols inv "%s for v=0x%x at 0x%x outside stub area" what v paddr;
  (if k < 0 || k >= t.nstubs then
     report viols inv "%s for v=0x%x has bad stub index %d" what v k
   else
     let mirrors =
       match t.stubs.(k) with
       | Stub.Ret_stub { site_paddr = p; target } ->
         (not plt) && p = paddr && target = v
       | Stub.Plt { slot_paddr = p; target } -> plt && p = paddr && target = v
       | Stub.Exit _ | Stub.Computed _ | Stub.Icall _ -> false
     in
     if not mirrors then
       report viols inv "stub %d is not the %s its table names for v=0x%x" k
         what v);
  check_slot viols t inv ~what paddr k v

let run (t : Controller.t) : violation list =
  let viols = ref [] in
  let add invariant fmt = report viols invariant fmt in
  let tc = t.tc in
  let blocks = Tcache.blocks tc in
  let base = Tcache.base tc in
  let top = Tcache.top tc in
  let by_paddr = Hashtbl.create 64 in
  List.iter (fun (b : Tcache.block) -> Hashtbl.replace by_paddr b.paddr b) blocks;

  (* -- blocks sit inside their home shard's code area and never
        overlap.  The home-shard routing is part of the invariant: a
        block placed in the right byte range but the wrong arena means
        the allocator and the policy's ?shard filtering disagree about
        who owns it. *)
  List.iter
    (fun (b : Tcache.block) ->
      let lo, hi = block_range b in
      if lo < base || hi > top then
        add "region" "block v=0x%x [0x%x,0x%x) outside tcache [0x%x,0x%x)"
          b.vaddr lo hi base top
      else begin
        let sh = Tcache.home_shard tc b.vaddr in
        let sh_lo, _ = Tcache.shard_bounds tc sh in
        let sh_pb = Tcache.persist_base ~shard:sh tc in
        if lo < sh_lo || hi > sh_pb then
          add "region"
            "block v=0x%x [0x%x,0x%x) outside its home shard %d code area \
             [0x%x,0x%x)"
            b.vaddr lo hi sh sh_lo sh_pb
      end)
    blocks;
  let sorted =
    List.sort
      (fun (a : Tcache.block) (b : Tcache.block) -> compare a.paddr b.paddr)
      blocks
  in
  let rec overlap_chain = function
    | (a : Tcache.block) :: ((b : Tcache.block) :: _ as rest) ->
      if a.paddr + (4 * a.words) > b.paddr then
        add "overlap" "blocks v=0x%x@0x%x and v=0x%x@0x%x overlap" a.vaddr
          a.paddr b.vaddr b.paddr;
      overlap_chain rest
    | [ _ ] | [] -> ()
  in
  overlap_chain sorted;

  (* -- placement index: each shard's code area reads back exactly the
        resident blocks in it, in paddr order, and the running
        occupancy count equals a fold over blocks and stub areas.  The
        comparison walks [sorted] without building lists: this section
        runs after every event of an audited run. ---------------- *)
  let stub_bytes = ref 0 in
  for sh = 0 to Tcache.shards tc - 1 do
    let lo, sh_top = Tcache.shard_bounds tc sh in
    let pb = Tcache.persist_base ~shard:sh tc in
    stub_bytes := !stub_bytes + (sh_top - pb);
    let meets (b : Tcache.block) =
      b.paddr < pb && b.paddr + (4 * b.words) > lo
    in
    let rec agree (indexed : Tcache.block list)
        (expected : Tcache.block list) =
      match (indexed, expected) with
      | [], [] -> true
      | _, e :: es when not (meets e) -> agree indexed es
      | i :: is, e :: es -> i.id = e.id && agree is es
      | _ :: _, [] | [], _ :: _ -> false
    in
    let indexed = Tcache.overlapping tc lo pb in
    if not (agree indexed sorted) then
      let pp_ids ppf =
        List.iter (fun (b : Tcache.block) -> Format.fprintf ppf " %d" b.id)
      in
      add "placement"
        "shard %d code area [0x%x,0x%x): index lists ids [%a ], residents \
         are [%a ]"
        sh lo pb pp_ids indexed pp_ids (List.filter meets sorted)
  done;
  let folded =
    List.fold_left
      (fun acc (b : Tcache.block) -> acc + (4 * b.words))
      !stub_bytes blocks
  in
  if Tcache.occupied_bytes tc <> folded then
    add "placement" "occupied_bytes %d, but blocks and stub areas sum to %d"
      (Tcache.occupied_bytes tc) folded;

  (* -- tcache map agrees with residency ----------------------------- *)
  if Tcache.map_entries tc <> Tcache.resident_blocks tc then
    add "map" "map has %d entries but %d blocks are resident"
      (Tcache.map_entries tc)
      (Tcache.resident_blocks tc);
  List.iter
    (fun (b : Tcache.block) ->
      match Tcache.lookup tc b.vaddr with
      | Some b' when b'.id = b.id -> ()
      | Some b' ->
        add "map" "map[v=0x%x] names block id=%d, expected id=%d" b.vaddr
          b'.id b.id
      | None -> add "map" "resident block v=0x%x missing from map" b.vaddr)
    blocks;

  (* -- pinned ids name resident blocks ------------------------------ *)
  List.iter
    (fun id ->
      if not (Tcache.is_alive tc id) then
        add "pinned" "pinned id=%d is not resident" id)
    (Tcache.pinned_ids tc);

  (* -- leased ids name resident blocks ------------------------------ *)
  List.iter
    (fun id ->
      if not (Tcache.is_alive tc id) then
        add "leased" "leased id=%d is not resident" id)
    (Tcache.leased_ids tc);

  (* -- every recorded incoming pointer decodes sensibly ------------- *)
  List.iter
    (fun (b : Tcache.block) ->
      List.iter
        (fun (inc : Tcache.incoming) ->
          let live_src =
            inc.from_block = -1 || Tcache.is_alive tc inc.from_block
          in
          if live_src then begin
            let w = word t inc.site_paddr in
            if w <> inc.revert_word && not (aims_at ~site:inc.site_paddr ~b w)
            then
              add "incoming"
                "site 0x%x recorded on v=0x%x holds 0x%08x: neither the \
                 revert word nor a branch to 0x%x"
                inc.site_paddr b.vaddr w b.paddr
          end)
        b.incoming)
    blocks;

  (* -- exit stubs: each site is in its revert state or patched at a
        resident, recorded target ------------------------------------ *)
  let check_exit b k = function
    | Stub.Exit { block; site_paddr; kind; target; revert_word } ->
      let b = (b : Tcache.block) in
      if block <> b.id then
        add "stub" "stub %d owned by block id=%d but records block=%d" k
          b.id block;
      if not (in_block b site_paddr) then
        add "stub" "exit stub %d site 0x%x outside its block v=0x%x" k
          site_paddr b.vaddr;
      let w = word t site_paddr in
      (* branch exits trap through an in-block island: while the site
         is in its miss state the island obeys the slot rule; once the
         site is patched the island lies dormant and must still trap to
         this stub ([patch_exit] specialises an island only while its
         site holds the revert word) *)
      (match kind with
      | Stub.Patch_br ->
        let island = island_of ~site_paddr revert_word in
        if island = Isa.Encode.none then
          add "stub" "br stub %d revert word is not a branch" k
        else if not (in_block b island) then
          add "stub" "stub %d br island 0x%x outside block v=0x%x" k island
            b.vaddr
        else if w = revert_word then
          check_slot viols t "stub" ~what:"island" island k target
        else if Isa.Encode.trap_index (word t island) <> k then
          add "stub"
            "exit site 0x%x is patched but its island 0x%x holds 0x%08x, \
             not a trap to stub %d"
            site_paddr island (word t island) k
      | Stub.Patch_jmp | Stub.Patch_jal -> ());
      if w <> revert_word then begin
        (* site patched: must aim at the resident target block, and the
           target must know about it *)
        match Tcache.lookup tc target with
        | None ->
          add "stub"
            "exit site 0x%x is patched but its target v=0x%x is dead"
            site_paddr target
        | Some tb ->
          if not (aims_at ~site:site_paddr ~b:tb w) then
            add "stub"
              "exit site 0x%x holds 0x%08x, not a branch to v=0x%x@0x%x"
              site_paddr w target tb.paddr
          else if not (has_incoming tb ~site_paddr) then
            add "incoming"
              "patched exit site 0x%x not recorded on target v=0x%x"
              site_paddr target
      end
    | Stub.Computed _ -> ()
    | Stub.Icall { pad_paddr; _ } ->
      if not (in_block b pad_paddr) then
        add "stub" "icall stub %d pad 0x%x outside its block" k pad_paddr
    | Stub.Ret_stub _ ->
      add "stub" "block v=0x%x owns stub %d, which is a return stub"
        b.Tcache.vaddr k
    | Stub.Plt _ ->
      add "stub" "block v=0x%x owns stub %d, which is a PLT slot"
        b.Tcache.vaddr k
  in
  List.iter
    (fun (b : Tcache.block) ->
      List.iter
        (fun k ->
          if k < 0 || k >= t.nstubs then
            add "stub" "block v=0x%x owns out-of-range stub %d" b.vaddr k
          else check_exit b k t.stubs.(k))
        b.stubs)
    blocks;

  (* -- reverse scan: every encoded branch out of a block lands on a
        block start and is recorded there.  This is the completeness
        direction — it catches incoming pointers that were created but
        never recorded.
        Function-granularity calls are the one legitimate exception: a
        [Jal] into a PLT slot targets the persistent-stub area, never a
        block start, and needs no record (the slot word, not the call
        site, is what the controller patches). ----- *)
  let plt_slot_paddrs = Hashtbl.create 16 in
  Hashtbl.iter
    (fun _fv (paddr, _) -> Hashtbl.replace plt_slot_paddrs paddr ())
    t.plt;
  List.iter
    (fun (b : Tcache.block) ->
      for i = 0 to b.words - 1 do
        let site = b.paddr + (4 * i) in
        let w = word t site in
        let p = Isa.Encode.static_target ~site w in
        if p <> Isa.Encode.none then begin
          if not (in_block b p) then
            match Hashtbl.find_opt by_paddr p with
            | Some tb ->
              if not (has_incoming tb ~site_paddr:site) then
                add "incoming"
                  "word at 0x%x (block v=0x%x) branches to v=0x%x@0x%x \
                   without an incoming record"
                  site b.vaddr tb.vaddr p
            | None ->
              if not (Hashtbl.mem plt_slot_paddrs p) then
                add "wild"
                  "word at 0x%x (block v=0x%x) branches to 0x%x, which is \
                   neither a block start nor a PLT slot"
                  site b.vaddr p
        end
        else
          let j = Isa.Encode.trap_index w in
          if j <> Isa.Encode.none then
            if j >= t.nstubs then
              add "trap" "word at 0x%x traps to out-of-range stub %d" site j
            else if not (List.mem j b.stubs) then
              add "trap"
                "word at 0x%x (block v=0x%x) traps to stub %d, which the \
                 block does not own"
                site b.vaddr j
      done)
    blocks;

  (* -- persistent slots: return stubs and PLT slots ------------------ *)
  Hashtbl.iter (check_slot_entry viols t ~plt:false) t.ret_stubs;
  Hashtbl.iter (check_slot_entry viols t ~plt:true) t.plt;

  (* -- stub-table accounting: every allocated entry is owned by a
        block, a return stub or a PLT slot, or is free, never both ---- *)
  let owned =
    List.fold_left
      (fun acc (b : Tcache.block) -> acc + List.length b.stubs)
      0 blocks
    + Hashtbl.length t.ret_stubs
    + Hashtbl.length t.plt
  in
  let free = List.length t.free_stubs in
  if owned <> t.nstubs - free then
    add "accounting" "blocks and slots own %d stubs, allocated %d - free %d"
      owned t.nstubs free;
  let seen = Hashtbl.create 64 in
  List.iter
    (fun k ->
      if Hashtbl.mem seen k then
        add "accounting" "stub %d appears twice on the free list" k;
      Hashtbl.replace seen k ())
    t.free_stubs;
  let check_live_not_free where k =
    if Hashtbl.mem seen k then
      add "accounting" "stub %d is both %s and on the free list" k where
  in
  List.iter
    (fun (b : Tcache.block) ->
      List.iter (check_live_not_free "owned by a block") b.stubs)
    blocks;
  Hashtbl.iter
    (fun _ (_, k) -> check_live_not_free "a return stub" k)
    t.ret_stubs;
  Hashtbl.iter (fun _ (_, k) -> check_live_not_free "a PLT slot" k) t.plt;

  (* -- prefetch staging buffer ---------------------------------------- *)
  (* Staged chunk bodies live CC-side only: a staged vaddr that is also
     resident means first touch went to the wire (or a translate forgot
     to consume its staged copy) — the copy can silently go stale. The
     bound is what keeps staging memory finite on the client. *)
  if List.length t.staging > t.cfg.staging_chunks then
    add "staging" "staging holds %d chunks, bound is %d"
      (List.length t.staging) t.cfg.staging_chunks;
  List.iter
    (fun (v, (_ : Controller.staged)) ->
      if Tcache.lookup tc v <> None then
        add "staging" "staged chunk v=0x%x aliases a resident block" v)
    t.staging;

  (* -- chaining: incoming records --------------------------------------- *)
  (* A patched edge is recorded once, on its target. A block-to-block
     record must name a live source that holds the recorded site (the
     target's eviction reverts the site only while its source owns it)
     and one of that source's exit stubs aimed at this block: the stub
     the site reverts to, and the one the source's own eviction walks
     to find the record. A waiting exit has no record anywhere: its
     branch bytes are the only state it has. *)
  List.iter
    (fun (tb : Tcache.block) ->
      List.iter
        (fun (inc : Tcache.incoming) ->
          if inc.from_block >= 0 then
            if not (Tcache.is_alive tc inc.from_block) then
              add "links"
                "incoming record at 0x%x on v=0x%x names dead source id=%d"
                inc.site_paddr tb.vaddr inc.from_block
            else if not (Tcache.owns tc ~id:inc.from_block inc.site_paddr)
            then
              add "links"
                "incoming record at 0x%x on v=0x%x lies outside its source \
                 id=%d"
                inc.site_paddr tb.vaddr inc.from_block
            else
              let aimed_exit =
                inc.stub >= 0 && inc.stub < t.nstubs
                &&
                match t.stubs.(inc.stub) with
                | Stub.Exit { block; target; _ } ->
                  block = inc.from_block && target = tb.vaddr
                | _ -> false
              in
              if not aimed_exit then
                add "links"
                  "incoming record at 0x%x on v=0x%x names stub %d, not an \
                   exit of source id=%d aimed at it"
                  inc.site_paddr tb.vaddr inc.stub inc.from_block)
        tb.incoming)
    blocks;

  (* -- superblock groups ---------------------------------------------- *)
  (* Any member eviction dissolves its group, so a live group's members
     are all resident, and [sb_of_block] is the exact inverse of the
     group table's member lists. *)
  Hashtbl.iter
    (fun sbid (sb : Controller.superblock) ->
      List.iter
        (fun id ->
          if not (Tcache.is_alive tc id) then
            add "superblock"
              "superblock %d (head v=0x%x) member id=%d is not resident" sbid
              sb.sb_head id
          else
            match Hashtbl.find_opt t.sb_of_block id with
            | Some g when g = sbid -> ()
            | Some g ->
              add "superblock" "member id=%d maps to superblock %d, expected %d"
                id g sbid
            | None ->
              add "superblock"
                "member id=%d (superblock %d) missing from sb_of_block" id sbid)
        sb.sb_members)
    t.superblocks;
  Hashtbl.iter
    (fun bid sbid ->
      match Hashtbl.find_opt t.superblocks sbid with
      | None ->
        add "superblock" "sb_of_block[%d] names missing superblock %d" bid sbid
      | Some (sb : Controller.superblock) ->
        if not (List.mem bid sb.sb_members) then
          add "superblock" "sb_of_block[%d] -> %d but the group omits it" bid
            sbid)
    t.sb_of_block;

  (* -- decode-cache coherence ---------------------------------------- *)
  (* The rewriter has just patched words all over the tcache; every
     valid predecode line must still agree with what a fresh decode of
     the underlying memory word produces.  A disagreement means a write
     path skipped the in-memory invalidation — the stale-instruction
     bug class the decode cache's design forbids by construction.  With
     harts attached every hart's private memory has its own decode
     cache, and each is checked. *)
  let stale_lines hart (mem : Machine.Memory.t) =
    List.iter
      (fun addr ->
        add "decode-coherence"
          "%sdecode cache entry at 0x%x disagrees with the word in memory"
          (if hart < 0 then "" else Printf.sprintf "hart %d: " hart)
          addr)
      (Machine.Memory.decode_audit mem)
  in
  if Array.length t.harts = 0 then stale_lines (-1) t.cpu.mem
  else Array.iteri (fun i (h : Machine.Cpu.t) -> stale_lines i h.mem) t.harts;

  (* -- replacement policy's victim ------------------------------------ *)
  (* [victim] must never name a pinned block: pin means exempt from
     eviction, full stop — the allocator trusts the policy on this. Nor
     a dead one: the policy reads only the tcache's residents, so a
     dead victim means that read went wrong. *)
  (let name = Softcache.Config.eviction_name t.cfg.eviction in
   match Softcache.Policy.victim t.cfg.eviction tc with
   | Some vb when Tcache.is_pinned tc vb.Tcache.id ->
     add "policy" "policy '%s' picked pinned block id=%d as victim (clock %d)"
       name vb.Tcache.id (Tcache.clock tc)
   | Some vb when not (Tcache.is_alive tc vb.Tcache.id) ->
     add "policy" "policy '%s' picked dead block id=%d as victim (clock %d)"
       name vb.Tcache.id (Tcache.clock tc)
   | Some _ | None -> ());

  (* -- trace attribution conserves ------------------------------------ *)
  (* Every explicit charge site labels its cycles and the residual is
     swept into execute, so the ledger must sum exactly to the CPU
     cycle counter at any audit point.  A gap means a charge path lost
     its label (or double-counted one) — the attribution numbers in the
     report would silently lie. *)
  (match t.tracer with
  | None -> ()
  | Some tr ->
    (* with harts attached the tracer's clock hops between per-hart
       cycle counters, so the single-counter conservation law does not
       apply — [shards] checks each hart's waits against its clock
       instead *)
    if
      Array.length t.harts = 0
      && not (Trace.conserved tr ~total:t.cpu.cycles)
    then begin
      let s = Trace.summary tr in
      add "trace"
        "attribution does not conserve: categories sum to %d, cpu.cycles=%d"
        s.Trace.s_total t.cpu.cycles
    end;
    let s = Trace.summary tr in
    if s.Trace.s_dropped <> max 0 (s.Trace.s_emitted - s.Trace.s_capacity)
    then
      add "trace" "ring accounting: emitted=%d capacity=%d but dropped=%d"
        s.Trace.s_emitted s.Trace.s_capacity s.Trace.s_dropped);

  List.rev !viols

let check_exn t =
  match run t with [] -> () | vs -> raise (Audit_failure vs)

let install (t : Controller.t) =
  let audits = ref 0 in
  let prev = t.on_event in
  t.on_event <-
    Some
      (fun ev ->
        (match prev with Some f -> f ev | None -> ());
        incr audits;
        check_exn t);
  audits

(* ---- multi-hart (sharded CC) invariants ---------------------------

   On top of the full per-controller audit, the shard layer's own
   books: the fills (single owners, nothing in flight at a quiescent
   point), the suspension-lease discipline (each resident block's
   lease count is the number of non-halted harts parked in it), the
   per-hart waits (non-negative, within the hart's clock, summing to
   the stats), and the mirrored tcache region (every hart's copy
   equals hart 0's). A resident chunk mapped twice is already a "map"
   violation of [run]. *)

let shards (s : Shard.t) : violation list =
  let viols = ref [] in
  let add invariant fmt =
    Format.kasprintf
      (fun detail -> viols := { invariant; detail } :: !viols)
      fmt
  in
  let c = Shard.controller s in
  let tc = c.tc in
  let blocks = Tcache.blocks tc in
  let harts = Shard.harts s in
  let n = List.length harts in

  (* -- fills: single owners, none in flight at a quiescent point ---- *)
  List.iter
    (fun (f : Shard.fill) ->
      if f.f_owner < 0 || f.f_owner >= n then
        add "shard-fill" "fill for v=0x%x owned by out-of-range hart %d"
          f.f_vaddr f.f_owner;
      if f.f_done = max_int then
        add "shard-fill" "fill for v=0x%x still in flight at a quiescent point"
          f.f_vaddr)
    (Shard.fills s);

  (* -- lease discipline: a lease lives only in the tcache, so each
        resident block's count must equal the non-halted harts parked
        in it (a lease on a dead id is [run]'s "leased" violation) --- *)
  List.iter
    (fun (b : Tcache.block) ->
      let parked =
        List.fold_left
          (fun acc (h : Shard.hart) ->
            if (not h.h_cpu.halted) && in_block b h.h_cpu.pc then acc + 1
            else acc)
          0 harts
      in
      let leases = Tcache.lease_count tc b.id in
      if leases <> parked then
        add "shard-lease" "block id=%d holds %d lease(s), %d hart(s) parked"
          b.id leases parked)
    blocks;

  (* -- per-hart waits ------------------------------------------------ *)
  List.iter
    (fun (h : Shard.hart) ->
      if h.h_wait_fill < 0 || h.h_wait_mc < 0 || Shard.run_cycles h < 0 then
        add "shard-ledger"
          "hart %d waits fill=%d + mc=%d are negative or exceed its clock %d"
          h.h_id h.h_wait_fill h.h_wait_mc h.h_cpu.cycles)
    harts;
  (* the aggregate statistics are the exact sums of the hart counters *)
  let sum get = List.fold_left (fun a h -> a + get h) 0 harts in
  let check_sum name stat get =
    let s = sum get in
    if stat <> s then
      add "shard-ledger" "stats.%s=%d but hart counters sum to %d" name stat s
  in
  check_sum "fills" c.stats.fills (fun (h : Shard.hart) -> h.h_fills);
  check_sum "fills_coalesced" c.stats.fills_coalesced (fun h -> h.h_joins);
  check_sum "fill_wait_cycles" c.stats.fill_wait_cycles (fun h -> h.h_wait_fill);
  check_sum "mc_wait_cycles" c.stats.mc_wait_cycles (fun h -> h.h_wait_mc);
  let makespan =
    List.fold_left (fun a (h : Shard.hart) -> max a h.h_cpu.cycles) 0 harts
  in
  if Shard.mc_free_at s > makespan then
    add "shard-ledger" "mc busy until %d, past every hart clock (max %d)"
      (Shard.mc_free_at s) makespan;

  (* -- tcache mirroring ---------------------------------------------- *)
  (* [Cc_state.write_word] mirrors every code write into every hart's
     private memory, so each hart's tcache region is word-for-word the
     controller CPU's (hart 0's). A missed mirror write leaves a hart
     running code the controller's books do not describe. *)
  (match harts with
  | [] -> ()
  | (h0 : Shard.hart) :: rest ->
    let lo = Config.tcache_base in
    let hi = lo + c.cfg.tcache_bytes in
    let read (h : Shard.hart) a = Machine.Memory.read32 h.h_cpu.mem a in
    List.iter
      (fun (h : Shard.hart) ->
        let differing = ref 0 and first = ref (-1) in
        let a = ref lo in
        while !a < hi do
          if read h !a <> read h0 !a then begin
            if !first < 0 then first := !a;
            incr differing
          end;
          a := !a + 4
        done;
        if !differing > 0 then
          add "shard-mirror"
            "hart %d's tcache region differs from hart %d's in %d word(s), \
             first at 0x%x (0x%08x, hart %d holds 0x%08x)"
            h.h_id h0.h_id !differing !first
            (read h !first land 0xFFFFFFFF)
            h0.h_id
            (read h0 !first land 0xFFFFFFFF))
      rest);

  (* plus the full per-controller audit of the shared cache *)
  List.rev !viols @ run c

(* ---- fleet-level invariants ---------------------------------------

   The per-controller sections above still apply to every session; on
   top of them the fleet MC keeps books that must balance:

   - the shared chunk cache respects its entry bound (and stays empty
     when dedup is off);
   - every demand attempt was served in exactly one way — its own
     frame, a piggyback ride, or a coalesced join — and the
     per-session counters sum to the MC's;
   - the shared link minted one message per dispatched frame (plus
     fault-injected duplicates) and none for piggybacks or joins;
   - isolation: no session holds (resident or staged) a chunk it never
     requested — the multi-tenant property a shared MC must not
     violate. *)

let fleet (f : Fleet.t) : violation list =
  let viols = ref [] in
  let add invariant fmt =
    Format.kasprintf
      (fun detail -> viols := { invariant; detail } :: !viols)
      fmt
  in
  let entries = Fleet.cache_entries f in
  if Fleet.dedup f then begin
    if entries > Fleet.cache_chunks then
      add "fleet-cache" "shared cache holds %d entries, bound %d" entries
        Fleet.cache_chunks
  end
  else if entries > 0 then
    add "fleet-cache" "dedup disabled yet shared cache holds %d entries"
      entries;
  let attempts = Fleet.attempts f
  and frames = Fleet.frames f
  and piggybacked = Fleet.piggybacked f
  and coalesced = Fleet.coalesced f in
  if attempts <> frames + piggybacked + coalesced then
    add "fleet-conserve"
      "attempts %d <> frames %d + piggybacked %d + coalesced %d" attempts
      frames piggybacked coalesced;
  let sessions = Fleet.sessions f in
  let sum get = Array.fold_left (fun a s -> a + get s) 0 sessions in
  let sf = sum Fleet.fetches in
  if sf <> attempts then
    add "fleet-conserve" "session fetches sum to %d, MC saw %d attempts" sf
      attempts;
  let sc = sum Fleet.session_coalesced in
  if sc <> coalesced then
    add "fleet-conserve" "session coalesced sum to %d, MC counted %d" sc
      coalesced;
  let msgs = Fleet.messages_delta f and dups = Fleet.duplicates_delta f in
  if msgs <> frames + dups then
    add "fleet-messages"
      "link minted %d messages, expected frames %d + duplicates %d" msgs
      frames dups;
  Array.iter
    (fun s ->
      let c = Fleet.controller s in
      let id = Fleet.session_id s in
      let img = Fleet.image s in
      (* under mixed workloads the request log alone can't catch
         cross-client leakage (two clients may legitimately request the
         same vaddr); every cached chunk must also decode from *this*
         client's text segment *)
      List.iter
        (fun (b : Tcache.block) ->
          if not (Fleet.requested s b.vaddr) then
            add "fleet-isolation"
              "client %d resident chunk 0x%x was never requested by it" id
              b.vaddr;
          if not (Isa.Image.contains_code img b.vaddr) then
            add "fleet-isolation"
              "client %d resident chunk 0x%x is outside its workload %s" id
              b.vaddr img.Isa.Image.name)
        (Tcache.blocks c.tc);
      List.iter
        (fun (v, (_ : Controller.staged)) ->
          if not (Fleet.requested s v) then
            add "fleet-isolation"
              "client %d staged chunk 0x%x was never requested by it" id v;
          if not (Isa.Image.contains_code img v) then
            add "fleet-isolation"
              "client %d staged chunk 0x%x is outside its workload %s" id v
              img.Isa.Image.name)
        c.staging)
    sessions;
  (* every session's own tcache invariants, prefixed per client; a
     multi-hart session gets the full shard audit (which itself ends in
     the per-controller [run]) *)
  Array.iter
    (fun s ->
      let id = Fleet.session_id s in
      let vs =
        match Fleet.shard s with
        | Some sh -> shards sh
        | None -> run (Fleet.controller s)
      in
      List.iter
        (fun v ->
          add "fleet-session" "client %d: [%s] %s" id v.invariant v.detail)
        vs)
    sessions;
  List.rev !viols

