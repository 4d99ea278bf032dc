(* Shared controller state: the record every cc_* module operates on,
   the public exceptions, and the small primitives (event/trace
   emission, cycle charging, stub-table and incoming-pointer
   bookkeeping) the other layers build on. The public surface is
   re-exported by [Controller]; everything here is reachable as
   [Softcache.Cc_state] for white-box tests. *)

type event =
  | Translated of int
  | Evicted of int
  | Flushed
  | Invalidated
  | Patched
  | Promoted of int

type staged = { st_bytes : Bytes.t; st_crc : int }

type superblock = { sb_head : int; sb_members : int list }

type t = {
  cfg : Config.t;
  image : Isa.Image.t;
  mutable cpu : Machine.Cpu.t;
      (* the CPU currently advancing under this controller. Solo runs
         never reassign it; the shard layer points it at whichever hart
         is scheduled, so cycle charges, stack scrubs and parked-pc
         redirects all land on the active hart *)
  mutable harts : Machine.Cpu.t array;
      (* every hart sharing this controller ([||] in solo runs; set by
         [Shard.attach]). Each hart owns a private memory whose tcache
         region is kept byte-identical by [write_word] mirroring —
         coherent shared code over private data *)
  tc : Tcache.t;
  stats : Stats.t;
  mutable staging : (int * staged) list;
      (* staged prefetched chunks by source vaddr, oldest first *)
  mutable prefetch_ranker : (lo:int -> hi:int -> int) option;
  mutable temperature : (lo:int -> hi:int -> Policy.temperature) option;
      (* profile temperature oracle over a source range; sampled once
         per install into the block's [prior], which only trrip reads *)
  mutable chain_oracle : (int -> (int * int) option) option;
      (* chunk vaddr -> hottest observed successor chunk and its edge
         temperature, from an offline profile; consulted on misses when
         [cfg.superblock_threshold > 0] *)
  mutable dynamic_text_hint : int option;
      (* profile-measured distinct executed code bytes
         ([Profiler.dynamic_text_bytes]), set alongside [chain_oracle];
         the promotion guard's working-set estimate — see
         [Cc_translate.promotion_guarded] *)
  pending_exits : (int, (int, unit) Hashtbl.t) Hashtbl.t;
      (* target vaddr -> exit stubs still in trap state aiming there;
         consulted on install for eager chaining ([cfg.chain]) *)
  superblocks : (int, superblock) Hashtbl.t;
      (* superblock id -> its head vaddr and member block ids *)
  sb_of_block : (int, int) Hashtbl.t;
  mutable next_sb_id : int;
  mutable stubs : Stub.t array;
  mutable nstubs : int;
  ret_stubs : (int, int * int) Hashtbl.t;
  plt : (int, int * int) Hashtbl.t;
      (* function vaddr -> (slot paddr, stub index); the PLT-style
         indirection table of function-granularity mode. Slots are
         persistent (call sites address them directly), hold [Trap k]
         while the function is absent and [Jmp paddr] while resident;
         patched on install, reverted through the target's incoming
         list on eviction *)
  gran_degraded : (int, int) Hashtbl.t;
      (* function entry vaddr -> end of its contiguous extent, for
         functions whose whole-body unit could not be cached (too big
         for the tcache, or not contiguously decodable): every miss
         inside a recorded extent chunks at block granularity instead.
         Sticky — degradation is a property of the function, not of a
         particular cache state *)
  stack_top : int;
  mutable next_block_id : int;
  mutable started : bool;
  mutable ra_regions : (int * int) list;
      (* registered non-stack storage holding return addresses *)
  mutable free_stubs : int list;
      (* recycled stub-table entries from evicted blocks; the live
         entries are the other [nstubs - List.length free_stubs] *)
  mutable on_event : (event -> unit) option;
  mutable tracer : Trace.t option;
  mutable alloc_guard : int;
      (* bound on translate's re-allocation rounds when eviction
         processing keeps growing the persistent stub area into the
         fresh placement; mutable as a test hook so the exhaustion
         exception is reachable without a pathological workload *)
  mutable mc_transport :
    (vaddr:int ->
    prefetch_vaddrs:int list ->
    payloads:Bytes.t list ->
    (int * Bytes.t list, Netmodel.error) result)
    option;
      (* server-side transport interposition: when set (a fleet MC
         multiplexing a shared link), demand frames dispatch through it
         instead of going straight to [cfg.net]. [None] (the default)
         is the direct single-client path. The reply may carry fewer
         segments than were offered — a coalesced delivery returns the
         demand segment only *)
  mutable mc_crc : (Bytes.t -> int) option;
      (* server-side CRC stamping; a fleet MC memoizes through its
         shared chunk cache so identical content across clients is
         chunked and CRC-computed once. [None] computes directly *)
}

exception Chunk_too_large of int
exception Tcache_too_small
exception Chunk_unavailable of { vaddr : int; attempts : int }

exception Internal_invariant_broken of { chunk : int; detail : string }
(* a controller bookkeeping invariant failed while processing this
   chunk — diagnosable (unlike a bare assert) in audit-off runs *)

exception
  Alloc_guard_exhausted of {
    loops : int;  (* the guard value the loop started from *)
    base : int;  (* code region is [base, persist_base) *)
    persist_base : int;  (* stub region is [persist_base, top) *)
    top : int;
  }

let emit_event t ev = match t.on_event with Some f -> f ev | None -> ()
let trace t ev = match t.tracer with Some tr -> Trace.emit tr ev | None -> ()

let log_src =
  Logs.Src.create "softcache.controller"
    ~doc:"SoftCache cache-controller events"

module Log = (val Logs.src_log log_src)

(* Guards the miss path's [Log.debug] calls, so a run with debug logging
   off does not build their message closures. *)
let debug_logging () = Logs.Src.level log_src = Some Logs.Debug

(* Every explicit client-side charge is labelled with its attribution
   category so an attached tracer can conserve: the labelled categories
   plus the execute residual sum exactly to [cpu.cycles]. *)
let charge t cat c =
  (match t.tracer with Some tr -> Trace.attribute tr cat c | None -> ());
  t.cpu.cycles <- t.cpu.cycles + c

(* Code writes into the tcache region are mirrored into every hart's
   private memory (through [Memory.write32], so each hart's decode
   cache invalidates): the simulated harts share the tcache coherently
   while keeping data memory private. Writes outside the tcache region
   (stack scrubs, program stores) touch only the active CPU. *)
let write_word t addr w =
  Machine.Memory.write32 t.cpu.mem addr w;
  if
    Array.length t.harts > 0
    && addr >= Config.tcache_base
    && addr < Config.tcache_base + t.cfg.tcache_bytes
  then
    Array.iter
      (fun (h : Machine.Cpu.t) ->
        if h != t.cpu then Machine.Memory.write32 h.mem addr w)
      t.harts

(* Install a delivered segment at [addr], a block placement (so inside
   the tcache region): one range write per hart memory. It mirrors to
   the harts as [write_word] does and drops exactly the decode lines
   one [write_word] per word would. *)
let write_payload t addr b =
  Machine.Memory.write_bytes t.cpu.mem addr b;
  if Array.length t.harts > 0 then
    Array.iter
      (fun (h : Machine.Cpu.t) ->
        if h != t.cpu then Machine.Memory.write_bytes h.mem addr b)
      t.harts

let add_stub t make =
  match t.free_stubs with
  | k :: rest ->
    t.free_stubs <- rest;
    t.stubs.(k) <- make k;
    k
  | [] ->
    if t.nstubs = Array.length t.stubs then begin
      let bigger =
        Array.make (max 64 (2 * t.nstubs)) (Stub.Computed { rs = Isa.Reg.ra })
      in
      Array.blit t.stubs 0 bigger 0 t.nstubs;
      t.stubs <- bigger
    end;
    let k = t.nstubs in
    t.stubs.(k) <- make k;
    t.nstubs <- k + 1;
    k

(* ---- pending-exit index (eager chaining) ----
   Every unresolved exit stub is indexed by its target vaddr so a fresh
   install can patch all the branches already waiting for it. *)

let pending_add t ~target k =
  match Hashtbl.find_opt t.pending_exits target with
  | Some ks -> Hashtbl.replace ks k ()
  | None ->
    let ks = Hashtbl.create 4 in
    Hashtbl.replace ks k ();
    Hashtbl.replace t.pending_exits target ks

let pending_remove t ~target k =
  match Hashtbl.find_opt t.pending_exits target with
  | Some ks ->
    Hashtbl.remove ks k;
    if Hashtbl.length ks = 0 then Hashtbl.remove t.pending_exits target
  | None -> ()

let pending_mem t ~target k =
  match Hashtbl.find_opt t.pending_exits target with
  | Some ks -> Hashtbl.mem ks k
  | None -> false

let pending_at t target =
  match Hashtbl.find_opt t.pending_exits target with
  | None -> []
  | Some ks -> List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) ks [])

let free_stub_list t ks =
  List.iter
    (fun k ->
      (match t.stubs.(k) with
      | Stub.Exit { target; _ } -> pending_remove t ~target k
      | _ -> ());
      t.free_stubs <- k :: t.free_stubs)
    ks

(* A dead block's stub entries can never fire again (its memory is
   unreachable once the resume redirect has run), so they are recycled
   — this is what keeps CC metadata proportional to residency. *)
let free_block_stubs t victims =
  List.iter (fun (b : Tcache.block) -> free_stub_list t b.stubs) victims

(* The one record of a patched edge, kept on its target. The source
   side needs no copy: a block's own [Exit] stubs name every edge it
   can have patched, and [stub] says which one to re-arm on unpatch. *)
let record_incoming (b : Tcache.block) ~from_block ~site_paddr ~revert_word
    ~stub =
  b.incoming <-
    { Tcache.from_block; site_paddr; revert_word; stub } :: b.incoming

(* The one write of a direct transfer into cached code after
   translation: exit sites, branch islands, return stubs and PLT slots
   all come through here, as every unpatch goes through
   [Cc_evict.revert_incoming]. [word] lands at [at], aimed at [b], and
   is recorded on [b] so its eviction can put [revert_word] back; the
   trace names [site], the exit whose branch the patch serves. *)
let specialise t ~at ~site ~word (b : Tcache.block) ~from_block ~revert_word
    ~stub =
  write_word t at word;
  record_incoming b ~from_block ~site_paddr:at ~revert_word ~stub;
  t.stats.patches <- t.stats.patches + 1;
  charge t Trace.Patch Config.patch_cycles;
  trace t (Trace.Cc_backpatch { site; target = b.paddr });
  emit_event t Patched

(* Specialise persistent slot [k] at [slot] (a return stub or a PLT
   slot, which [plt_patches] also counts) into a jump at [b]; [b]'s
   eviction re-arms its trap. *)
let specialise_slot t ~slot k (b : Tcache.block) =
  (match t.stubs.(k) with
  | Stub.Plt _ -> t.stats.plt_patches <- t.stats.plt_patches + 1
  | _ -> ());
  specialise t ~at:slot ~site:slot
    ~word:(Isa.Encode.jmp b.paddr)
    b ~from_block:(-1)
    ~revert_word:(Isa.Encode.trap k)
    ~stub:k

(* ---- granularity ----
   The single effective-granularity chunk acquisition point. Block mode
   defers to the configured chunking untouched. Function mode chunks
   the whole enclosing function as one unit, except for functions that
   have been degraded to block granularity: a unit that cannot be
   cached ([Chunker.function_unit]'s rule, or a body the tcache can
   never hold) is recorded in [gran_degraded] and every miss inside
   its extent — this one and all later ones — chunks as a basic block
   instead.
   Degradation is sticky because it is a property of the function
   (size, decodability, capacity), not of a particular cache state. *)

let record_degraded t v hi =
  Hashtbl.replace t.gran_degraded v (max hi (v + 4));
  t.stats.gran_degraded <- t.stats.gran_degraded + 1;
  trace t (Trace.Cc_degrade { chunk = v; bytes = max hi (v + 4) - v })

let in_degraded_extent t v =
  Hashtbl.fold
    (fun lo hi acc -> acc || (v >= lo && v < hi))
    t.gran_degraded false

let chunk_for t v =
  match t.cfg.granularity with
  | Config.Block -> Chunker.chunk_at t.image t.cfg.chunking v
  | Config.Function ->
    if in_degraded_extent t v then
      Chunker.chunk_at t.image Config.Basic_block v
    else begin
      match Chunker.function_unit t.image v with
      | Ok c -> c
      | Error hi ->
        record_degraded t v hi;
        Chunker.chunk_at t.image Config.Basic_block v
    end

let resident_oracle t v =
  match Tcache.lookup t.tc v with
  | Some b -> Some (b, b.paddr)
  | None -> None
