(* Eviction: unlinking dead blocks (reverting their incoming pointers),
   scrubbing live landing-pad addresses off the stack into persistent
   return stubs, and redirecting CPUs parked in dead blocks. Every block
   that leaves the tcache flows through [process_evicted] with the
   reason it died; a flush is the eviction of every unpinned block. *)

open Cc_state

(* One bookkeeping stop for every block that leaves the tcache: the
   per-reason counter and the victim-age histogram advance, and the
   tracer records why. The tcache itself has already deregistered the
   block by the time we get here (allocation, invalidation and flush
   all remove first), and the policies' facts left with it. *)
let note_evicted t ~(reason : Policy.reason) (b : Tcache.block) =
  (* a superblock member dying de-promotes the whole group *)
  Cc_chain.dissolve_superblock t b;
  (match reason with
  | Policy.Victim -> t.stats.evicted_victim <- t.stats.evicted_victim + 1
  | Policy.Collateral ->
    t.stats.evicted_collateral <- t.stats.evicted_collateral + 1
  | Policy.Stub_growth ->
    t.stats.evicted_stub_growth <- t.stats.evicted_stub_growth + 1
  | Policy.Invalidated ->
    t.stats.evicted_invalidated <- t.stats.evicted_invalidated + 1
  | Policy.Flushed -> t.stats.evicted_flushed <- t.stats.evicted_flushed + 1);
  Stats.record_victim_age t.stats ~age:(t.cpu.cycles - b.installed_at);
  if tracing t then
    trace t
      (Trace.Cc_evict
         {
           chunk = b.vaddr;
           base = b.paddr;
           bytes = 4 * b.words;
           incoming = List.length b.incoming;
           reason;
         })

(* Every CPU this controller is responsible for: the solo CPU, or all
   harts of a multi-hart run. Stack scrubs and parked-pc redirects must
   cover each one — every hart's private stack may hold landing-pad
   addresses into the shared tcache. *)
let cpus t =
  if Array.length t.harts = 0 then [ t.cpu ] else Array.to_list t.harts

(* (cpu, resume vaddr) for each CPU parked on a word of a victim, in
   victim-major order and [cpus] order within a victim, consed onto
   [acc] in reverse. Allocates nothing when no CPU is parked. *)
let rec parked_in cpus (b : Tcache.block) acc =
  match cpus with
  | [] -> acc
  | (cpu : Machine.Cpu.t) :: rest ->
    let pc = cpu.pc in
    parked_in rest b
      (if pc >= b.paddr && pc < b.paddr + (4 * b.words) then
         (cpu, b.resume.((pc - b.paddr) asr 2)) :: acc
       else acc)

let rec parked cpus victims acc =
  match victims with
  | [] -> List.rev acc
  | b :: rest -> parked cpus rest (parked_in cpus b acc)

(* The one allocator of persistent slots: return stubs ([plt] false,
   in [ret_stubs]) and the PLT slots function-granularity calls jump
   through ([plt] true, in [plt]). A slot holds [Trap k] while its
   target is absent and a [Jmp] to it while resident. An existing slot
   is reused without allocating; a new one takes a word in [vaddr]'s
   home shard (persistent growth stays in one arena), which may evict
   blocks. *)
let rec persistent_slot t ~plt vaddr =
  let table = if plt then t.plt else t.ret_stubs in
  match Hashtbl.find_opt table vaddr with
  | Some (paddr, _) -> paddr
  | None -> (
    match
      Tcache.alloc_persistent ~shard:(Tcache.home_shard t.tc vaddr) t.tc
        ~words:1
    with
    | Error `Too_large -> raise Tcache_too_small
    | Ok (paddr, victims) ->
      process_evicted t ~reason_of:(fun _ -> Policy.Stub_growth) victims;
      let k =
        add_stub t (fun _k ->
            if plt then Stub.Plt { slot_paddr = paddr; target = vaddr }
            else Stub.Ret_stub { site_paddr = paddr; target = vaddr })
      in
      write_word t paddr (Isa.Encode.trap k);
      Hashtbl.replace table vaddr (paddr, k);
      if plt then t.stats.plt_slots <- t.stats.plt_slots + 1
      else t.stats.ret_stubs <- t.stats.ret_stubs + 1;
      paddr)

(* Redirect any live landing-pad address held in [ra] or on the stack
   into a persistent return stub. [pads] lists (pad paddr, return
   vaddr) for the pads that just died; pad addresses are unique among
   live blocks, so the first match is the only one. *)
and scrub_stack t cpus pads =
  let fixup v =
    match List.assoc_opt v pads with
    | Some ret_vaddr -> Some (persistent_slot t ~plt:false ret_vaddr)
    | None -> None
  in
  let scanned = ref 0 in
  (* every hart's ra and private stack can hold a doomed landing pad;
     stack words live in the hart's own memory, so the fixed-up word is
     written back there (no mirroring — stacks are private data) *)
  List.iter
    (fun (cpu : Machine.Cpu.t) ->
      (match fixup (Machine.Cpu.reg cpu Isa.Reg.ra) with
      | Some p -> Machine.Cpu.set_reg cpu Isa.Reg.ra p
      | None -> ());
      let sp = Machine.Cpu.reg cpu Isa.Reg.sp in
      let scan_range lo hi =
        let addr = ref (lo land lnot 3) in
        while !addr + 4 <= hi do
          incr scanned;
          (match fixup (Machine.Memory.read32 cpu.mem !addr) with
          | Some p -> Machine.Memory.write32 cpu.mem !addr p
          | None -> ());
          addr := !addr + 4
        done
      in
      scan_range (max 0 sp) t.stack_top;
      (* "any non-stack storage (e.g. thread control blocks) must be
         registered with the runtime system" *)
      List.iter (fun (lo, hi) -> scan_range lo hi) t.ra_regions)
    cpus;
  t.stats.scrubbed_words <- t.stats.scrubbed_words + !scanned;
  charge t Trace.Scrub (Config.scrub_cycles_per_word * !scanned)

and revert_incoming t victims =
  (* unlink: revert every recorded incoming pointer whose own block
     still owns the site — the stub bytes are restored before the
     victim's memory is reclaimed, so no patched branch ever dangles,
     and the reverted exit waits in its branch again *)
  List.iter
    (fun (b : Tcache.block) ->
      List.iter
        (fun (inc : Tcache.incoming) ->
          if
            inc.from_block = -1
            || Tcache.owns t.tc ~id:inc.from_block inc.site_paddr
          then begin
            write_word t inc.site_paddr inc.revert_word;
            t.stats.reverts <- t.stats.reverts + 1;
            charge t Trace.Patch Config.patch_cycles;
            if tracing t then
              trace t
                (Trace.Cc_unpatch { site = inc.site_paddr; target = b.paddr })
          end)
        b.incoming)
    victims

(* [reason_of] labels each victim for the per-reason stats and the
   trace; nested evictions caused by the scrub growing the
   persistent stub area are always [Stub_growth] regardless of what
   started the cascade. *)
and process_evicted t ~reason_of victims =
  if victims <> [] then begin
    (* a CPU parked inside a dead block (invalidate or flush between
       runs, or a suspended hart whose lease an eviction overrode) is
       found once, here, before the scrub or a nested stub-growth
       eviction can move any pc *)
    let cpus = cpus t in
    let parked = parked cpus victims [] in
    let n = List.length victims in
    if debug_logging () then
      Log.debug (fun m ->
          m "evict %d block(s): %s" n
            (String.concat ","
               (List.map
                  (fun (b : Tcache.block) -> Printf.sprintf "v=0x%x" b.vaddr)
                  victims)));
    t.stats.evicted_blocks <- t.stats.evicted_blocks + n;
    List.iter (fun b -> note_evicted t ~reason:(reason_of b) b) victims;
    revert_incoming t victims;
    Cc_chain.unlink_sources t victims;
    (* recycle the victims' stub entries right away: once their
       incoming pointers are reverted nothing references them, and the
       scrubbing below can itself evict (persistent stub growth) —
       leaving them allocated across that nested eviction would expose
       a transiently inconsistent stub table to the event hook *)
    free_block_stubs t victims;
    (* landing pads that may be live in return addresses *)
    let pads = List.concat_map (fun (b : Tcache.block) -> b.pads) victims in
    if pads <> [] then scrub_stack t cpus pads;
    (* park each captured CPU on a persistent stub for its resume
       address; most evictions park none, so skip building the loop *)
    if parked <> [] then
      List.iter
        (fun ((cpu : Machine.Cpu.t), rv) ->
          cpu.pc <- persistent_slot t ~plt:false rv)
        parked;
    if listening t then emit_event t (Evicted n)
  end

let do_flush t =
  let former = Tcache.reset t.tc in
  process_evicted t ~reason_of:(fun _ -> Policy.Flushed) former;
  t.stats.flushes <- t.stats.flushes + 1;
  trace t (Trace.Cc_flush { chunks = List.length former });
  emit_event t Flushed
