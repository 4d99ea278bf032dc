(* Trap dispatch: every [Trap] the rewriter planted lands here —
   unresolved direct exits (translate + backpatch), computed jumps and
   indirect calls (tcache-map lookup), and persistent return stubs. *)

open Cc_state

let handle_trap t k =
  (* the CPU has already added [trap_dispatch] to the cycle counter
     before handing control to us *)
  t.stats.traps <- t.stats.traps + 1;
  (match t.tracer with
  | Some tr -> Trace.attribute_included tr Trace.Trap t.cpu.cost.trap_dispatch
  | None -> ());
  match t.stubs.(k) with
  | Stub.Exit { block; site_paddr; kind; target; revert_word } ->
    (* capture the stub fields before [ensure_resident]: the
       translation can evict [block] and recycle entry [k] *)
    let b = Cc_translate.ensure_resident t target in
    Cc_chain.patch_exit t k ~eager:false ~block ~site_paddr ~kind ~target
      ~revert_word b;
    t.cpu.pc <- b.paddr
  | Stub.Computed { rs } ->
    t.stats.lookups <- t.stats.lookups + 1;
    charge t Trace.Lookup Config.lookup_cycles;
    let target = Machine.Cpu.reg t.cpu rs in
    let b = Cc_translate.ensure_resident t target in
    t.cpu.pc <- b.paddr
  | Stub.Icall { rd; rs; pad_paddr } ->
    t.stats.lookups <- t.stats.lookups + 1;
    charge t Trace.Lookup Config.lookup_cycles;
    let target = Machine.Cpu.reg t.cpu rs in
    Machine.Cpu.set_reg t.cpu rd pad_paddr;
    let b = Cc_translate.ensure_resident t target in
    t.cpu.pc <- b.paddr
  | Stub.Ret_stub { site_paddr; target } ->
    t.stats.lookups <- t.stats.lookups + 1;
    charge t Trace.Lookup Config.lookup_cycles;
    let b = Cc_translate.ensure_resident t target in
    (* specialise this stub into a direct jump while the target lives;
       the target's incoming record restores the trap word when it
       dies, whether evicted, invalidated or flushed. A return stub is
       never freed or moved, so the stub that trapped is the one
       [ret_stubs] names for [target]. *)
    write_word t site_paddr (enc (Isa.Instr.Jmp b.paddr));
    record_incoming b ~from_block:(-1) ~site_paddr
      ~revert_word:(enc (Isa.Instr.Trap k)) ~stub:k;
    t.stats.patches <- t.stats.patches + 1;
    charge t Trace.Patch Config.patch_cycles;
    trace t (Trace.Cc_backpatch { site = site_paddr; target = b.paddr });
    emit_event t Patched;
    t.cpu.pc <- b.paddr
  | Stub.Plt { slot_paddr; target } ->
    t.stats.lookups <- t.stats.lookups + 1;
    charge t Trace.Lookup Config.lookup_cycles;
    let b = Cc_translate.ensure_resident t target in
    (* translating a missing callee patches its slot on install, so
       this trap usually resumes through an already-patched slot. A
       slot is allocated when its caller is translated, though, so its
       callee can already be resident (a function first reached through
       a pointer): that slot starts as a trap word and is specialised
       here *)
    (if Machine.Memory.read32 t.cpu.mem slot_paddr = enc (Isa.Instr.Trap k)
     then
       match Tcache.find_by_id t.tc b.id with
       | Some tb ->
         write_word t slot_paddr (enc (Isa.Instr.Jmp tb.paddr));
         record_incoming tb ~from_block:(-1) ~site_paddr:slot_paddr
           ~revert_word:(enc (Isa.Instr.Trap k)) ~stub:k;
         t.stats.patches <- t.stats.patches + 1;
         t.stats.plt_patches <- t.stats.plt_patches + 1;
         charge t Trace.Patch Config.patch_cycles;
         trace t
           (Trace.Cc_backpatch { site = slot_paddr; target = tb.paddr });
         emit_event t Patched
       | None -> ());
    t.cpu.pc <- b.paddr
