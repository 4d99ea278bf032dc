(* Trap dispatch: every [Trap] the rewriter planted lands here —
   unresolved direct exits (translate + backpatch), computed jumps and
   indirect calls (tcache-map lookup), and the persistent slots (return
   stubs and PLT slots), which share one arm. *)

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
    Cc_chain.patch_exit t k ~eager:false ~block ~site_paddr ~kind ~revert_word
      b;
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
  | Stub.Ret_stub { site_paddr = slot; target }
  | Stub.Plt { slot_paddr = slot; target } ->
    t.stats.lookups <- t.stats.lookups + 1;
    charge t Trace.Lookup Config.lookup_cycles;
    let b = Cc_translate.ensure_resident t target in
    (* specialise the slot into a direct jump while the target lives;
       the target's incoming record restores the trap word when it
       dies. A slot is never freed or moved, so the one that trapped is
       the one its table names for [target]. A return stub is
       specialised only here, so it still traps. A PLT slot is
       specialised when its callee installs, so this trap usually
       resumes through an already-specialised slot — unless the callee
       was resident before the slot was allocated (a function first
       reached through a pointer). *)
    if Isa.Encode.trap_index (Machine.Memory.read32 t.cpu.mem slot) = k then
      specialise_slot t ~slot k b;
    t.cpu.pc <- b.paddr
