(* The controller facade. The implementation lives in cohesive
   submodules — [Cc_state] (shared record + primitives), [Cc_evict]
   (eviction, scrubbing, flush), [Cc_staging] (prefetch staging +
   transport), [Cc_translate] (the miss path, asking [Policy.victim]
   which block dies) and [Cc_trap] (trap dispatch) — and this module
   includes the state types and exceptions and stitches the public API
   together. [controller.mli] restates the documented record with its
   equation ([type t = Cc_state.t = {...}]), so every [t.field] access
   in tests, benches and tools stays valid. *)

include Cc_state

let ensure_resident = Cc_translate.ensure_resident

let mem_bytes = 8 * 1024 * 1024

let create (cfg : Config.t) image =
  let data_end =
    image.Isa.Image.data_base + Bytes.length image.Isa.Image.data
  in
  let tcache_end = Config.tcache_base + cfg.tcache_bytes in
  if Config.tcache_base < data_end && tcache_end > image.Isa.Image.data_base
  then invalid_arg "Controller.create: tcache overlaps data segment";
  if tcache_end > mem_bytes then
    invalid_arg "Controller.create: tcache outside memory";
  let mem = Machine.Memory.create mem_bytes in
  Machine.Memory.load_data mem image;
  let cpu = Machine.Cpu.create ~engine:cfg.engine ~mem ~pc:0 () in
  let t =
    {
      cfg;
      image;
      cpu;
      harts = [||];
      tc =
        Tcache.create_sharded ~shards:cfg.shards ~base:Config.tcache_base
          ~bytes:cfg.tcache_bytes;
      stats = Stats.create ();
      staging = [];
      prefetch_ranker = None;
      temperature = None;
      chain_oracle = None;
      dynamic_text_hint = None;
      superblocks = Hashtbl.create 16;
      sb_of_block = Hashtbl.create 16;
      next_sb_id = 0;
      stubs = [||];
      nstubs = 0;
      ret_stubs = Hashtbl.create 64;
      plt = Hashtbl.create 64;
      gran_degraded = Hashtbl.create 8;
      stack_top = mem_bytes - 16;
      next_block_id = 0;
      started = false;
      ra_regions = [];
      free_stubs = [];
      on_event = None;
      tracer = None;
      alloc_guard = 64;
      mc_transport = None;
      mc_crc = None;
    }
  in
  cpu.trap_handler <- Some (fun _cpu k -> Cc_trap.handle_trap t k);
  t

(* Attach the observer last, after any pre-runs that share the config:
   the tracer clock reads this controller's cycle counter and the
   interconnect forwards its frame events to the same ring. Recording
   only ever appends to the ring — no cycle counter, statistic or rng
   draw is touched, so the traced run is identical to an untraced
   one. *)
let attach_tracer t tr =
  t.tracer <- Some tr;
  Trace.set_clock tr (fun () -> t.cpu.cycles);
  Netmodel.set_tracer t.cfg.net (Some tr)

(* Temperature is profile data threaded in the same post-create way as
   [prefetch_ranker]: the profiler lives above lib/core, so the caller
   hands us a closure over its classifier. Only trrip reads the prior
   it yields. *)
let set_temperature_oracle t f = t.temperature <- f

let start t =
  let b = ensure_resident t t.image.Isa.Image.entry in
  t.cpu.pc <- b.paddr;
  t.started <- true

let run ?fuel t =
  if not t.started then start t;
  Machine.Cpu.run ?fuel t.cpu

let invalidate t ~lo ~hi =
  Log.info (fun m -> m "invalidate [0x%x, 0x%x)" lo hi);
  (* staged copies of invalidated source ranges are stale code *)
  Cc_staging.drop_staged_in t ~lo ~hi;
  let victims =
    List.filter
      (fun (b : Tcache.block) ->
        b.vaddr < hi && b.vaddr + (4 * b.orig_words) > lo)
      (Tcache.blocks t.tc)
  in
  List.iter (Tcache.remove t.tc) victims;
  Cc_evict.process_evicted t ~reason_of:(fun _ -> Policy.Invalidated) victims;
  trace t (Trace.Cc_invalidate { chunks = List.length victims });
  emit_event t Invalidated

let flush t = Cc_evict.do_flush t

let register_ra_region t ~lo ~hi =
  if lo land 3 <> 0 || hi < lo then
    invalid_arg "Controller.register_ra_region";
  t.ra_regions <- (lo, hi) :: t.ra_regions

let pin t v =
  let b = ensure_resident t v in
  Tcache.pin t.tc b

let unpin t v =
  match Tcache.lookup t.tc v with
  | Some b -> Tcache.unpin t.tc b
  | None -> ()

let is_pinned t v =
  match Tcache.lookup t.tc v with
  | Some b -> Tcache.is_pinned t.tc b.id
  | None -> false

let preload t ~lo ~hi =
  let v = ref lo in
  while !v < hi do
    let b = ensure_resident t !v in
    v := !v + (4 * b.orig_words)
  done

let metadata_bytes t =
  (Tcache.map_entries t.tc * 12)
  + ((t.nstubs - List.length t.free_stubs) * 8)
  + (Hashtbl.length t.plt * 12)

let resident t v = Tcache.lookup t.tc v <> None
