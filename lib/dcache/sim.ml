type stats = {
  mutable const_hits : int;
  mutable fast_hits : int;
  mutable second_chance_hits : int;
  mutable slow_hits : int;
  mutable slow_probes : int;
  mutable misses : int;
  mutable deopts : int;
  mutable specialised_sites : int;
  mutable stack_accesses : int;
  mutable data_accesses : int;
  mutable scache_checks : int;
  mutable scache_spills : int;
  mutable scache_refills : int;
  mutable extra_cycles : int;
}

let create_stats () =
  {
    const_hits = 0;
    fast_hits = 0;
    second_chance_hits = 0;
    slow_hits = 0;
    slow_probes = 0;
    misses = 0;
    deopts = 0;
    specialised_sites = 0;
    stack_accesses = 0;
    data_accesses = 0;
    scache_checks = 0;
    scache_spills = 0;
    scache_refills = 0;
    extra_cycles = 0;
  }

type site = {
  mutable pred : int;
  mutable mono_addr : int;
  mutable mono_count : int;
  mutable specialised : bool;
  mutable dead : bool; (* deoptimised once; never specialise again *)
}

let log2_ceil = Bitmath.ceil_log2

let guaranteed_latency_cycles (cfg : Config.t) =
  let blocks = cfg.dcache_bytes / cfg.block_bytes in
  Config.predicted_hit_cycles
  + (Config.search_step_cycles * log2_ceil (max 2 blocks))

let tag_checks_avoided s =
  let total = s.stack_accesses + s.data_accesses in
  if total = 0 then 0.0
  else float_of_int (s.stack_accesses + s.const_hits) /. float_of_int total

let attach ?tracer (cfg : Config.t) (cpu : Machine.Cpu.t) =
  let stats = create_stats () in
  let trace ev =
    match tracer with Some tr -> Trace.emit tr ev | None -> ()
  in
  let assoc = Assoc.create ~blocks:(cfg.dcache_bytes / cfg.block_bytes) in
  let scache = Scache.create ~frames:cfg.scache_frames in
  let sites : (int, site) Hashtbl.t = Hashtbl.create 256 in
  let min_sp = ref (Machine.Cpu.reg cpu Isa.Reg.sp) in
  let charge c = stats.extra_cycles <- stats.extra_cycles + c in
  let site_for pc =
    match Hashtbl.find_opt sites pc with
    | Some s -> s
    | None ->
      let s =
        { pred = 0; mono_addr = -1; mono_count = 0; specialised = false;
          dead = false }
      in
      Hashtbl.add sites pc s;
      s
  in
  let track_mono s addr =
    if cfg.specialise_constants && not s.dead then
      if addr = s.mono_addr then begin
        s.mono_count <- s.mono_count + 1;
        if s.mono_count >= cfg.specialise_threshold then begin
          s.specialised <- true;
          stats.specialised_sites <- stats.specialised_sites + 1;
          trace (Trace.Dc_specialise { site = cpu.pc })
        end
      end
      else begin
        s.mono_addr <- addr;
        s.mono_count <- 1
      end
  in
  let data_access addr =
    stats.data_accesses <- stats.data_accesses + 1;
    let s = site_for cpu.pc in
    if s.specialised && addr = s.mono_addr then begin
      stats.const_hits <- stats.const_hits + 1;
      charge Config.const_cycles
    end
    else begin
      if s.specialised then begin
        (* the rewritten constant was wrong: deoptimise the site *)
        s.specialised <- false;
        s.dead <- true;
        stats.deopts <- stats.deopts + 1;
        trace (Trace.Dc_deopt { site = cpu.pc })
      end;
      let tag = addr / cfg.block_bytes in
      (match Assoc.lookup assoc ~pred:s.pred ~tag with
      | Assoc.Fast_hit, idx ->
        stats.fast_hits <- stats.fast_hits + 1;
        charge Config.predicted_hit_cycles;
        s.pred <- idx
      | Assoc.Slow_hit probes, idx ->
        if
          cfg.prediction = Config.Second_chance
          && Assoc.probe2 assoc ~pred:s.pred ~tag
        then begin
          stats.second_chance_hits <- stats.second_chance_hits + 1;
          charge (Config.predicted_hit_cycles + 2)
        end
        else begin
          stats.slow_hits <- stats.slow_hits + 1;
          stats.slow_probes <- stats.slow_probes + probes;
          charge
            (Config.predicted_hit_cycles + (Config.search_step_cycles * probes))
        end;
        s.pred <- idx
      | Assoc.Miss, _ ->
        stats.misses <- stats.misses + 1;
        trace (Trace.Dc_miss { addr });
        let probes = log2_ceil (max 2 (Assoc.occupancy assoc)) in
        charge
          (Config.predicted_hit_cycles
          + (Config.search_step_cycles * probes)
          + Config.miss_fixed_cycles
          + Netmodel.request cfg.net ~payload_bytes:cfg.block_bytes);
        let idx, _evicted = Assoc.insert assoc ~tag in
        s.pred <- idx);
      track_mono s addr
    end
  in
  let classify addr =
    (* the stack lives above the lowest stack pointer ever seen *)
    if addr >= !min_sp - 64 then begin
      stats.stack_accesses <- stats.stack_accesses + 1
    end
    else data_access addr
  in
  cpu.on_load <- Some classify;
  cpu.on_store <- Some classify;
  (* leaf procedures skip the exit check: track per depth whether the
     current frame has made a call *)
  let flags = ref (Bytes.make 64 '\000') in
  let flag_set d v =
    if d >= Bytes.length !flags then begin
      let bigger = Bytes.make (2 * (d + 1)) '\000' in
      Bytes.blit !flags 0 bigger 0 (Bytes.length !flags);
      flags := bigger
    end;
    Bytes.set !flags d (if v then '\001' else '\000')
  in
  let flag_get d =
    d < Bytes.length !flags && Bytes.get !flags d = '\001'
  in
  let prev_sp = ref (Machine.Cpu.reg cpu Isa.Reg.sp) in
  let on_sp_change now =
    if now < !prev_sp then begin
      (* procedure entry *)
      stats.scache_checks <- stats.scache_checks + 1;
      charge Config.scache_check_cycles;
      if Scache.enter scache then begin
        (* one frame spilled *)
        stats.scache_spills <- stats.scache_spills + 1;
        trace (Trace.Dc_spill { words = 1 });
        charge
          (Config.spill_refill_cycles
          + Netmodel.request cfg.net ~payload_bytes:64)
      end;
      let d = Scache.depth scache in
      flag_set d false;
      if d > 0 then flag_set (d - 1) true
    end
    else if now > !prev_sp then begin
      (* procedure exit; leaves skip the presence check *)
      let d = Scache.depth scache in
      if flag_get d then begin
        stats.scache_checks <- stats.scache_checks + 1;
        charge Config.scache_check_cycles
      end;
      if Scache.leave scache then begin
        stats.scache_refills <- stats.scache_refills + 1;
        trace (Trace.Dc_refill { words = 1 });
        charge
          (Config.spill_refill_cycles
          + Netmodel.request cfg.net ~payload_bytes:64)
      end
    end;
    prev_sp := now;
    if now < !min_sp then min_sp := now
  in
  let after_step () =
    let now = Machine.Cpu.reg cpu Isa.Reg.sp in
    if now <> !prev_sp then on_sp_change now
  in
  (stats, after_step)

let run ?(fuel = max_int) ?tracer (cfg : Config.t) img =
  let cpu = Machine.Cpu.of_image img in
  (match tracer with
  | Some tr ->
    Trace.set_clock tr (fun () -> cpu.cycles);
    Netmodel.set_tracer cfg.net (Some tr)
  | None -> ());
  let stats, after_step = attach ?tracer cfg cpu in
  let steps = ref 0 in
  while not cpu.halted && !steps < fuel do
    Machine.Cpu.step cpu;
    incr steps;
    after_step ()
  done;
  (* the dcache model's charges are folded in at the end: label them as
     dcache overhead so the attribution ledger conserves against the
     final cycle counter *)
  (match tracer with
  | Some tr -> Trace.attribute tr Trace.Dcache stats.extra_cycles
  | None -> ());
  cpu.cycles <- cpu.cycles + stats.extra_cycles;
  ((if cpu.halted then Machine.Cpu.Halted else Machine.Cpu.Out_of_fuel),
   cpu, stats)

let pp_stats ppf s =
  Format.fprintf ppf
    "data=%d (const=%d fast=%d 2nd=%d slow=%d miss=%d), stack=%d, \
     sites-specialised=%d deopts=%d, scache checks=%d spills=%d refills=%d, \
     extra cycles=%d, tag checks avoided=%.1f%%"
    s.data_accesses s.const_hits s.fast_hits s.second_chance_hits s.slow_hits
    s.misses s.stack_accesses s.specialised_sites s.deopts s.scache_checks
    s.scache_spills s.scache_refills s.extra_cycles
    (100.0 *. tag_checks_avoided s)
