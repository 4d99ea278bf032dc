type result = {
  outcome : Machine.Cpu.outcome;
  outputs : int list;
  cycles : int;
  retired : int;
  icache_stats : Softcache.Stats.t;
  dcache_stats : Sim.stats;
}

let run ?(fuel = max_int) (ctrl : Softcache.Controller.t) (dcfg : Config.t) =
  let cpu = ctrl.cpu in
  let dstats, after_step = Sim.attach dcfg cpu in
  Softcache.Controller.start ctrl;
  let steps = ref 0 in
  while not cpu.halted && !steps < fuel do
    Machine.Cpu.step cpu;
    incr steps;
    after_step ()
  done;
  cpu.cycles <- cpu.cycles + dstats.extra_cycles;
  {
    outcome =
      (if cpu.halted then Machine.Cpu.Halted else Machine.Cpu.Out_of_fuel);
    outputs = Machine.Cpu.outputs cpu;
    cycles = cpu.cycles;
    retired = cpu.retired;
    icache_stats = ctrl.stats;
    dcache_stats = dstats;
  }

let local_memory_bytes (icfg : Softcache.Config.t) (dcfg : Config.t) =
  icfg.tcache_bytes + dcfg.dcache_bytes + (dcfg.scache_frames * 64)
