(** The complete Section 3 memory system.

    "We propose to implement data caching in two pieces: a specialized
    stack cache (scache) and a general-purpose data cache (dcache).
    Local memory is thus statically divided into three regions: tcache,
    scache and dcache."

    This driver runs a program with instruction caching through the
    SoftCache controller *and* data caching through the Section 3
    design at the same time — the paper's full vision for the embedded
    client. *)

type result = {
  outcome : Machine.Cpu.outcome;
  outputs : int list;
  cycles : int;  (** including both caches' overheads *)
  retired : int;
  icache_stats : Softcache.Stats.t;
  dcache_stats : Sim.stats;
}

val run :
  ?fuel:int ->
  Softcache.Config.t ->
  Config.t ->
  Isa.Image.t ->
  result * Softcache.Controller.t
(** Execute under both caches. Observable behaviour must equal native
    execution (tested); the cycle count reflects local memory sized as
    tcache + scache + dcache. *)

val local_memory_bytes : Softcache.Config.t -> Config.t -> int
(** Total client memory the configuration implies: tcache region plus
    dcache blocks plus the scache frame buffer (64 B frames). *)
