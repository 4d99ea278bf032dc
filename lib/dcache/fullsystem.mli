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

val run : ?fuel:int -> Softcache.Controller.t -> Config.t -> result
(** Start a freshly created controller and execute its program under
    both caches. Observable behaviour must equal native execution
    (tested); the cycle count reflects local memory sized as tcache +
    scache + dcache. The caller creates the controller, so a rejected
    setting ([Controller.create]'s [Invalid_argument]) surfaces before
    anything runs. *)

val local_memory_bytes : Softcache.Config.t -> Config.t -> int
(** Total client memory the configuration implies: tcache region plus
    dcache blocks plus the scache frame buffer (64 B frames). *)
