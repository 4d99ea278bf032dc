(** Convenience drivers used by tests, examples and benches. *)

type result = {
  outcome : Machine.Cpu.outcome;
  outputs : int list;  (** the program's observable output *)
  cycles : int;
  retired : int;
}

val native : ?fuel:int -> Isa.Image.t -> result
(** Run the image directly, with no caching — the paper's "ideal"
    baseline. *)

val cached : ?fuel:int -> Config.t -> Isa.Image.t -> result * Controller.t
(** Run the image under the SoftCache; also returns the controller for
    statistics inspection. *)

val slowdown : native:result -> cached:result -> float
(** Relative execution time, cached cycles / native cycles — the Fig. 5
    metric. *)

type status =
  | Finished of Machine.Cpu.outcome
  | Unavailable of { vaddr : int; attempts : int }
      (** the interconnect never delivered this chunk intact within the
          retry budget; execution stopped cleanly *)
  | Tcache_too_small
      (** the persistent stub area could not grow, or pinned and leased
          blocks crowded out a chunk that fits an empty arena *)
  | Chunk_too_large of int
      (** the chunk at this vaddr does not fit the tcache at all *)

val status_of : (unit -> Machine.Cpu.outcome) -> status
(** Run a controller (solo or multi-hart) and map the typed failures
    [Controller.Chunk_unavailable], [Controller.Tcache_too_small] and
    [Controller.Chunk_too_large] to their statuses; any other exception
    propagates. *)

type robust = {
  status : status;
  outputs : int list;  (** outputs produced up to the stop point *)
  cycles : int;
  retired : int;
}

val cached_robust :
  ?fuel:int ->
  ?prepare:(Controller.t -> unit) ->
  Config.t ->
  Isa.Image.t ->
  robust * Controller.t
(** Like [cached], but the typed failures of {!status_of} (a faulty
    interconnect, a tcache too small for the workload) are surfaced as
    a status instead of an exception. [prepare] runs on the fresh
    controller before execution starts (install an auditor, pin
    chunks, ...). *)

val pp_status : Format.formatter -> status -> unit
