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
(** Like [cached], but a [Controller.Chunk_unavailable] raised by a
    faulty interconnect is surfaced as a clean [Unavailable] status
    instead of an exception. [prepare] runs on the fresh controller
    before execution starts (install an auditor, pin chunks, ...). *)

val pp_status : Format.formatter -> status -> unit
