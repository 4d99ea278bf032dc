(** Configuration of the Section 3 software data cache.

    Cycle prices follow the instruction sequences of Figure 10:
    - a specialised (rewritten) constant-address access is a single
      load;
    - a predicted hit runs the 9-instruction check-and-index sequence;
    - a slow hit adds a binary search of the sorted dcache;
    - a miss adds the server round trip and block transfer;
    - stack-cache presence checks run at procedure entry/exit. *)

type prediction =
  | Same_index  (** predict the previously used block index *)
  | Second_chance
      (** on a failed prediction, probe index+1 before searching *)

type t = {
  dcache_bytes : int;
  block_bytes : int;  (** power of two *)
  scache_frames : int;  (** frames the circular stack buffer holds *)
  prediction : prediction;
  specialise_constants : bool;
      (** rewrite accesses that have shown a constant address into
          direct loads (deoptimised on the first conflicting access) *)
  specialise_threshold : int;
      (** accesses with a stable address before a site is rewritten *)
  net : Netmodel.t;
      (** a fresh local interconnect per config: the link holds the
          run's message and byte counters *)
}

val make :
  ?dcache_bytes:int ->
  ?block_bytes:int ->
  ?scache_frames:int ->
  ?prediction:prediction ->
  ?specialise_constants:bool ->
  ?specialise_threshold:int ->
  unit ->
  t
(** Defaults: 8 KiB dcache of 32-byte blocks, 16-frame scache,
    [Same_index] prediction, constant specialisation on (threshold
    32). *)

(** {2 Cycle prices} *)

val const_cycles : int
(** Specialised access (1 load): 2. *)

val predicted_hit_cycles : int
(** Fig. 10 check-and-index sequence, ~9 instructions: 9. *)

val search_step_cycles : int
(** Per binary-search probe of a slow hit: 6. *)

val miss_fixed_cycles : int
(** Fixed client cost of a miss, on top of the transfer: 40. *)

val scache_check_cycles : int
(** Stack-cache presence check at entry/exit: 3. *)

val spill_refill_cycles : int
(** Per frame moved to/from the server: 64. *)

val pp : Format.formatter -> t -> unit
