(** The ERISC interpreter.

    Executes encoded instructions out of {!Memory}, which is essential
    for the SoftCache: the rewriter patches encoded words in the
    translation cache while the program runs, and the CPU picks up the
    patched words on the next fetch, exactly as real hardware without
    an incoherent I-cache would.

    Two dispatch engines exist. {!Decoded} (the default) fetches
    through {!Memory.fetch_decoded}, the predecode cache whose lines
    are invalidated by the memory writes themselves — so runtime code
    rewriting is picked up on the next fetch exactly as under
    {!Interpretive}, which decodes every fetched word from scratch.
    The two are observationally identical by construction (they share
    the execute stage); [Check.Lockstep.engines] proves it per
    instruction, including across mid-run patches, evictions and
    flushes.

    Observable behaviour of a program = the sequence of [Out] values,
    the final register file and the final data memory. The equivalence
    property tests compare all three between native and softcached
    runs. *)

type fault =
  | Invalid_opcode of int  (** the undecodable word *)
  | Unaligned_fetch of int
  | Unaligned_access of int
  | Out_of_bounds of int
  | Division_by_zero
  | Unhandled_trap of int

exception Fault of fault * int
(** [(fault, pc)] — the machine stops; state is left as-is for
    inspection. *)

type outcome = Halted | Out_of_fuel

type engine =
  | Decoded
      (** fetch via the {!Memory} decode cache — the fast path, kept
          coherent with runtime code rewriting by write-driven
          invalidation inside {!Memory} *)
  | Interpretive
      (** decode every fetched word with [Isa.Encode.decode] — the
          reference the decoded engine is differentially tested
          against *)

type t = {
  mem : Memory.t;
  regs : int array;
      (** 32 signed 32-bit values. Index 0 is 0 and must never be
          written: {!set_reg} and every instruction skip it, and reads
          do not check it. *)
  engine : engine;
  mutable pc : int;
  mutable cycles : int;
  mutable retired : int;  (** instructions retired *)
  cost : Cost.t;
  mutable halted : bool;
  mutable outputs_rev : int list;
  mutable trap_handler : (t -> int -> unit) option;
      (** invoked on [Trap k] after charging [cost.trap_dispatch]; must
          set [pc] (and may add [cycles]) before returning *)
  mutable on_fetch : (int -> unit) option;
      (** called with each fetch's pc by {!step}; {!run} reads it once
          per call *)
  mutable on_load : (int -> unit) option;  (** byte address of data loads *)
  mutable on_store : (int -> unit) option;
}

val create : ?cost:Cost.t -> ?engine:engine -> mem:Memory.t -> pc:int -> unit -> t
(** A CPU over existing memory. [sp] is initialised to 16 bytes below
    the top of memory; all other registers are zero. [engine] defaults
    to {!Decoded}. *)

val of_image : ?cost:Cost.t -> ?engine:engine -> ?mem_bytes:int -> Isa.Image.t -> t
(** Load an image into fresh memory (default 8 MiB) and point [pc] at
    its entry — the "native", cache-less execution the paper's Fig. 5
    normalises against. *)

val reg : t -> Isa.Reg.t -> int
val set_reg : t -> Isa.Reg.t -> int -> unit

val step : t -> unit
(** Execute one instruction. @raise Fault on machine faults. *)

val run : ?fuel:int -> t -> outcome
(** Run until [Halt] or until [fuel] instructions have retired
    (default [max_int]). @raise Fault on machine faults.

    [run] reads [engine] and [on_fetch] once per call and picks its
    loop then: a {!Decoded} CPU with no [on_fetch] runs a loop that
    only reads the decode cache and executes; any other CPU goes
    through {!step}. So set [on_fetch] before calling [run]: a hook a
    trap handler sets mid-run is heard from the next call on. [run]
    allocates nothing per call. *)

val outputs : t -> int list
(** [Out] values in emission order. *)

val pp_fault : Format.formatter -> fault -> unit
