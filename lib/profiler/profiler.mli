(** Flat execution profiler — the reproduction's gprof.

    The paper sized CC memory by profiling: "the hot code was initially
    identified by using gprof to determine which functions constituted
    at least 90% of the application run time" (§2.4). This profiler
    attaches to the interpreter's fetch hook during a native run, counts
    samples per procedure symbol, and extracts the hot set and the
    footprint numbers behind Table 1 and Figure 9. *)

type entry = {
  name : string;
  addr : int;
  size_bytes : int;  (** static size of the procedure *)
  samples : int;  (** instruction fetches attributed to it *)
  fraction : float;  (** samples / total samples *)
}

type t

val create : Isa.Image.t -> t

val attach : t -> Machine.Cpu.t -> unit
(** Install the fetch hook (chains any hook already present). *)

val profile : ?fuel:int -> Isa.Image.t -> t * Machine.Cpu.t
(** Run the image natively to completion with profiling attached. *)

val total_samples : t -> int

val entries : t -> entry list
(** Per-symbol flat profile, hottest first. Fetches outside any symbol
    are collected under the pseudo-entry ["<unattributed>"]. *)

val hot_set : ?threshold:float -> t -> entry list
(** Smallest prefix of the flat profile covering at least [threshold]
    (default 0.9) of all samples — the paper's 90% rule. The cut is
    computed in integer samples (never accumulated float fractions), so
    the edge cases are exact: a zero-sample profile yields [[]], and
    [threshold:1.0] yields every sample-bearing entry. *)

val hot_bytes : ?threshold:float -> t -> int
(** Static footprint of the hot set. *)

type temperature = Hot | Warm | Cold

val temperature_name : temperature -> string
(** "hot" / "warm" / "cold". *)

val temperature_classifier :
  ?hot:float -> ?warm:float -> t -> lo:int -> hi:int -> temperature
(** Classify source ranges by cumulative-share bands over the per-word
    sample counts ([samples_in] granularity, the [hot_set] machinery at
    word level): executed words are ranked hottest first, and the
    per-word counts at which the cumulative share crosses [hot]
    (default 0.5) and [warm] (default 0.9) delimit the hot and warm
    bands. A range is [Hot] ([Warm]) when the majority of its own
    execution mass lives in hot-band (warm-band) words — so a loop
    block reads hot even when the surrounding symbol dilutes it with
    run-once code — and [Cold] otherwise (including never-executed
    ranges). Degenerate profiles — zero samples, or every executed word
    equally hot — classify everything [Cold], the prior under which
    [trrip] decides exactly as it does unprimed (plain RRIP). Feeds
    [Controller.set_temperature_oracle] (convert to
    [Policy.temperature] at the call site).
    @raise Invalid_argument unless [0 <= hot <= warm <= 1]. *)

val dynamic_text_bytes : t -> int
(** Bytes of distinct instructions fetched at least once — Table 1's
    "dynamic .text". *)

val samples_in : t -> lo:int -> hi:int -> int
(** Fetch samples attributed to the address range [lo, hi). A final
    word only partially covered by an unaligned [hi] counts — the
    hotness oracle the prefetch ranker plugs into
    [Controller.prefetch_ranker]. *)

val touched_in : t -> lo:int -> hi:int -> int
(** Distinct instruction bytes executed within an address range. A
    partially covered final word counts, as for [samples_in]. *)

val edges_from : t -> int -> (int * int) list
(** Observed taken control transfers out of the instruction at a source
    vaddr, as [(target vaddr, count)] pairs, hottest first (ties by
    lower target). Sequential successors ([src + 4]) are not edges:
    fall-through temperature is [samples_in] at the source minus the
    taken counts. Feeds the superblock chain oracle
    ([Cc_chain.oracle_of_profile]). *)

val pp : Format.formatter -> t -> unit
(** The flat profile, gprof-style. *)
