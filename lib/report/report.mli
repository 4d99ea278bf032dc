(** Result rendering for the benchmark harness.

    Plain-text tables, data series (the "figures"), ASCII bar charts
    and CSV output, plus the summary statistics the harness reports. *)

val csv_escape : string -> string
(** RFC-4180 CSV quoting: a cell containing a comma, double quote or
    CR/LF is double-quoted with embedded quotes doubled; anything else
    passes through. Shared by [Table.to_csv] and [Series.to_csv]. *)

module Table : sig
  type t

  val create : title:string -> columns:string list -> t

  val add_row : t -> string list -> unit
  (** @raise Invalid_argument if the cell count differs from the
      column count. *)

  val render : t -> string
  (** The aligned-column rendering as a string (no trailing newline);
      the header underline is exactly as wide as the rendered header
      line. *)

  val print : t -> unit
  (** [render] to stdout, newline-terminated. *)

  val to_csv : t -> string
  (** RFC-4180-style: cells containing commas, double quotes, or
      CR/LF are double-quoted with embedded quotes doubled. *)
end

module Series : sig
  type t

  val create : title:string -> xlabel:string -> ylabel:string -> t
  val add : t -> float -> float -> unit
  val points : t -> (float * float) list

  val print : ?bar_width:int -> t -> unit
  (** Render as an aligned x/y listing with proportional ASCII bars —
      the textual stand-in for the paper's figures. Bar lengths are
      clamped to zero for negative points (they render as an empty
      bar, never a crash). *)

  val to_csv : t -> string
  (** Header and cells quoted like [Table.to_csv] ([csv_escape]). *)
end

val mean : float list -> float
(** 0 on the empty list. *)

val geomean : ?on_nonpositive:[ `Error | `Skip ] -> float list -> float
(** Geometric mean; 0 on the empty list. Non-positive inputs have no
    logarithm, so they are never fed to [log]: with [`Error] (the
    default) they raise [Invalid_argument]; with [`Skip] they are
    dropped and the mean is taken over the remaining positive values
    (0 if none remain). *)

val percentile : float -> float list -> float
(** [percentile p samples] — the exact nearest-rank percentile: the
    element of rank [max 1 (ceil (p/100 * n))] (1-based) of the sorted
    samples. No interpolation, so the result is always a member of the
    input — p50 of [[1;2;3;4]] is [2.], p100 is the maximum, p0 the
    minimum. Deterministic: the same sample multiset yields the same
    element bit-for-bit, which the fleet-determinism gates rely on.
    @raise Invalid_argument on an empty list or [p] outside [0,100]. *)

val fmt_bytes : int -> string
(** "800 B", "24.0 KB", "1.5 MB". *)

val section : string -> unit
(** Print a banner separating experiments in the harness output. *)

val kv : string -> string -> unit
(** [kv key value] prints an aligned "  key : value" line. *)

val trace_summary :
  total:int ->
  execute:int ->
  translate:int ->
  wire:int ->
  trap:int ->
  dcache:int ->
  patch:int ->
  scrub:int ->
  lookup:int ->
  events:int ->
  dropped:int ->
  capacity:int ->
  unit
(** Cycle-attribution summary as [kv] rows: per-category cycles with
    their share of [total] (the CPU cycle counter), whether the
    categories conserve against it, and the event-ring occupancy
    including events dropped on wrap. *)
