(* Host-time spans for the traced benchmark run.

   A span is one timed call into a layer, opened with [enter] and
   closed with [leave]; spans nest as pass -> cell -> cc_trap ->
   {netmodel, crc32, audit}. Closing a span adds its wall time to its
   layer's busy total and its time minus its children's to the layer's
   self total, so the self times of everything under a cell sum exactly
   to the cell's wall time. Minor-heap words are attributed the same
   way.

   The recorder must not change what it observes: the open/close path
   reads an unboxed clock and [Gc.minor_words] into preallocated arrays
   and allocates nothing, so a traced pass allocates exactly the words
   an untraced one does (the benchmark checks this). Individual span
   records are kept for the written trace up to a per-cell cap; the
   per-layer totals are exact whatever the cap drops. *)

(* The monotonic clock stub shipped with bechamel, declared here with an
   unboxed result so reading it never allocates. *)
external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let now_ns () = Int64.to_int (clock_ns ())

type layer = Pass | Cell | Cc_trap | Netmodel | Crc32 | Audit

let layers = [ Pass; Cell; Cc_trap; Netmodel; Crc32; Audit ]

let index = function
  | Pass -> 0
  | Cell -> 1
  | Cc_trap -> 2
  | Netmodel -> 3
  | Crc32 -> 4
  | Audit -> 5

let name = function
  | Pass -> "pass"
  | Cell -> "cell"
  | Cc_trap -> "cc_trap"
  | Netmodel -> "netmodel"
  | Crc32 -> "crc32"
  | Audit -> "audit"

let nlayers = List.length layers
let max_depth = 8

(* span records kept per cell below its cell span *)
let per_cell_cap = 2048

type t = {
  (* open spans, innermost at [depth - 1] *)
  st_layer : int array;
  st_start : int array;
  st_child : int array;  (** wall time of closed children *)
  st_words : float array;  (** minor words at open *)
  st_child_words : float array;
  st_record : int array;  (** index into the records, or -1 if dropped *)
  mutable depth : int;
  (* exact per-layer totals *)
  calls : int array;
  busy : int array;  (** ns, inclusive of children *)
  self : int array;  (** ns, children excluded *)
  self_words : float array;
  mutable crc_bytes : int;
  (* span records for the written trace *)
  mutable cell : int;  (** id shared by the spans of one cell run *)
  mutable cell_records : int;
  mutable r_layer : int array;
  mutable r_cell : int array;
  mutable r_start : int array;
  mutable r_stop : int array;
  mutable r_parent : int array;
  mutable nrecords : int;
  mutable dropped : int;
}

let create () =
  let cap = 4096 in
  {
    st_layer = Array.make max_depth 0;
    st_start = Array.make max_depth 0;
    st_child = Array.make max_depth 0;
    st_words = Array.make max_depth 0.0;
    st_child_words = Array.make max_depth 0.0;
    st_record = Array.make max_depth (-1);
    depth = 0;
    calls = Array.make nlayers 0;
    busy = Array.make nlayers 0;
    self = Array.make nlayers 0;
    self_words = Array.make nlayers 0.0;
    crc_bytes = 0;
    cell = -1;
    cell_records = 0;
    r_layer = Array.make cap 0;
    r_cell = Array.make cap 0;
    r_start = Array.make cap 0;
    r_stop = Array.make cap 0;
    r_parent = Array.make cap 0;
    nrecords = 0;
    dropped = 0;
  }

(* Growing the record arrays allocates, so it happens only in
   [new_pass] and [new_cell], which callers invoke outside any measured
   region; [enter] and [leave] never allocate. Pass and cell spans are
   always recorded; deeper spans up to [per_cell_cap] per cell. *)
let reserve t n =
  let cap = Array.length t.r_layer in
  if t.nrecords + n > cap then begin
    let grow a = Array.append a (Array.make (max cap n) 0) in
    t.r_layer <- grow t.r_layer;
    t.r_cell <- grow t.r_cell;
    t.r_start <- grow t.r_start;
    t.r_stop <- grow t.r_stop;
    t.r_parent <- grow t.r_parent
  end

let new_pass t = reserve t 1

let new_cell t =
  reserve t (per_cell_cap + 1);
  t.cell <- t.cell + 1;
  t.cell_records <- 0

let enter t layer =
  let d = t.depth in
  if d >= max_depth then invalid_arg "Spans.enter: nesting too deep";
  let l = index layer in
  let keep =
    (layer = Pass || layer = Cell || t.cell_records < per_cell_cap)
    && (d = 0 || t.st_record.(d - 1) >= 0)
    && t.nrecords < Array.length t.r_layer
  in
  let r =
    if keep then begin
      let r = t.nrecords in
      t.nrecords <- r + 1;
      if layer <> Pass && layer <> Cell then
        t.cell_records <- t.cell_records + 1;
      t.r_layer.(r) <- l;
      t.r_cell.(r) <- (if layer = Pass then -1 else t.cell);
      t.r_parent.(r) <- (if d = 0 then -1 else t.st_record.(d - 1));
      r
    end
    else begin
      t.dropped <- t.dropped + 1;
      -1
    end
  in
  t.st_layer.(d) <- l;
  t.st_record.(d) <- r;
  t.st_child.(d) <- 0;
  t.st_child_words.(d) <- 0.0;
  t.depth <- d + 1;
  t.st_words.(d) <- Gc.minor_words ();
  let start = now_ns () in
  t.st_start.(d) <- start;
  if r >= 0 then t.r_start.(r) <- start

let leave t =
  let stop = now_ns () in
  let words = Gc.minor_words () in
  let d = t.depth - 1 in
  if d < 0 then invalid_arg "Spans.leave: no open span";
  let l = t.st_layer.(d) in
  let dur = stop - t.st_start.(d) in
  let dwords = words -. t.st_words.(d) in
  t.calls.(l) <- t.calls.(l) + 1;
  t.busy.(l) <- t.busy.(l) + dur;
  t.self.(l) <- t.self.(l) + dur - t.st_child.(d);
  t.self_words.(l) <- t.self_words.(l) +. dwords -. t.st_child_words.(d);
  if d > 0 then begin
    t.st_child.(d - 1) <- t.st_child.(d - 1) + dur;
    t.st_child_words.(d - 1) <- t.st_child_words.(d - 1) +. dwords
  end;
  let r = t.st_record.(d) in
  if r >= 0 then t.r_stop.(r) <- stop;
  t.depth <- d

let calls t l = t.calls.(index l)
let busy_ns t l = t.busy.(index l)
let self_ns t l = t.self.(index l)
let busy_s t l = float_of_int t.busy.(index l) *. 1e-9
let self_s t l = float_of_int t.self.(index l) *. 1e-9
let self_words t l = t.self_words.(index l)
let crc_bytes t = t.crc_bytes
let add_crc_bytes t n = t.crc_bytes <- t.crc_bytes + n
let recorded t = t.nrecords
let dropped t = t.dropped

(* ---- instrumentation of a controller --------------------------------
   Each wrapper closes its span on the exceptional path too, so a
   failing cell leaves the stack balanced. *)

let time_trap_handler t (cpu : Machine.Cpu.t) =
  match cpu.trap_handler with
  | None -> ()
  | Some h ->
    cpu.trap_handler <-
      Some
        (fun c k ->
          enter t Cc_trap;
          match h c k with
          | () -> leave t
          | exception e ->
            leave t;
            raise e)

(* [mc_transport] set to a timed [Netmodel.transfer_batch] on the
   controller's own link is draw-identical to leaving it [None]; the
   same holds for [mc_crc] and [Crc32.bytes]. *)
let time_transport t (ctrl : Softcache.Controller.t) =
  let net = ctrl.cfg.Softcache.Config.net in
  ctrl.mc_transport <-
    Some
      (fun ~vaddr:_ ~prefetch_vaddrs:_ ~payloads ->
        enter t Netmodel;
        match Netmodel.transfer_batch net ~payloads with
        | r ->
          leave t;
          r
        | exception e ->
          leave t;
          raise e);
  ctrl.mc_crc <-
    Some
      (fun b ->
        enter t Crc32;
        let c = Softcache.Crc32.bytes b in
        add_crc_bytes t (Bytes.length b);
        leave t;
        c)

(* Wrap whatever [on_event] subscriber is installed (the auditor): every
   controller event it handles becomes one audit span. *)
let time_events t (ctrl : Softcache.Controller.t) =
  match ctrl.on_event with
  | None -> ()
  | Some f ->
    ctrl.on_event <-
      Some
        (fun ev ->
          enter t Audit;
          match f ev with
          | () -> leave t
          | exception e ->
            leave t;
            raise e)

(* ---- output ---------------------------------------------------------- *)

(* One JSON object per span: its cell id (-1 for a pass), layer name,
   start and end on the monotonic clock (ns) and its parent's line
   index (-1 at the root). *)
let write t path =
  Out_channel.with_open_text path (fun oc ->
      for r = 0 to t.nrecords - 1 do
        Printf.fprintf oc
          "{\"i\":%d,\"cell\":%d,\"name\":%S,\"start_ns\":%d,\
           \"end_ns\":%d,\"parent\":%d}\n"
          r t.r_cell.(r)
          (name (List.nth layers t.r_layer.(r)))
          t.r_start.(r) t.r_stop.(r) t.r_parent.(r)
      done)
