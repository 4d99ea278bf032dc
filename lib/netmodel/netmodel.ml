(* Deterministic splitmix64: the fault schedule must be reproducible
   from the seed alone, independent of global Random state. *)
module Rng = struct
  type t = { mutable s : int64 }

  let golden = 0x9E3779B97F4A7C15L

  let create seed = { s = Int64.mul (Int64.of_int (seed + 1)) golden }

  let next t =
    t.s <- Int64.add t.s golden;
    let z = t.s in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
        0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
        0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  (* uniform in [0, 1) from the top 53 bits *)
  let float t =
    Int64.to_float (Int64.shift_right_logical (next t) 11) *. 0x1p-53

  (* Rejection sampling over the top 63 bits: plain [Int64.rem] would
     bias non-power-of-two bounds toward low residues (the first
     [2^63 mod bound] values appear once more often than the rest). *)
  let int t bound =
    if bound <= 0 then invalid_arg "Rng.int";
    let b = Int64.of_int bound in
    (* largest v with the full [bound] residues below it *)
    let limit =
      Int64.sub Int64.max_int
        (Int64.rem (Int64.add (Int64.rem Int64.max_int b) 1L) b)
    in
    let rec draw () =
      let v = Int64.shift_right_logical (next t) 1 in
      if v > limit then draw () else Int64.to_int (Int64.rem v b)
    in
    draw ()
end

module Faults = struct
  type t = {
    seed : int;
    drop : float;  (* P(frame lost in flight) *)
    corrupt : float;  (* P(one payload bit flipped) *)
    duplicate : float;  (* P(frame retransmitted spuriously) *)
    delay_spike : float;  (* P(delivery delayed by [spike_cycles]) *)
    spike_cycles : int;
  }

  let none =
    { seed = 0; drop = 0.; corrupt = 0.; duplicate = 0.; delay_spike = 0.;
      spike_cycles = 0 }

  let check_prob name p =
    if p < 0. || p > 1. then
      invalid_arg (Printf.sprintf "Netmodel.Faults.make: %s not in [0,1]" name)

  let make ?(seed = 1) ?(drop = 0.) ?(corrupt = 0.) ?(duplicate = 0.)
      ?(delay_spike = 0.) ?(spike_cycles = 10_000) () =
    check_prob "drop" drop;
    check_prob "corrupt" corrupt;
    check_prob "duplicate" duplicate;
    check_prob "delay_spike" delay_spike;
    if spike_cycles < 0 then
      invalid_arg "Netmodel.Faults.make: negative spike_cycles";
    { seed; drop; corrupt; duplicate; delay_spike; spike_cycles }

  let is_none f =
    f.drop = 0. && f.corrupt = 0. && f.duplicate = 0. && f.delay_spike = 0.

  let pp ppf f =
    if is_none f then Format.pp_print_string ppf "no faults"
    else
      Format.fprintf ppf
        "faults seed=%d drop=%g corrupt=%g dup=%g spike=%g/%dcyc" f.seed
        f.drop f.corrupt f.duplicate f.delay_spike f.spike_cycles
end

type t = {
  latency_cycles : int;
  cycles_per_byte : int;
  overhead_bytes : int;
  faults : Faults.t;
  rng : Rng.t;
  mutable messages : int;
  mutable payload : int;
  mutable drops : int;
  mutable corruptions : int;
  mutable duplicates : int;
  mutable delay_spikes : int;
  mutable tracer : Trace.t option;
      (* observer only: emitting reads nothing back and never touches
         the rng draw stream or the counters above *)
}

let create ?(latency_cycles = 0) ?(cycles_per_byte = 0) ?(overhead_bytes = 0)
    ?(faults = Faults.none) () =
  {
    latency_cycles;
    cycles_per_byte;
    overhead_bytes;
    faults;
    rng = Rng.create faults.Faults.seed;
    messages = 0;
    payload = 0;
    drops = 0;
    corruptions = 0;
    duplicates = 0;
    delay_spikes = 0;
    tracer = None;
  }

let set_tracer t tr = t.tracer <- tr

let trace t ev = match t.tracer with Some tr -> Trace.emit tr ev | None -> ()

(* Tested before building a per-frame event, so an untraced transfer
   allocates none. *)
let tracing t = Option.is_some t.tracer

let local ?faults () = create ?faults ()

let ethernet_10mbps ?(cpu_mhz = 200) ?faults () =
  let cycles_per_byte = cpu_mhz * 1_000_000 * 8 / 10_000_000 in
  create ~latency_cycles:(cpu_mhz * 500) ~cycles_per_byte ~overhead_bytes:60
    ?faults ()

let wire_cost t bytes = t.cycles_per_byte * (bytes + t.overhead_bytes)

let request t ~payload_bytes =
  t.messages <- t.messages + 1;
  t.payload <- t.payload + payload_bytes;
  let cost = t.latency_cycles + wire_cost t payload_bytes in
  trace t (Trace.Net_send { bytes = payload_bytes; segments = 1 });
  trace t (Trace.Net_recv { bytes = payload_bytes; cycles = cost });
  cost

type error = [ `Dropped of int ]

(* One bit of [payload] flipped, chosen by the rng — in a copy; the
   sender's buffer is never touched. *)
let flip_one_bit t payload =
  let len = Bytes.length payload in
  let received = Bytes.copy payload in
  let bit = Rng.int t.rng (8 * len) in
  let byte = bit lsr 3 in
  Bytes.set received byte
    (Char.chr (Char.code (Bytes.get received byte) lxor (1 lsl (bit land 7))));
  received

(* Slice a received frame back into the per-segment view, one segment
   per original payload. *)
let slice_segments received payloads =
  List.fold_left
    (fun (off, acc) p ->
      let len = Bytes.length p in
      (off + len, Bytes.sub received off len :: acc))
    (0, []) payloads
  |> snd |> List.rev

(* [segments] only annotates the trace events; a batched frame is
   otherwise indistinguishable from a one-segment frame. *)
let transfer_frame t ~segments ~payload =
  let len = Bytes.length payload in
  t.messages <- t.messages + 1;
  t.payload <- t.payload + len;
  if tracing t then trace t (Trace.Net_send { bytes = len; segments });
  let cost = ref (t.latency_cycles + wire_cost t len) in
  let f = t.faults in
  if Faults.is_none f then begin
    if tracing t then trace t (Trace.Net_recv { bytes = len; cycles = !cost });
    Ok (!cost, payload)
  end
  else begin
    let roll p = p > 0. && Rng.float t.rng < p in
    (* fixed roll order per message keeps the schedule deterministic *)
    let dropped = roll f.Faults.drop in
    let corrupted = roll f.Faults.corrupt in
    let duplicated = roll f.Faults.duplicate in
    let spiked = roll f.Faults.delay_spike in
    if spiked then begin
      t.delay_spikes <- t.delay_spikes + 1;
      trace t (Trace.Net_fault { fault = Trace.Delay_spike });
      cost := !cost + f.Faults.spike_cycles
    end;
    if duplicated && not dropped then begin
      (* spurious retransmission: a second copy burns wire time and is
         discarded by the receiver; a dropped frame's retransmission is
         lost with it, so only the drop is counted *)
      t.duplicates <- t.duplicates + 1;
      t.messages <- t.messages + 1;
      t.payload <- t.payload + len;
      trace t (Trace.Net_fault { fault = Trace.Duplicate });
      cost := !cost + wire_cost t len
    end;
    if dropped then begin
      t.drops <- t.drops + 1;
      trace t (Trace.Net_fault { fault = Trace.Drop });
      Error (`Dropped !cost)
    end
    else if corrupted && len > 0 then begin
      t.corruptions <- t.corruptions + 1;
      trace t (Trace.Net_fault { fault = Trace.Corrupt });
      let received = flip_one_bit t payload in
      if tracing t then
        trace t (Trace.Net_recv { bytes = len; cycles = !cost });
      Ok (!cost, received)
    end
    else begin
      if tracing t then
        trace t (Trace.Net_recv { bytes = len; cycles = !cost });
      Ok (!cost, payload)
    end
  end

let transfer_batch t ~payloads =
  (* One frame carries every segment, so a batch pays latency and
     per-message overhead once; a fault hits the whole frame. Slicing
     the received bytes back out keeps the per-segment view while the
     rng draw stream stays identical to a one-segment frame. A lone
     segment is its own frame and needs neither the copy nor the
     slice. *)
  match payloads with
  | [ payload ] -> (
    match transfer_frame t ~segments:1 ~payload with
    | Error _ as e -> e
    | Ok (cost, received) -> Ok (cost, [ received ]))
  | _ -> (
    let frame = Bytes.concat Bytes.empty payloads in
    match
      transfer_frame t ~segments:(List.length payloads) ~payload:frame
    with
    | Error _ as e -> e
    | Ok (cost, received) -> Ok (cost, slice_segments received payloads))

(* Rider segments appended to a frame that is already occupying the
   link (fleet frame batching across clients). The host frame paid the
   round-trip latency and the per-message protocol overhead; the rider
   pays the marginal wire time of its own bytes only, and no new
   message is accounted. A rider shares its host frame's fate — the
   fleet only piggybacks onto frames known delivered, so there is no
   independent drop, duplicate or delay roll — but the rider's bytes
   take their own corruption roll (each extra byte on the wire is a
   fresh chance to flip). Deterministic given the seed and the call
   sequence, like every other transfer. *)
let transfer_piggyback t ~payloads =
  let frame = Bytes.concat Bytes.empty payloads in
  let len = Bytes.length frame in
  t.payload <- t.payload + len;
  trace t (Trace.Net_send { bytes = len; segments = List.length payloads });
  let cost = t.cycles_per_byte * len in
  let f = t.faults in
  let received =
    if f.Faults.corrupt > 0. && Rng.float t.rng < f.Faults.corrupt && len > 0
    then begin
      t.corruptions <- t.corruptions + 1;
      trace t (Trace.Net_fault { fault = Trace.Corrupt });
      flip_one_bit t frame
    end
    else frame
  in
  trace t (Trace.Net_recv { bytes = len; cycles = cost });
  (cost, slice_segments received payloads)

let messages t = t.messages
let payload_bytes t = t.payload
let total_bytes t = t.payload + (t.messages * t.overhead_bytes)
let overhead_bytes_per_message t = t.overhead_bytes
let drops t = t.drops
let corruptions t = t.corruptions
let duplicates t = t.duplicates
let delay_spikes t = t.delay_spikes

let reset_stats t =
  t.messages <- 0;
  t.payload <- 0;
  t.drops <- 0;
  t.corruptions <- 0;
  t.duplicates <- 0;
  t.delay_spikes <- 0

let pp ppf t =
  Format.fprintf ppf
    "net: %d msgs, %d payload B, %d total B (latency %d cyc, %d cyc/B)"
    t.messages t.payload (total_bytes t) t.latency_cycles t.cycles_per_byte;
  if not (Faults.is_none t.faults) then
    Format.fprintf ppf
      "@.     %a: %d dropped, %d corrupted, %d duplicated, %d delayed"
      Faults.pp t.faults t.drops t.corruptions t.duplicates t.delay_spikes
