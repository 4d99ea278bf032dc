(* Machine-speed calibration of host time.

   On a shared host the speed of the core changes, by up to 2x, over
   tens of milliseconds to seconds: a fixed integer loop run back to
   back takes anywhere from 70 to 160 ms per 50M iterations on a
   2-vCPU KVM guest. Raw wall time then measures the neighbours more
   than the code. So measured work is cut into segments of about
   [interval_ns], and a fixed probe (integer and memory work that does
   not depend on the repository, 0.65 to 2 ms) runs at each segment
   boundary. A segment of [d] ns between probes of [p0] and [p1] ns
   counts as [d * reference_ns / ((p0 + p1) / 2)] scaled ns: its time
   at the speed at which the probe takes [reference_ns]. Probe time is
   never part of a segment.

   Boundaries are taken where the caller ticks: between set-up steps,
   and after each trap a cell's CC handles. Everything here works on
   ints and preallocated arrays, so probing and ticking allocate
   nothing and a cell allocates the same words with or without a
   meter. *)

(* the probe's time at the reference speed: its fastest time on the
   host the bounds in BENCHMARK.json were set on *)
let reference_ns = 650_000
let interval_ns = 10_000_000

(* ---- the probe ------------------------------------------------------- *)

let memory = Array.init 65536 (fun i -> (i * 7919) land 0xffff)
let program = Array.init 256 (fun i -> ((i * 37) + (i / 3)) land 3)

(* a toy interpreter: a dispatch on a fixed program, loads and stores
   at data-dependent addresses and a data-dependent branch, like the
   simulator's own inner loop. It tracked the cells' speed better than
   a plain add chain, a streaming store or a cache-missing pointer
   chase. *)
let work () =
  let acc = ref 1 and idx = ref 0 and pc = ref 0 in
  for _ = 1 to 200_000 do
    (match program.(!pc land 255) with
    | 0 -> acc := !acc + memory.(!idx)
    | 1 -> memory.(!idx) <- !acc land 0xffff
    | 2 -> idx := ((!idx * 5) + !acc) land 0xffff
    | _ -> if !acc land 1 = 0 then pc := !pc + 3);
    incr pc
  done;
  ignore (Sys.opaque_identity (!acc + !idx) : int)

let probe () =
  let t0 = Spans.now_ns () in
  work ();
  Spans.now_ns () - t0

(* ---- meters ------------------------------------------------------------ *)

type t = {
  mutable seg_start : int;
  mutable last_probe : int;  (** ns, the probe that opened the segment *)
  mutable raw_ns : int;  (** measured time, probes excluded *)
  mutable scaled_ns : int;
  mutable segments : int;
}

let create () =
  { seg_start = 0; last_probe = 0; raw_ns = 0; scaled_ns = 0; segments = 0 }

let start m =
  m.last_probe <- probe ();
  m.seg_start <- Spans.now_ns ()

let close m =
  let d = Spans.now_ns () - m.seg_start in
  let p = probe () in
  m.raw_ns <- m.raw_ns + d;
  m.scaled_ns <- m.scaled_ns + (d * 2 * reference_ns / (m.last_probe + p));
  m.segments <- m.segments + 1;
  m.last_probe <- p;
  m.seg_start <- Spans.now_ns ()

let tick m = if Spans.now_ns () - m.seg_start >= interval_ns then close m
let stop = close
let scaled_s m = float_of_int m.scaled_ns *. 1e-9

(* tick after every trap the handler returns from *)
let tick_on_traps m (cpu : Machine.Cpu.t) =
  match cpu.trap_handler with
  | None -> ()
  | Some h ->
    cpu.trap_handler <-
      Some
        (fun c k ->
          h c k;
          tick m)
