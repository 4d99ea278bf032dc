(* Workloads, set-up and cells of the two-clock softcache benchmark.

   A cell is one (image, config) simulation run in-process through the
   public API, checked against the image's native reference run and
   closed by a quiescent full audit. A workload is a fixed list of cell
   specs; set-up builds the images, runs each natively under the
   profiler (one run yields the reference outputs, the native cycle
   count and the profile), and derives each cell's profile oracles and
   [Sizing.estimate].

   Seed semantics. Seed 0 is the registry exactly: [Registry.build]
   defaults, scheduler seed 1, cells in listed order. Any other seed
   draws, from a splitmix64 stream ([Netmodel.Rng]) in this order:
   - for each registry image with a run-length parameter, a scale of
     -1%, -0.5%, 0, +0.5% or +1% on that parameter (mpeg2enc and cjpeg
     have only frame dimensions and keep their defaults);
   - the hart scheduler seed;
   - a shuffle of the workload's cell order.
   The draws do not depend on the workload, so one seed gives the same
   images everywhere. *)

module C = Softcache.Config

(* ---- seeds ----------------------------------------------------------- *)

type seeded = {
  seed : int;
  scale_permille : (string * int) list;
      (** per-image run-length scale, 1000 = registry default *)
  sched_seed : int;
  order_keys : int array;  (** cell [i] runs in ascending key order *)
}

(* The run-length parameter and registry default of each image whose
   size the seed perturbs (defaults from the generators' signatures). *)
let scalable : (string * int * (int -> Isa.Image.t)) list =
  let open Workloads in
  [
    (Compress.name, 12000, fun n -> Compress.image ~input_bytes:n ());
    (Adpcm.name_encode, 20000, fun n -> Adpcm.encode_image ~samples:n ());
    (Adpcm.name_decode, 40000, fun n -> Adpcm.decode_image ~nibbles:n ());
    (Hextobdd.name, 2600, fun n -> Hextobdd.image ~ops:n ());
    (Gzipw.name, 16 * 1024, fun n -> Gzipw.image ~input_bytes:n ());
    (Sensor.name, 2000, fun n -> Sensor.image ~samples_per_mode:n ());
  ]

let max_cells = 8

let of_seed seed =
  if seed = 0 then
    {
      seed;
      scale_permille = [];
      sched_seed = 1;
      order_keys = Array.init max_cells Fun.id;
    }
  else begin
    let rng = Netmodel.Rng.create seed in
    let scale_permille =
      List.map
        (fun (name, _, _) -> (name, 1000 + (5 * (Netmodel.Rng.int rng 5 - 2))))
        scalable
    in
    let sched_seed = 1 + Netmodel.Rng.int rng 1_000_000 in
    let order_keys =
      Array.init max_cells (fun _ -> Netmodel.Rng.int rng 1_000_000)
    in
    { seed; scale_permille; sched_seed; order_keys }
  end

let order s specs =
  List.mapi (fun i sp -> ((s.order_keys.(i), i), sp)) specs
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

let build_image s name =
  let registry () =
    match Workloads.Registry.find name with
    | Some e -> e.build ()
    | None -> invalid_arg ("unknown image " ^ name)
  in
  match
    ( List.assoc_opt name s.scale_permille,
      List.find_opt (fun (n, _, _) -> n = name) scalable )
  with
  | Some permille, Some (_, default, build) when permille <> 1000 ->
    build (((default * permille) + 500) / 1000)
  | _ -> registry ()

(* ---- cell specs -------------------------------------------------------- *)

type spec = {
  image : string;
  tcache : int;
  eviction : C.eviction;
  granularity : C.granularity;
  chain : bool;
  superblock_threshold : int;
  harts : int;
  prefetch : int;
  ethernet : bool;
  audit : bool;  (** [Check.Audit.install] after every controller event *)
}

let spec ?(eviction = C.Fifo) ?(granularity = C.Block) ?(chain = false)
    ?(superblock_threshold = 0) ?(harts = 1) ?(prefetch = 0)
    ?(ethernet = false) ?(audit = false) image tcache =
  {
    image;
    tcache;
    eviction;
    granularity;
    chain = chain || superblock_threshold > 0;
    superblock_threshold;
    harts;
    prefetch;
    ethernet;
    audit;
  }

(* The flags [softcache run] takes for the same cell. *)
let label s =
  String.concat " "
    (List.filter
       (fun x -> x <> "")
       [
         Printf.sprintf "%s@%dK" s.image (s.tcache / 1024);
         (if s.eviction <> C.Fifo then
            "--eviction " ^ C.eviction_name s.eviction
          else "");
         (if s.granularity <> C.Block then
            "--granularity " ^ C.granularity_name s.granularity
          else "");
         (if s.superblock_threshold > 0 then
            Printf.sprintf "--superblock-threshold %d" s.superblock_threshold
          else if s.chain then "--chain"
          else "");
         (if s.harts > 1 then Printf.sprintf "--harts %d" s.harts else "");
         (if s.prefetch > 0 then Printf.sprintf "--prefetch %d" s.prefetch
          else "");
         (if s.ethernet then "--net ethernet" else "");
         (if s.audit then "--audit" else "");
       ])

let config s ~sched_seed =
  let net =
    if s.ethernet then Netmodel.ethernet_10mbps () else Netmodel.local ()
  in
  C.make ~tcache_bytes:s.tcache ~eviction:s.eviction ~granularity:s.granularity
    ~chain:s.chain ~superblock_threshold:s.superblock_threshold ~harts:s.harts
    ~prefetch_degree:s.prefetch ~net ~sched_seed ()

let k = 1024

let workloads =
  [
    ( "fit",
      List.map (fun n -> spec n (64 * k)) (Workloads.Registry.names ()) );
    ("thrash", [ spec "compress95" (4 * k); spec "mpeg2enc" (4 * k);
                 spec "hextobdd" (4 * k) ]);
    ( "linked",
      [
        spec "compress95" (4 * k) ~superblock_threshold:32;
        spec "compress95" (4 * k) ~granularity:C.Function ~chain:true;
        spec "mpeg2enc" (4 * k) ~harts:4 ~chain:true;
        spec "mpeg2enc" (4 * k) ~eviction:C.Trrip ~prefetch:2 ~ethernet:true;
      ] );
    ("audited", [ spec "cjpeg" (2 * k) ~audit:true;
                  spec "adpcm_encode" (1 * k) ~audit:true ]);
  ]

(* ---- set-up ------------------------------------------------------------ *)

type reference = {
  outputs : int list;
  native_cycles : int;
  native_retired : int;
  halted : bool;
}

type cell = {
  spec : spec;
  img : Isa.Image.t;
  reference : reference;
  sched_seed : int;
  ranker : (lo:int -> hi:int -> int) option;
  oracle : (int -> (int * int) option) option;
  temperature : (lo:int -> hi:int -> Softcache.Policy.temperature) option;
  text_hint : int option;
  predicted_bytes : int;  (** [Sizing.estimate]'s tcache need *)
}

type setup = {
  cells : cell array;  (** in the seed's order *)
  setup_s : float;
  profiler_s : float;
  sizing_s : float;
}

let timed f =
  let t0 = Spans.now_ns () in
  let r = f () in
  (r, float_of_int (Spans.now_ns () - t0) *. 1e-9)

(* [setup_s] is calibrated host time (see [Calib]), with a boundary
   after every image and every cell prepared. *)
let setup (s : seeded) specs =
  let meter = Calib.create () in
  Calib.start meter;
  let profiler_s = ref 0.0 and sizing_s = ref 0.0 in
  let images = Hashtbl.create 8 in
  let image name =
    match Hashtbl.find_opt images name with
    | Some x -> x
    | None ->
      let img = build_image s name in
      let (prof, cpu), dt = timed (fun () -> Profiler.profile img) in
      profiler_s := !profiler_s +. dt;
      let reference =
        {
          outputs = Machine.Cpu.outputs cpu;
          native_cycles = cpu.cycles;
          native_retired = cpu.retired;
          halted = cpu.halted;
        }
      in
      Hashtbl.replace images name (img, prof, reference);
      Calib.tick meter;
      (img, prof, reference)
  in
  let prepare sp =
    let img, prof, reference = image sp.image in
    let est, dt =
      timed (fun () ->
          Softcache.Sizing.estimate ~granularity:sp.granularity ~image:img
            ~chunking:C.Basic_block
            ~samples_in:(fun ~lo ~hi -> Profiler.samples_in prof ~lo ~hi)
            ~sizes:[] ())
    in
    sizing_s := !sizing_s +. dt;
    (* the profile-guided oracles [softcache run] attaches for the same
       flags: a prefetch ranker, superblock edge temperatures, and the
       trrip prior when the sizing estimate calls the cell deep thrash *)
    let profiled =
      sp.prefetch > 0 || sp.superblock_threshold > 0 || sp.eviction = C.Trrip
    in
    let temperature =
      if sp.eviction = C.Trrip
         && Softcache.Sizing.deep_thrash est ~tcache_bytes:sp.tcache
      then begin
        let classify = Profiler.temperature_classifier prof in
        Some
          (fun ~lo ~hi ->
            match classify ~lo ~hi with
            | Profiler.Hot -> Softcache.Policy.Hot
            | Profiler.Warm -> Softcache.Policy.Warm
            | Profiler.Cold -> Softcache.Policy.Cold)
      end
      else None
    in
    {
      spec = sp;
      img;
      reference;
      sched_seed = s.sched_seed;
      ranker =
        (if sp.prefetch > 0 then
           Some (fun ~lo ~hi -> Profiler.samples_in prof ~lo ~hi)
         else None);
      oracle =
        (if sp.superblock_threshold > 0 then
           Some
             (Softcache.Cc_chain.oracle_of_profile ~image:img
                ~chunking:C.Basic_block ~edges_from:(Profiler.edges_from prof)
                ~samples_at:(fun a ->
                  Profiler.samples_in prof ~lo:a ~hi:(a + 4)))
         else None);
      temperature;
      text_hint =
        (if profiled then Some (Profiler.dynamic_text_bytes prof) else None);
      predicted_bytes = est.Softcache.Sizing.predicted_bytes;
    }
  in
  let cells =
    Array.of_list
      (List.map
         (fun sp ->
           let c = prepare sp in
           Calib.tick meter;
           c)
         (order s specs))
  in
  Calib.stop meter;
  {
    cells;
    setup_s = Calib.scaled_s meter;
    profiler_s = !profiler_s;
    sizing_s = !sizing_s;
  }

(* ---- running a cell ------------------------------------------------------ *)

(* Everything the simulation decided, for the metrics and for lockstep:
   two runs of the same cell must agree on every field. *)
type sim = {
  cycles : int;  (** cached cycles; the makespan on multi-hart cells *)
  native : int;
  retired : int;  (** summed over harts *)
  translations : int;
  translated_words : int;
  overhead_words : int;
  lookups : int;
  traps : int;
  patches : int;
  chained : int;
  reverts : int;
  superblocks : int;
  depromotions : int;
  evicted_blocks : int;
  evicted_collateral : int;
  scrubbed_words : int;
  policy_entries : int;
  prefetch_issued : int;
  prefetch_installs : int;
  fills : int;
  fills_coalesced : int;
  mc_wait_cycles : int;
  net_retries : int;
  messages : int;
  wire_bytes : int;
}

type result = {
  cell : cell;
  sim : sim option;  (** [None] when the cell failed *)
  failure : string option;
  wall_ns : int;  (** probes excluded *)
  scaled_ns : int option;  (** calibrated wall time, when metered *)
  words : float;  (** minor words the cell allocated *)
  ledger : Trace.summary option;
      (** the simulated-cycle ledger, on solo cells of a ledger run *)
  heap_words : int option;
      (** the major heap the finished cell holds, when measured *)
  conserved : bool;  (** [Trace.conserved] held (vacuous without ledger) *)
}

let reason_of_exn = function
  | Softcache.Controller.Chunk_too_large v ->
    Printf.sprintf "Chunk_too_large 0x%x" v
  | Softcache.Controller.Tcache_too_small -> "Tcache_too_small"
  | Softcache.Controller.Internal_invariant_broken { chunk; detail } ->
    Printf.sprintf "Internal_invariant_broken 0x%x: %s" chunk detail
  | Softcache.Controller.Alloc_guard_exhausted { loops; _ } ->
    Printf.sprintf "Alloc_guard_exhausted after %d rounds" loops
  | Softcache.Controller.Chunk_unavailable { vaddr; attempts } ->
    Printf.sprintf "Chunk_unavailable 0x%x after %d attempts" vaddr attempts
  | Check.Audit.Audit_failure vs ->
    Format.asprintf "Audit_failure: %a"
      (Format.pp_print_list ~pp_sep:Format.pp_print_space
         Check.Audit.pp_violation)
      vs
  | Machine.Cpu.Fault (f, pc) ->
    Format.asprintf "fault at 0x%x: %a" pc Machine.Cpu.pp_fault f
  | e -> "unexpected exception " ^ Printexc.to_string e

let sim_of (ctrl : Softcache.Controller.t) ~cycles ~native ~retired =
  let s = ctrl.stats in
  {
    cycles;
    native;
    retired;
    translations = s.translations;
    translated_words = s.translated_words;
    overhead_words = s.overhead_words;
    lookups = s.lookups;
    traps = s.traps;
    patches = s.patches;
    chained = s.chained;
    reverts = s.reverts;
    superblocks = s.superblocks;
    depromotions = s.depromotions;
    evicted_blocks = s.evicted_blocks;
    evicted_collateral = s.evicted_collateral;
    scrubbed_words = s.scrubbed_words;
    policy_entries = s.policy_entries;
    prefetch_issued = s.prefetch_issued;
    prefetch_installs = s.prefetch_installs;
    fills = s.fills;
    fills_coalesced = s.fills_coalesced;
    mc_wait_cycles = s.mc_wait_cycles;
    net_retries = s.net_retries;
    messages = Netmodel.messages ctrl.cfg.net;
    wire_bytes = Netmodel.total_bytes ctrl.cfg.net;
  }

let violations = function
  | [] -> None
  | vs ->
    Some
      (Format.asprintf "quiescent audit: %a"
         (Format.pp_print_list ~pp_sep:Format.pp_print_space
            Check.Audit.pp_violation)
         vs)

(* A run that fails to halt within this many instructions per hart
   counts as not halting. *)
let fuel c = (4 * c.reference.native_retired) + 1_000_000

(* Words the instrumentation itself allocates while being installed are
   set aside, so a cell's [words] is the simulation's allocation alone.
   A float-only record stores its field unboxed, so updating it does not
   allocate. *)
type excluded = { mutable words_set_aside : float }

let set_aside ex since =
  ex.words_set_aside <- ex.words_set_aside +. (Gc.minor_words () -. since)

(* the finished simulation, kept reachable until its heap is read *)
type state = Solo of Softcache.Controller.t | Harts of Softcache.Shard.t

let simulate ?spans ?meter ~ledger ~excluded c =
  let cfg = config c.spec ~sched_seed:c.sched_seed in
  let ctrl = Softcache.Controller.create cfg c.img in
  ctrl.prefetch_ranker <- c.ranker;
  ctrl.chain_oracle <- c.oracle;
  Softcache.Controller.set_temperature_oracle ctrl c.temperature;
  ctrl.dynamic_text_hint <- c.text_hint;
  let tracer =
    if ledger && cfg.harts = 1 then begin
      let tr = Trace.create ~limit:cfg.trace_limit () in
      Softcache.Controller.attach_tracer ctrl tr;
      Some tr
    end
    else None
  in
  if c.spec.audit then ignore (Check.Audit.install ctrl : int ref);
  (match spans with
  | None -> ()
  | Some sp ->
    let w = Gc.minor_words () in
    Spans.time_events sp ctrl;
    Spans.time_transport sp ctrl;
    set_aside excluded w);
  (* with a meter, every trap the CC handles may end a calibration
     segment *)
  let instrument (cpu : Machine.Cpu.t) =
    let w = Gc.minor_words () in
    Option.iter (fun sp -> Spans.time_trap_handler sp cpu) spans;
    Option.iter (fun m -> Calib.tick_on_traps m cpu) meter;
    set_aside excluded w
  in
  let audit f =
    match spans with
    | None -> f ()
    | Some sp -> (
      Spans.enter sp Spans.Audit;
      match f () with
      | v ->
        Spans.leave sp;
        v
      | exception e ->
        Spans.leave sp;
        raise e)
  in
  let fuel = fuel c in
  let r = c.reference in
  let check_cpu (cpu : Machine.Cpu.t) =
    if not cpu.halted then Some "did not halt"
    else if Machine.Cpu.outputs cpu <> r.outputs then
      Some "outputs differ from the native reference"
    else None
  in
  let first_failure checks = List.find_map Fun.id checks in
  let failure, sim, state =
    if cfg.harts > 1 then begin
      let sh = Softcache.Shard.attach ctrl in
      let harts = Softcache.Shard.harts sh in
      List.iter (fun (h : Softcache.Shard.hart) -> instrument h.h_cpu) harts;
      ignore (Softcache.Shard.run ~fuel sh : Machine.Cpu.outcome);
      let failure =
        first_failure
          (List.map (fun (h : Softcache.Shard.hart) -> check_cpu h.h_cpu) harts
          @ [ audit (fun () -> violations (Check.Audit.shards sh)) ])
      in
      let retired =
        List.fold_left
          (fun acc (h : Softcache.Shard.hart) -> acc + h.h_cpu.retired)
          0 harts
      in
      ( failure,
        sim_of ctrl ~cycles:(Softcache.Shard.makespan sh)
          ~native:r.native_cycles ~retired,
        Harts sh )
    end
    else begin
      instrument ctrl.cpu;
      ignore (Softcache.Controller.run ~fuel ctrl : Machine.Cpu.outcome);
      let failure =
        first_failure
          [
            check_cpu ctrl.cpu;
            audit (fun () -> violations (Check.Audit.run ctrl));
          ]
      in
      ( failure,
        sim_of ctrl ~cycles:ctrl.cpu.cycles ~native:r.native_cycles
          ~retired:ctrl.cpu.retired,
        Solo ctrl )
    end
  in
  let ledger, conserved =
    match tracer with
    | None -> (None, true)
    | Some tr ->
      (Some (Trace.summary tr), Trace.conserved tr ~total:ctrl.cpu.cycles)
  in
  (failure, sim, ledger, conserved, state)

(* A [meter] calibrates the cell's wall time: it probes before and
   after the cell and after a trap every [Calib.interval_ns]. With
   [heap_from], the major heap at the start, the cell's heap is read
   after its timed run: a full collection while its state is still
   reachable, the heap then over [heap_from]. *)
let run ?spans ?meter ?heap_from ?(ledger = false) c =
  let excluded = { words_set_aside = 0.0 } in
  Option.iter Spans.new_cell spans;
  let w0 = Gc.minor_words () in
  Option.iter Calib.start meter;
  let t0 = Spans.now_ns () in
  Option.iter (fun sp -> Spans.enter sp Spans.Cell) spans;
  let outcome =
    match simulate ?spans ?meter ~ledger ~excluded c with
    | x -> Ok x
    | exception e -> Error (reason_of_exn e)
  in
  (* every wrapper closes its own span, even when the cell raised *)
  Option.iter Spans.leave spans;
  let wall_ns = Spans.now_ns () - t0 in
  Option.iter Calib.stop meter;
  let words = Gc.minor_words () -. w0 -. excluded.words_set_aside in
  let wall_ns, scaled_ns =
    match meter with
    | None -> (wall_ns, None)
    | Some m -> (m.raw_ns, Some m.scaled_ns)
  in
  let heap_words =
    Option.map
      (fun h0 ->
        Gc.full_major ();
        (Gc.quick_stat ()).heap_words - h0)
      heap_from
  in
  match outcome with
  | Ok (failure, sim, ledger, conserved, _state) ->
    { cell = c; sim = (if failure = None then Some sim else None); failure;
      wall_ns; scaled_ns; words; ledger; heap_words; conserved }
  | Error reason ->
    { cell = c; sim = None; failure = Some reason; wall_ns; scaled_ns; words;
      ledger = None; heap_words; conserved = true }
