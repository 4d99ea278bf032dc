(* Lockstep differential runner.

   Runs the program natively first, recording the sequence of data
   accesses, then replays it under the SoftCache and compares in the
   CPU's load/store hooks, aborting at the first divergent access.

   Loads and stores are the right observables: data addresses are
   architecturally identical between the two runs (same data segment,
   same initial sp), while fetch addresses and return-address *values*
   legitimately differ — cached code runs out of the tcache and returns
   land on landing pads. Controller bookkeeping writes go straight to
   memory, bypassing the CPU hooks, so they never pollute the cached
   stream. Output values are compared at the end. *)

open Softcache

type event = Load of int | Store of int | Output of int

type divergence = {
  index : int;  (** position in the event stream *)
  native : event option;  (** [None]: native had already finished *)
  cached : event option;  (** [None]: cached stopped short *)
}

type verdict =
  | Equivalent of { events : int }
  | Diverged of divergence
  | Native_out_of_fuel
  | Cached_out_of_fuel of { events : int }
  | Unavailable of { vaddr : int; attempts : int; events : int }

let pp_event ppf = function
  | Load a -> Format.fprintf ppf "load 0x%x" a
  | Store a -> Format.fprintf ppf "store 0x%x" a
  | Output v -> Format.fprintf ppf "out %d" v

let pp_verdict ppf = function
  | Equivalent { events } ->
    Format.fprintf ppf "equivalent (%d events)" events
  | Diverged { index; native; cached } ->
    let pp_opt ppf = function
      | Some e -> pp_event ppf e
      | None -> Format.pp_print_string ppf "(stream ended)"
    in
    Format.fprintf ppf "diverged at event %d: native %a, cached %a" index
      pp_opt native pp_opt cached
  | Native_out_of_fuel -> Format.pp_print_string ppf "native out of fuel"
  | Cached_out_of_fuel { events } ->
    Format.fprintf ppf "cached out of fuel after %d events" events
  | Unavailable { vaddr; attempts; events } ->
    Format.fprintf ppf
      "chunk 0x%x unavailable after %d attempts (%d events matched)" vaddr
      attempts events

(* Growable int array; events are tagged as addr*2 + (0=load / 1=store). *)
module Vec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let bigger = Array.make (2 * v.n) 0 in
      Array.blit v.a 0 bigger 0 v.n;
      v.a <- bigger
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1
end

let untag x = if x land 1 = 0 then Load (x lsr 1) else Store (x lsr 1)

(* The native reference: its data-access stream and its outputs. *)
type reference = { trace : Vec.t; outputs : int list }

let record ~fuel img =
  let ncpu = Machine.Cpu.of_image img in
  let trace = Vec.create () in
  ncpu.on_load <- Some (fun a -> Vec.push trace (a lsl 1));
  ncpu.on_store <- Some (fun a -> Vec.push trace ((a lsl 1) lor 1));
  match Machine.Cpu.run ~fuel ncpu with
  | Machine.Cpu.Out_of_fuel -> None
  | Machine.Cpu.Halted -> Some { trace; outputs = Machine.Cpu.outputs ncpu }

exception Stop of divergence

(* One cached run of [cfg] against [reference], compared in-hook; the
   controller is returned for end-of-run inspection. *)
let replay ~fuel ~ops ~audit ?on_controller { trace; outputs = native_outs }
    (cfg : Config.t) img =
  let ctrl = Controller.create cfg img in
  if audit then ignore (Audit.install ctrl);
  (match on_controller with Some f -> f ctrl | None -> ());
  let idx = ref 0 in
  let check tag ev =
    if !idx >= trace.Vec.n then
      raise (Stop { index = !idx; native = None; cached = Some ev })
    else if trace.Vec.a.(!idx) <> tag then
      raise
        (Stop
           {
             index = !idx;
             native = Some (untag trace.Vec.a.(!idx));
             cached = Some ev;
           })
    else incr idx
  in
  ctrl.cpu.on_load <- Some (fun a -> check (a lsl 1) (Load a));
  ctrl.cpu.on_store <- Some (fun a -> check ((a lsl 1) lor 1) (Store a));
  (* drive in slices, applying one mid-run op at each boundary *)
  let nslices = List.length ops + 1 in
  let slice = max 1 (fuel / nslices) in
  let rec go left = function
    | op :: rest -> (
      match Controller.run ~fuel:slice ctrl with
      | Machine.Cpu.Halted -> Machine.Cpu.Halted
      | Machine.Cpu.Out_of_fuel ->
        op ctrl;
        go (left - slice) rest)
    | [] -> Controller.run ~fuel:(max slice left) ctrl
  in
  let verdict =
    match go fuel ops with
    | exception Stop d -> Diverged d
    | exception Controller.Chunk_unavailable { vaddr; attempts } ->
      Unavailable { vaddr; attempts; events = !idx }
    | Machine.Cpu.Out_of_fuel -> Cached_out_of_fuel { events = !idx }
    | Machine.Cpu.Halted ->
      if !idx < trace.Vec.n then
        Diverged
          {
            index = !idx;
            native = Some (untag trace.Vec.a.(!idx));
            cached = None;
          }
      else begin
        (* access streams matched; compare observable output *)
        let cached_outs = Machine.Cpu.outputs ctrl.cpu in
        let rec cmp i ns cs =
          match (ns, cs) with
          | [], [] -> Equivalent { events = !idx + i }
          | n :: ns', c :: cs' ->
            if n = c then cmp (i + 1) ns' cs'
            else
              Diverged
                {
                  index = !idx + i;
                  native = Some (Output n);
                  cached = Some (Output c);
                }
          | n :: _, [] ->
            Diverged
              { index = !idx + i; native = Some (Output n); cached = None }
          | [], c :: _ ->
            Diverged
              { index = !idx + i; native = None; cached = Some (Output c) }
        in
        cmp 0 native_outs cached_outs
      end
  in
  (verdict, ctrl)

let run ?(fuel = 2_000_000) ?(ops = []) ?(audit = false) ?on_controller
    (cfg : Config.t) img : verdict =
  match record ~fuel img with
  | None -> Native_out_of_fuel
  | Some reference ->
    fst (replay ~fuel ~ops ~audit ?on_controller reference cfg img)

(* ------------------------------------------------------------------ *)
(* Decoded vs interpretive dispatch, in true instruction lockstep.

   Unlike [run] — which compares a cached run against a *different*
   execution (the native one) and therefore can only observe data
   accesses — the two engines run the *same* softcached execution, so
   every piece of architectural state must match after every single
   retired instruction: pc, registers, cycles, and at the end outputs
   and full memory. Mid-run ops (invalidate / flush) are applied to
   both controllers at the same instruction boundaries, which is
   exactly when the decode cache is most at risk of serving stale
   words. *)

type engine_verdict =
  | Engines_equivalent of { steps : int }
  | Engines_diverged of { step : int; detail : string }
  | Engines_out_of_fuel of { steps : int }
      (** every compared step matched; the budget ran out first *)
  | Engines_unavailable of { vaddr : int; attempts : int; steps : int }

let pp_engine_verdict ppf = function
  | Engines_equivalent { steps } ->
    Format.fprintf ppf "engines equivalent (%d steps)" steps
  | Engines_diverged { step; detail } ->
    Format.fprintf ppf "engines diverged at step %d: %s" step detail
  | Engines_out_of_fuel { steps } ->
    Format.fprintf ppf "engines out of fuel after %d matching steps" steps
  | Engines_unavailable { vaddr; attempts; steps } ->
    Format.fprintf ppf
      "chunk 0x%x unavailable after %d attempts (%d steps matched)" vaddr
      attempts steps

let state_mismatch ?(labels = ("decoded", "interpretive"))
    ?(compare_cycles = true) (a : Softcache.Controller.t)
    (b : Softcache.Controller.t) =
  let la, lb = labels in
  if a.cpu.pc <> b.cpu.pc then
    Some (Printf.sprintf "pc 0x%x (%s) vs 0x%x (%s)" a.cpu.pc la b.cpu.pc lb)
  else if a.cpu.retired <> b.cpu.retired then
    Some (Printf.sprintf "retired %d vs %d" a.cpu.retired b.cpu.retired)
  else if compare_cycles && a.cpu.cycles <> b.cpu.cycles then
    Some (Printf.sprintf "cycles %d vs %d" a.cpu.cycles b.cpu.cycles)
  else if a.cpu.halted <> b.cpu.halted then
    Some (Printf.sprintf "halted %b vs %b" a.cpu.halted b.cpu.halted)
  else if a.cpu.regs <> b.cpu.regs then begin
    let detail = ref "registers differ" in
    Array.iteri
      (fun i v ->
        if v <> b.cpu.regs.(i) && !detail = "registers differ" then
          detail :=
            Printf.sprintf "r%d = %d (%s) vs %d (%s)" i v la b.cpu.regs.(i)
              lb)
      a.cpu.regs;
    Some !detail
  end
  else None

(* Drive two softcached executions of the same program one instruction
   at a time, comparing architectural state after every step.
   [hash_range] restricts the final memory comparison — pass the data
   segment when the two sides legitimately hold different code bytes
   (e.g. chained vs unchained tcache contents). *)
let drive_pair ?hash_range ?step_a ~fuel ~ops ~labels ~compare_cycles
    (ca : Controller.t) (cb : Controller.t) : engine_verdict =
  (* [step_a] lets side a advance through a different front end over
     the same controller (the shard layer's scheduler loop); the
     default is the plain controller step *)
  let step_a =
    match step_a with
    | Some f -> f
    | None -> fun () -> Controller.run ~fuel:1 ca
  in
  let steps = ref 0 in
  let step_pair () =
    (* run returns immediately once halted, so over-stepping is safe *)
    let oa = step_a () in
    let ob = Controller.run ~fuel:1 cb in
    incr steps;
    (oa, ob)
  in
  let nslices = List.length ops + 1 in
  let slice = max 1 (fuel / nslices) in
  let exception Divergence of string in
  let check () =
    match state_mismatch ~labels ~compare_cycles ca cb with
    | Some d -> raise (Divergence d)
    | None -> ()
  in
  let rec drive budget ops =
    if ca.cpu.halted && cb.cpu.halted then `Halted
    else if budget <= 0 then
      match ops with
      | op :: rest ->
        op ca;
        op cb;
        check ();
        drive slice rest
      | [] -> `Out_of_fuel
    else begin
      let oa, ob = step_pair () in
      if oa <> ob then
        raise
          (Divergence
             (Printf.sprintf "outcome %s vs %s"
                (match oa with
                | Machine.Cpu.Halted -> "halted"
                | Machine.Cpu.Out_of_fuel -> "running")
                (match ob with
                | Machine.Cpu.Halted -> "halted"
                | Machine.Cpu.Out_of_fuel -> "running")));
      check ();
      drive (budget - 1) ops
    end
  in
  match drive slice ops with
  | exception Divergence detail -> Engines_diverged { step = !steps; detail }
  | exception Controller.Chunk_unavailable { vaddr; attempts } ->
    Engines_unavailable { vaddr; attempts; steps = !steps }
  | `Out_of_fuel -> Engines_out_of_fuel { steps = !steps }
  | `Halted -> (
    let aouts = Machine.Cpu.outputs ca.cpu
    and bouts = Machine.Cpu.outputs cb.cpu in
    if aouts <> bouts then
      Engines_diverged { step = !steps; detail = "output streams differ" }
    else
      let lo, hi =
        match hash_range with
        | Some r -> r
        | None -> (0, Machine.Memory.size ca.cpu.mem)
      in
      let ha = Machine.Memory.hash ca.cpu.mem ~lo ~hi
      and hb = Machine.Memory.hash cb.cpu.mem ~lo ~hi in
      if ha <> hb then
        Engines_diverged { step = !steps; detail = "final memory differs" }
      else Engines_equivalent { steps = !steps })

let engines ?(fuel = 2_000_000) ?(ops = []) ?(audit = false) mk_cfg
    img : engine_verdict =
  (* each side gets its own Config (and thus its own Netmodel state) so
     shared transport RNG/counters cannot desynchronise the pair *)
  let mk engine =
    let cfg = { (mk_cfg ()) with Config.engine } in
    Controller.create cfg img
  in
  let cd = mk Machine.Cpu.Decoded in
  let ci = mk Machine.Cpu.Interpretive in
  if audit then ignore (Audit.install cd);
  drive_pair ~fuel ~ops ~labels:("decoded", "interpretive")
    ~compare_cycles:true cd ci

(* Prefetch-on vs prefetch-off, in instruction lockstep.

   Prefetching must be architecturally invisible: staged chunk bodies
   live CC-side and install lazily on first touch, so pc, retired
   count, registers, outputs and final memory must all match after
   every instruction. Cycle accounting is the one thing allowed to
   differ — saving cycles is the point — so it is excluded from the
   per-step comparison. *)
let prefetch ?(fuel = 2_000_000) ?(ops = []) ?(audit = false) mk_cfg
    img : engine_verdict =
  let mk degree_override =
    let cfg = mk_cfg () in
    let cfg =
      match degree_override with
      | Some d -> { cfg with Config.prefetch_degree = d }
      | None -> cfg
    in
    Controller.create cfg img
  in
  let con = mk None in
  let coff = mk (Some 0) in
  if audit then ignore (Audit.install con);
  drive_pair ~fuel ~ops ~labels:("prefetch", "baseline")
    ~compare_cycles:false con coff

(* End-of-run epilogue of the cycle-identical runners ([trace],
   [fleet], [shards]): a clean drive still fails on the first end-of-run
   check that reports a mismatch. *)
let epilogue verdict checks =
  match verdict with
  | Engines_diverged _ | Engines_unavailable _ -> verdict
  | Engines_equivalent { steps } | Engines_out_of_fuel { steps } -> (
    match List.find_map (fun check -> check ()) checks with
    | Some detail -> Engines_diverged { step = steps; detail }
    | None -> verdict)

(* Statistics (seen through [view]) and every interconnect counter must
   match between the two sides. *)
let same_counters ?(view = Fun.id) ~labels:(la, lb) (a : Controller.t)
    (b : Controller.t) () =
  let net (c : Controller.t) =
    let n = c.cfg.Config.net in
    [
      Netmodel.messages n;
      Netmodel.payload_bytes n;
      Netmodel.total_bytes n;
      Netmodel.drops n;
      Netmodel.corruptions n;
      Netmodel.duplicates n;
      Netmodel.delay_spikes n;
    ]
  in
  if view a.stats <> view b.stats then
    Some
      (Format.asprintf "stats differ: %a (%s) vs %a (%s)" Stats.pp a.stats la
         Stats.pp b.stats lb)
  else if net a <> net b then Some "interconnect counters differ"
  else None

(* Trace-on vs trace-off, in instruction lockstep.

   Observability must never perturb the experiment it observes: a run
   with a tracer attached must be *cycle*- and *counter*-identical to
   the same run without one, not merely architecturally equivalent. So
   unlike [prefetch], cycles are part of the per-step comparison, and
   after the drive the full statistics record and every interconnect
   counter are compared too. Finally the tracer's own books are
   checked: the attribution categories must sum exactly to the traced
   run's cycle counter (the conservation law [Check.Audit] also
   enforces). *)
let trace ?(fuel = 2_000_000) ?(ops = []) ?(audit = false) mk_cfg img
    : engine_verdict =
  (* fresh Config per side: each gets its own Netmodel state, so the
     comparison proves the tracer does not disturb the rng draw
     stream *)
  let traced = Controller.create (mk_cfg ()) img in
  let plain = Controller.create (mk_cfg ()) img in
  let tr = Trace.create ~limit:traced.cfg.Config.trace_limit () in
  Controller.attach_tracer traced tr;
  if audit then ignore (Audit.install traced);
  let labels = ("traced", "untraced") in
  epilogue
    (drive_pair ~fuel ~ops ~labels ~compare_cycles:true traced plain)
    [
      same_counters ~labels traced plain;
      (fun () ->
        if Trace.conserved tr ~total:traced.cpu.cycles then None
        else
          Some
            (Printf.sprintf
               "attribution does not conserve: categories sum to %d, \
                cpu.cycles = %d"
               (Trace.summary tr).Trace.s_total traced.cpu.cycles));
    ]

(* 1-client fleet vs the plain single-controller path.

   The fleet layer must be a strict generalisation: with one client
   there is nobody to queue behind, coalesce with or piggyback onto,
   and the shared chunk cache memoizes CRC values it would have
   computed anyway — so the fleet-hosted controller must be *cycle*-
   and *counter*-identical to a plain [Controller] over the same
   config, not merely equivalent. Each side gets its own Config (and
   thus its own Netmodel rng), exactly as in [trace]. *)
let fleet ?(fuel = 2_000_000) ?(ops = []) ?(audit = false) mk_cfg img
    : engine_verdict =
  let solo = Controller.create (mk_cfg ()) img in
  let fcfg = mk_cfg () in
  let fl =
    Fleet.create ~clients:1 ~net:fcfg.Config.net (fun _ -> fcfg) [| img |]
  in
  let hosted = Fleet.controller (Fleet.sessions fl).(0) in
  if audit then ignore (Audit.install hosted);
  let labels = ("fleet", "solo") in
  epilogue
    (drive_pair ~fuel ~ops ~labels ~compare_cycles:true hosted solo)
    [ same_counters ~labels hosted solo ]

(* 1-hart sharded CC vs the plain solo controller.

   The multi-hart layer must be a strict generalisation too: with one
   hart there is nobody to coalesce with or wait behind — the lone
   hart holds no lease while controller code runs (leases live only
   across suspensions, and nothing else runs during one), and its own
   fills always complete before its next miss — so the shard-hosted
   run must be *cycle*-identical to a plain [Controller] over the
   same config, step for step. The fill bookkeeping ([Stats.fills]
   and friends) is the one legitimate
   difference: the solo path bypasses it entirely. On top of the
   drive, the lone hart must have been charged zero wait cycles, and
   the final state must pass the full [Audit.shards] suite. *)
let shards ?(fuel = 2_000_000) ?(ops = []) ?(audit = false) mk_cfg img
    : engine_verdict =
  let solo = Controller.create (mk_cfg ()) img in
  let hcfg = { (mk_cfg ()) with Config.harts = 1 } in
  let hosted = Controller.create hcfg img in
  let sh = Shard.attach hosted in
  if audit then ignore (Audit.install hosted);
  let labels = ("sharded", "solo") in
  let neutral (s : Stats.t) =
    {
      s with
      Stats.fills = 0;
      fills_coalesced = 0;
      fill_wait_cycles = 0;
      mc_wait_cycles = 0;
    }
  in
  let h = Shard.hart sh 0 in
  epilogue
    (drive_pair
       ~step_a:(fun () -> Shard.run ~fuel:1 sh)
       ~fuel ~ops ~labels ~compare_cycles:true hosted solo)
    [
      (fun () ->
        if h.Shard.h_wait_fill = 0 && h.Shard.h_wait_mc = 0
           && h.Shard.h_joins = 0
        then None
        else
          Some
            (Printf.sprintf
               "lone hart was charged waits: fill=%d mc=%d joins=%d"
               h.Shard.h_wait_fill h.Shard.h_wait_mc h.Shard.h_joins));
      same_counters ~view:neutral ~labels hosted solo;
      (fun () ->
        match Audit.shards sh with
        | [] -> None
        | v :: _ ->
          Some (Format.asprintf "shard audit: %a" Audit.pp_violation v));
    ]

(* Observational equivalence of configuration variants.

   Some variants legitimately change pc and retire streams, cycle counts
   and code placement: an unresolved Br/Jal exit hops through its
   in-block trap island (two retired instructions) where a chained site
   branches direct (one), superblocks relocate whole chains, different
   eviction victims mean different stub and trap sequences, and
   function granularity changes the unit shape and call linkage
   wholesale. What must never change is what the program computes. So
   each variant runs in data-access lockstep against one recorded native
   execution, then the variants are cross-compared on the observables
   that survive those differences: the output stream and the final data
   segment. *)

type modes_verdict =
  | Modes_equivalent of { modes : string list; events : int }
  | Mode_diverged of { mode : string; verdict : verdict }
  | Modes_mismatch of { mode : string; baseline : string; detail : string }

let pp_modes_verdict ppf = function
  | Modes_equivalent { modes; events } ->
    Format.fprintf ppf "%d modes equivalent (%s; %d events)"
      (List.length modes)
      (String.concat ", " modes)
      events
  | Mode_diverged { mode; verdict } ->
    Format.fprintf ppf "mode '%s' diverged from native: %a" mode pp_verdict
      verdict
  | Modes_mismatch { mode; baseline; detail } ->
    Format.fprintf ppf "mode '%s' disagrees with '%s': %s" mode baseline
      detail

(* Each variant is a name and an override applied to a fresh
   [mk_cfg ()]: own Netmodel state, own tcache. The native reference is
   recorded once and every variant is replayed against it; the first
   variant is the baseline the others are cross-compared with. *)
let modes ~fuel ~ops ~audit ?on_controller mk_cfg img variants =
  let data_lo = img.Isa.Image.data_base in
  let data_hi = data_lo + Bytes.length img.Isa.Image.data in
  let reference = record ~fuel img in
  let rec go baseline = function
    | [] ->
      let events = Option.fold ~none:0 ~some:(fun (_, _, e) -> e) baseline in
      Modes_equivalent { modes = List.map fst variants; events }
    | (mode, override) :: rest -> (
      match reference with
      | None -> Mode_diverged { mode; verdict = Native_out_of_fuel }
      | Some r -> (
        match
          replay ~fuel ~ops ~audit ?on_controller r (override (mk_cfg ())) img
        with
        | Equivalent { events }, c -> (
          let seen =
            ( Machine.Cpu.outputs c.cpu,
              Machine.Memory.hash c.cpu.mem ~lo:data_lo ~hi:data_hi )
          in
          match baseline with
          | None -> go (Some (mode, seen, events)) rest
          | Some (base, (bouts, bhash), _) ->
            let mismatch detail =
              Modes_mismatch { mode; baseline = base; detail }
            in
            if fst seen <> bouts then mismatch "output streams differ"
            else if snd seen <> bhash then
              mismatch "final data segment differs"
            else go baseline rest)
        | verdict, _ -> Mode_diverged { mode; verdict }))
  in
  go None variants

(* Chaining modes: no chaining, eager chaining, chaining + superblock
   formation. Valid under any replacement policy, including the
   recency policies whose entry streams chaining legitimately thins. *)
let chain_modes ?(fuel = 2_000_000) ?(ops = []) ?(audit = false) ?oracle
    ?(superblock_threshold = 1) mk_cfg img : modes_verdict =
  let mode chain threshold cfg =
    { cfg with Config.chain; superblock_threshold = threshold }
  in
  modes ~fuel ~ops ~audit
    ~on_controller:(fun c ->
      if c.Controller.cfg.Config.superblock_threshold > 0 then
        c.chain_oracle <- oracle)
    mk_cfg img
    [
      ("off", mode false 0);
      ("chain", mode true 0);
      ("chain+superblock", mode true superblock_threshold);
    ]

(* Every replacement policy in [Config.eviction_table]: the policy only
   decides *which* block dies. *)
let policies ?(fuel = 2_000_000) ?(ops = []) ?(audit = false) mk_cfg img
    : modes_verdict =
  modes ~fuel ~ops ~audit mk_cfg img
    (List.map
       (fun (name, ev) -> (name, fun cfg -> { cfg with Config.eviction = ev }))
       Config.eviction_table)

(* Block vs whole-function granularity ([Config.granularity_table]).
   [eviction] pins the replacement policy so callers can sweep the whole
   policy × granularity grid. *)
let granularity ?(fuel = 2_000_000) ?(ops = []) ?(audit = false) ?eviction
    mk_cfg img : modes_verdict =
  modes ~fuel ~ops ~audit mk_cfg img
    (List.map
       (fun (name, g) ->
         ( name,
           fun cfg ->
             let cfg = { cfg with Config.granularity = g } in
             match eviction with
             | Some ev -> { cfg with Config.eviction = ev }
             | None -> cfg ))
       Config.granularity_table)
