(* The multi-hart execution layer: N CPU hart contexts advancing under
   a deterministic seeded interleaving scheduler, sharing one
   controller (and through it the tcache, sharded or not).

   Memory model. Each hart owns a private [Machine.Memory] — its own
   data segment and stack — while every write into the tcache region
   is mirrored byte-identically into all hart memories by
   [Cc_state.write_word] (through [Memory.write32], so per-hart decode
   caches invalidate). That simulates coherent shared code over
   private data, and makes "each hart's outputs equal the native run's
   outputs" a checkable invariant.

   Concurrency model. Simulated, not host-parallel: exactly one hart
   advances at a time, under quantum slices picked by the seeded
   scheduler — the same seed replays the same interleaving
   byte-identically. Controller work a hart triggers (translation,
   patching, scrubbing) is charged to that hart's own clock by
   pointing [ctrl.cpu] at it while it runs. The hart clocks stay
   mutually comparable because the scheduler favours the laggard
   (windowed min-clock), which is what makes cross-hart timestamps
   (fill completion, MC busy-until) meaningful as a virtual global
   time.

   Concurrent misses go through one fill record per chunk: its owner
   and its completion stamp. A miss on an absent chunk opens a fill
   owned by the missing hart, with the stamp [max_int] (in flight),
   waits for the shared MC link if busy ([mc_free_at]), fetches and
   translates, and stamps the fill with its completion time. The
   in-flight window never outlives one [on_trap] call. A duplicate
   miss from another hart whose clock is before that completion time
   *coalesces*: it waits until the fill lands and re-checks residency
   — no second wire request. Every fill has exactly one owner
   ([Audit.shards]).

   Lease discipline. Only *suspended* harts hold read leases — one per
   hart, on the resident block containing its parked pc, kept only as
   the tcache's lease count — making those blocks immovable for the
   allocation sweep exactly like pins. The *active* hart holds no
   lease: it is the one mutating the cache, and its parked-pc safety
   is the controller's existing resume-redirect discipline. Flush and
   invalidation override leases (the writer takes the arenas by force;
   [Cc_evict] redirects every parked hart through its resume address).
   A 1-hart run therefore never has a lease alive while controller
   code runs, which is one half of the cycle-identity argument
   [Check.Lockstep.shards] proves; the other half is that a lone
   hart's fills always complete before its next miss
   ([f_done <= cycles]), so no wait is ever charged. *)

open Cc_state

type fill = {
  f_vaddr : int;
  f_owner : int;
  mutable f_done : int;
      (* owner-clock completion time; [max_int] while in flight *)
}

type hart = {
  h_id : int;
  h_cpu : Machine.Cpu.t;
  mutable h_wait_fill : int;  (* cycles suspended on other harts' fills *)
  mutable h_wait_mc : int;  (* cycles waiting for the MC link to free *)
  mutable h_fills : int;  (* fills this hart owned *)
  mutable h_joins : int;  (* fills this hart coalesced onto *)
}

type t = {
  ctrl : Cc_state.t;
  harts : hart array;
  sched : Machine.Sched.t;
  fills : (int, fill) Hashtbl.t;  (* chunk vaddr -> latest fill *)
  mutable mc_free_at : int;  (* virtual time the shared MC link frees *)
  mutable started : bool;
}

(* Cycles spent running, controller work included: everything on the
   hart's clock that was not a wait. *)
let run_cycles (h : hart) = h.h_cpu.cycles - h.h_wait_fill - h.h_wait_mc

(* ---- hart construction ----------------------------------------- *)

(* Charge a wait by advancing the hart's clock to [until]. No trace
   category — waits are idle time, counted in [h_wait_fill] /
   [h_wait_mc] rather than by the solo trace conservation (which Audit
   skips in multi-hart runs). *)
let wait_until (h : hart) until = h.h_cpu.cycles <- until

(* The miss front end: residency / in-flight-fill resolution for one
   target vaddr, before delegating to the ordinary trap path. Returns
   the fill this hart now owns, if any.

   Execution order and virtual time disagree here, deliberately: the
   simulation runs one hart at a time, so the owner's fill is already
   complete (and the chunk resident) by the time another hart's
   duplicate miss executes. Whether that later hart *coalesces* is
   decided in virtual time — if its clock is still before the fill's
   completion stamp, it arrived while the fill was in flight, joins
   it, and waits out the remainder; no second wire message. A hart
   arriving after the stamp simply hits. *)
let acquire t (h : hart) v =
  match Tcache.lookup t.ctrl.tc v with
  | Some _ ->
    (match Hashtbl.find_opt t.fills v with
    | Some f when f.f_done > h.h_cpu.cycles ->
      (* duplicate miss in virtual time: join the in-flight fill *)
      let wait = f.f_done - h.h_cpu.cycles in
      h.h_wait_fill <- h.h_wait_fill + wait;
      h.h_joins <- h.h_joins + 1;
      t.ctrl.stats.fills_coalesced <- t.ctrl.stats.fills_coalesced + 1;
      t.ctrl.stats.fill_wait_cycles <- t.ctrl.stats.fill_wait_cycles + wait;
      wait_until h f.f_done;
      trace t.ctrl (Trace.Sh_coalesce { hart = h.h_id; chunk = v; wait })
    | _ -> ());
    None
  | None ->
    (* genuinely absent (never filled, or evicted since): this hart
       owns a fresh fill *)
    let f = { f_vaddr = v; f_owner = h.h_id; f_done = max_int } in
    Hashtbl.replace t.fills v f;
    (* one MC, one link: a demand fetch serializes behind whatever the
       MC is still serving for another hart *)
    let mc_wait = max 0 (t.mc_free_at - h.h_cpu.cycles) in
    if mc_wait > 0 then begin
      h.h_wait_mc <- h.h_wait_mc + mc_wait;
      t.ctrl.stats.mc_wait_cycles <- t.ctrl.stats.mc_wait_cycles + mc_wait;
      wait_until h t.mc_free_at
    end;
    h.h_fills <- h.h_fills + 1;
    t.ctrl.stats.fills <- t.ctrl.stats.fills + 1;
    trace t.ctrl (Trace.Sh_fill { hart = h.h_id; chunk = v; wait = mc_wait });
    Some f

let finish_fill t (h : hart) = function
  | None -> ()
  | Some f ->
    f.f_done <- h.h_cpu.cycles;
    t.mc_free_at <- h.h_cpu.cycles

(* Which chunk a trap is about: derivable for every stub kind. The
   register-indirect kinds read the register before [Cc_trap] runs —
   [Icall] writes [rd] only afterwards, so the read is safe. *)
let stub_target t (h : hart) k =
  match t.ctrl.stubs.(k) with
  | Stub.Exit { target; _ } -> target
  | Stub.Computed { rs } -> Machine.Cpu.reg h.h_cpu rs
  | Stub.Icall { rs; _ } -> Machine.Cpu.reg h.h_cpu rs
  | Stub.Ret_stub { target; _ } -> target
  | Stub.Plt { target; _ } -> target

let on_trap t (h : hart) k =
  t.ctrl.cpu <- h.h_cpu;
  let v = stub_target t h k in
  let fill = acquire t h v in
  Cc_trap.handle_trap t.ctrl k;
  finish_fill t h fill

let attach (ctrl : Cc_state.t) =
  if ctrl.started then
    invalid_arg "Shard.attach: attach before the controller starts";
  if Array.length ctrl.harts > 0 then
    invalid_arg "Shard.attach: controller already has harts attached";
  let n = ctrl.cfg.harts in
  let mem_bytes = Machine.Memory.size ctrl.cpu.mem in
  let harts =
    Array.init n (fun i ->
        let cpu =
          if i = 0 then ctrl.cpu (* hart 0 is the controller's own CPU *)
          else begin
            let mem = Machine.Memory.create mem_bytes in
            Machine.Memory.load_data mem ctrl.image;
            (* replicate whatever already landed in the tcache region
               (pre-attach preloads write through hart 0 only) *)
            let lo = Config.tcache_base in
            let hi = lo + ctrl.cfg.tcache_bytes in
            let addr = ref lo in
            while !addr < hi do
              let w = Machine.Memory.read32 ctrl.cpu.mem !addr in
              if w <> 0 then Machine.Memory.write32 mem !addr w;
              addr := !addr + 4
            done;
            Machine.Cpu.create ~cost:ctrl.cpu.cost ~engine:ctrl.cfg.engine
              ~mem ~pc:0 ()
          end
        in
        {
          h_id = i;
          h_cpu = cpu;
          h_wait_fill = 0;
          h_wait_mc = 0;
          h_fills = 0;
          h_joins = 0;
        })
  in
  ctrl.harts <- Array.map (fun h -> h.h_cpu) harts;
  let t =
    {
      ctrl;
      harts;
      sched =
        Machine.Sched.create ~window:Config.quantum ctrl.cfg.sched_seed;
      fills = Hashtbl.create 64;
      mc_free_at = 0;
      started = false;
    }
  in
  Array.iter
    (fun h -> h.h_cpu.trap_handler <- Some (fun _cpu k -> on_trap t h k))
    harts;
  t

(* ---- lease discipline at scheduling boundaries ------------------ *)

(* [resume] releases the block [suspend] leased: a suspended pc moves
   only when its block dies, which drops the lease ([Tcache.remove])
   and parks the pc on a persistent stub, which no block ever covers
   (the stub area only grows). *)
let suspend t (h : hart) =
  if not h.h_cpu.halted then
    Option.iter (Tcache.lease t.ctrl.tc)
      (Tcache.covering t.ctrl.tc h.h_cpu.pc)

let resume t (h : hart) =
  Option.iter (Tcache.release t.ctrl.tc)
    (Tcache.covering t.ctrl.tc h.h_cpu.pc);
  t.ctrl.cpu <- h.h_cpu

(* ---- the run loop ----------------------------------------------- *)

(* Bring every hart to the entry point, through the same fill state
   machine as any other miss: hart 0 (first in id order) owns the
   entry fill, the rest coalesce onto it at time 0. *)
let start t =
  if t.started then invalid_arg "Shard.start: already started";
  let entry = t.ctrl.image.Isa.Image.entry in
  Array.iter
    (fun h ->
      t.ctrl.cpu <- h.h_cpu;
      let fill = acquire t h entry in
      let b = Cc_translate.ensure_resident t.ctrl entry in
      finish_fill t h fill;
      h.h_cpu.pc <- b.Tcache.paddr)
    t.harts;
  t.ctrl.started <- true;
  t.started <- true;
  (* establish the suspension leases: from here on, outside [run]'s
     active quantum every parked hart holds its read lease *)
  Array.iter (fun h -> suspend t h) t.harts

let run ?(fuel = max_int) t =
  if not t.started then start t;
  let fuel_left = Array.map (fun _ -> fuel) t.harts in
  let runnable () =
    Array.fold_left
      (fun acc h ->
        if h.h_cpu.halted || fuel_left.(h.h_id) <= 0 then acc
        else (h.h_id, h.h_cpu.cycles) :: acc)
      [] t.harts
  in
  let rec loop () =
    match runnable () with
    | [] -> ()
    | rs ->
      let h = t.harts.(Machine.Sched.pick t.sched rs) in
      resume t h;
      let before_ret = h.h_cpu.retired in
      ignore
        (Machine.Cpu.run ~fuel:(min Config.quantum fuel_left.(h.h_id)) h.h_cpu);
      fuel_left.(h.h_id) <-
        fuel_left.(h.h_id) - (h.h_cpu.retired - before_ret);
      suspend t h;
      loop ()
  in
  loop ();
  if Array.for_all (fun h -> h.h_cpu.halted) t.harts then Machine.Cpu.Halted
  else Machine.Cpu.Out_of_fuel

(* ---- introspection ---------------------------------------------- *)

let controller t = t.ctrl
let harts t = Array.to_list t.harts
let hart t i = t.harts.(i)
let mc_free_at t = t.mc_free_at

let fills t =
  List.sort
    (fun f1 f2 -> compare (f1.f_vaddr, f1.f_done) (f2.f_vaddr, f2.f_done))
    (Hashtbl.fold (fun _ f acc -> f :: acc) t.fills [])

let total_cycles t =
  Array.fold_left (fun acc h -> acc + h.h_cpu.cycles) 0 t.harts

let makespan t =
  Array.fold_left (fun acc h -> max acc h.h_cpu.cycles) 0 t.harts

let pp_hart ppf (h : hart) =
  Format.fprintf ppf
    "hart %d: cycles=%d retired=%d run=%d wait-fill=%d wait-mc=%d fills=%d \
     joins=%d%s"
    h.h_id h.h_cpu.cycles h.h_cpu.retired (run_cycles h) h.h_wait_fill
    h.h_wait_mc
    h.h_fills h.h_joins
    (if h.h_cpu.halted then " halted" else "")
