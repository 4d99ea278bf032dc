(* Function-granularity caching: whole-function units, PLT-style call
   indirection, and the degradation rule. Block and function
   granularity must be observationally equivalent — same outputs, same
   final data segment — for every workload, every eviction policy, and
   under random mid-run eviction/flush schedules; a function too large
   to cache degrades to block granularity for that function instead of
   aborting; and the PR's satellite bugfixes (typed bound-loop
   invariant, strict percentile with an "n/a" fleet rendering, traced
   fleet stall samples) each get a regression test. *)

open Fixtures

(* One function of [blocks] small basic blocks (always-taken branches
   split the straight line), so the whole-function unit is large while
   every individual block stays tiny — the shape the degradation rule
   exists for. *)
let prog_bigfn ~blocks =
  let b = Isa.Builder.create "bigfn" in
  let f = Isa.Builder.new_label b in
  let main = Isa.Builder.new_label b in
  Isa.Builder.entry b main;
  Isa.Builder.func b "bigfn" f (fun () ->
      Isa.Builder.li b (reg 2) 0;
      for _ = 1 to blocks do
        let next = Isa.Builder.new_label b in
        for _ = 1 to 4 do
          Isa.Builder.ins b (Isa.Instr.Alui (Add, reg 2, reg 2, 1))
        done;
        Isa.Builder.br b Eq Isa.Reg.zero Isa.Reg.zero next;
        Isa.Builder.here b next
      done;
      Isa.Builder.ins b (Isa.Instr.Jr Isa.Reg.ra));
  Isa.Builder.func b "main" main (fun () ->
      Isa.Builder.jal b f;
      Isa.Builder.ins b (Isa.Instr.Out (reg 2));
      Isa.Builder.ins b Isa.Instr.Halt);
  Isa.Builder.build b

let gran_cfg ?(tcache_bytes = 8192) ?(eviction = Softcache.Config.Fifo)
    ?(granularity = Softcache.Config.Function) () =
  Softcache.Config.make ~tcache_bytes
    ~chunking:Softcache.Config.Basic_block ~eviction ~granularity ()

(* ------------------------------------------------------------------ *)
(* PLT basics: calls resolve through slots, slots get patched, outputs
   match native *)

let test_function_mode_basic () =
  let img = prog_fib 12 in
  let native = Softcache.Runner.native img in
  let ctrl = Softcache.Controller.create (gran_cfg ()) img in
  let _ = Check.Audit.install ctrl in
  let outcome = Softcache.Controller.run ctrl in
  Alcotest.(check bool) "halts" true (outcome = Machine.Cpu.Halted);
  Alcotest.(check (list int)) "outputs" native.outputs
    (Machine.Cpu.outputs ctrl.cpu);
  Alcotest.(check bool) "PLT slots allocated" true (ctrl.stats.plt_slots > 0);
  Alcotest.(check bool) "slots specialised" true (ctrl.stats.plt_patches > 0);
  Alcotest.(check bool) "slot patches are patches" true
    (ctrl.stats.patches >= ctrl.stats.plt_patches);
  Alcotest.(check int) "nothing degraded" 0 ctrl.stats.gran_degraded;
  Check.Audit.check_exn ctrl

(* a flush re-traps every slot; re-entry re-specialises lazily *)
let test_flush_retraps_slots () =
  let img = prog_fib 10 in
  let native = Softcache.Runner.native img in
  let ctrl = Softcache.Controller.create (gran_cfg ()) img in
  let _ = Check.Audit.install ctrl in
  Alcotest.(check bool) "halts" true
    (Softcache.Controller.run ctrl = Machine.Cpu.Halted);
  let patches_before = ctrl.stats.plt_patches in
  Softcache.Controller.flush ctrl;
  Check.Audit.check_exn ctrl;
  (* drive the program again from entry: every call re-enters through a
     trapping slot and re-specialises it *)
  let b = Softcache.Controller.ensure_resident ctrl img.Isa.Image.entry in
  ctrl.cpu.pc <- b.paddr;
  ctrl.cpu.halted <- false;
  Alcotest.(check bool) "re-runs to halt" true
    (Softcache.Controller.run ctrl = Machine.Cpu.Halted);
  Alcotest.(check bool) "slots re-specialised after flush" true
    (ctrl.stats.plt_patches > patches_before);
  Alcotest.(check (list int)) "outputs repeat" (native.outputs @ native.outputs)
    (Machine.Cpu.outputs ctrl.cpu);
  Check.Audit.check_exn ctrl

(* ------------------------------------------------------------------ *)
(* Degradation: a function bigger than the tcache must fall back to
   block granularity for that function, not abort *)

let test_oversized_function_degrades () =
  let img = prog_bigfn ~blocks:60 in
  let native = Softcache.Runner.native img in
  let ctrl =
    Softcache.Controller.create (gran_cfg ~tcache_bytes:1024 ()) img
  in
  let _ = Check.Audit.install ctrl in
  let outcome = Softcache.Controller.run ctrl in
  Alcotest.(check bool) "halts (no Chunk_too_large abort)" true
    (outcome = Machine.Cpu.Halted);
  Alcotest.(check (list int)) "outputs" native.outputs
    (Machine.Cpu.outputs ctrl.cpu);
  Alcotest.(check bool) "degradation recorded" true
    (ctrl.stats.gran_degraded > 0);
  Alcotest.(check bool) "body ran as multiple block units" true
    (ctrl.stats.translations > 2);
  Check.Audit.check_exn ctrl

(* the degraded-extent decision is sticky: re-requesting the entry after
   a flush must not re-attempt the whole-function unit *)
let test_degradation_sticky () =
  let img = prog_bigfn ~blocks:60 in
  let ctrl =
    Softcache.Controller.create (gran_cfg ~tcache_bytes:1024 ()) img
  in
  Alcotest.(check bool) "halts" true
    (Softcache.Controller.run ctrl = Machine.Cpu.Halted);
  let degraded = ctrl.stats.gran_degraded in
  Alcotest.(check bool) "degraded" true (degraded > 0);
  Softcache.Controller.flush ctrl;
  let b = Softcache.Controller.ensure_resident ctrl img.Isa.Image.entry in
  ctrl.cpu.pc <- b.paddr;
  ctrl.cpu.halted <- false;
  Alcotest.(check bool) "re-runs" true
    (Softcache.Controller.run ctrl = Machine.Cpu.Halted);
  Alcotest.(check int) "no second degradation of the same function"
    degraded ctrl.stats.gran_degraded

(* ------------------------------------------------------------------ *)
(* Satellite: the bound loop raises a typed invariant, not assert false *)

let test_bound_loop_typed_invariant () =
  let ctrl =
    Softcache.Controller.create
      (gran_cfg ~granularity:Softcache.Config.Block ())
      (prog_fib 12)
  in
  ctrl.chaos_evict_bound <- true;
  match Softcache.Controller.run ctrl with
  | _ -> Alcotest.fail "bound-target eviction went unnoticed"
  | exception Softcache.Controller.Internal_invariant_broken { chunk; detail }
    ->
    Alcotest.(check bool) "carries the chunk vaddr" true (chunk >= 0x1000);
    Alcotest.(check bool) "names the bound loop" true
      (String.length detail > 0)

(* ------------------------------------------------------------------ *)
(* Satellites: Report.percentile stays strict; the fleet summary
   renders n/a instead of masking an empty stall population *)

let test_percentile_strict () =
  Alcotest.check_raises "empty sample list"
    (Invalid_argument "Report.percentile: empty sample list") (fun () ->
      ignore (Report.percentile 50.0 []));
  Alcotest.(check (float 0.0)) "singleton" 7.0 (Report.percentile 99.0 [ 7.0 ])

let test_fleet_empty_stalls_render_na () =
  let img = prog_sum 10 in
  let net = Netmodel.local () in
  let mk_cfg _ = Softcache.Config.make ~tcache_bytes:4096 ~net () in
  let fl = Fleet.create ~clients:2 ~net mk_cfg [| img |] in
  (* before any instruction runs, no session has a stall sample — the
     summary must say so rather than fabricate a 0-cycle percentile *)
  Array.iter
    (fun (c : Fleet.client_stats) ->
      Alcotest.(check bool) "p50 is None" true (c.c_stall_p50 = None);
      Alcotest.(check bool) "p99 is None" true (c.c_stall_p99 = None))
    (Array.map Fleet.client_stats (Fleet.sessions fl));
  let fields = Fleet.summary_fields fl in
  Alcotest.(check string) "p50 rendered" "n/a;n/a"
    (List.assoc "stall_p50" fields);
  Alcotest.(check string) "p99 rendered" "n/a;n/a"
    (List.assoc "stall_p99" fields);
  (* after a run every session fetched at least its entry chunk, so the
     percentiles come back as numbers *)
  Fleet.run ~fuel:200_000 fl;
  Array.iter
    (fun (c : Fleet.client_stats) ->
      Alcotest.(check bool) "p50 present after run" true
        (c.c_stall_p50 <> None))
    (Array.map Fleet.client_stats (Fleet.sessions fl))

(* ------------------------------------------------------------------ *)
(* Satellite: fleet stall samples reach the trace, and both exporters
   still validate against their schemas *)

let test_fl_stall_traced () =
  let img = prog_sum 200 in
  let net = Netmodel.ethernet_10mbps () in
  let mk_cfg _ = Softcache.Config.make ~tcache_bytes:4096 ~net () in
  let fl = Fleet.create ~clients:2 ~net mk_cfg [| img |] in
  let tr = Trace.create () in
  Fleet.attach_tracer fl tr;
  Fleet.run ~fuel:500_000 fl;
  let stall_events =
    List.filter
      (fun (_, e) -> match e with Trace.Fl_stall _ -> true | _ -> false)
      (Trace.events tr)
  in
  Alcotest.(check bool) "Fl_stall events emitted" true (stall_events <> []);
  (* the traced population is exactly the percentile population *)
  let sampled =
    Array.fold_left
      (fun acc s -> acc + List.length (Fleet.stall_samples s))
      0 (Fleet.sessions fl)
  in
  Alcotest.(check int) "one event per stall sample" sampled
    (List.length stall_events);
  (match Trace.Schema.validate_jsonl (Trace.to_jsonl tr) with
  | Ok n -> Alcotest.(check bool) "jsonl events" true (n > 0)
  | Error e -> Alcotest.failf "jsonl schema: %s" e);
  match Trace.Schema.validate_chrome (Trace.to_chrome tr) with
  | Ok n -> Alcotest.(check bool) "chrome events" true (n > 0)
  | Error e -> Alcotest.failf "chrome schema: %s" e

(* ------------------------------------------------------------------ *)
(* The qcheck property: random program x tcache size x eviction policy
   x invalidate/flush schedule — block and function granularity stay
   observationally equivalent (each in data-access lockstep with
   native, then cross-compared), with the auditor's PLT section armed
   on every controller event. *)

let qcheck_cases_executed = ref 0

let schedule_gen =
  QCheck.Gen.(
    pair
      (triple (int_range 0 1) (* program family *)
         (int_range 8 13) (* size parameter *)
         (oneofl [ 1024; 2048; 4096 ]) (* tcache bytes *))
      (pair
         (int_range 0 (List.length Softcache.Config.eviction_table - 1))
         (list_size (int_range 0 3) (int_range 0 2) (* mid-run ops *))))

let schedule_print =
  QCheck.Print.(pair (triple int int int) (pair int (list int)))

let schedule_prop ((family, n, tcache_bytes), (ev_i, sched)) =
  incr qcheck_cases_executed;
  let img = if family = 0 then prog_sum (20 + (n * 17)) else prog_fib n in
  let eviction = snd (List.nth Softcache.Config.eviction_table ev_i) in
  let native = Softcache.Runner.native img in
  let fuel = (2 * native.retired) + 4096 in
  let hi = 0x1000 + Isa.Image.static_text_bytes img in
  let ops =
    List.map
      (fun op ctrl ->
        match op with
        | 1 -> Softcache.Controller.invalidate ctrl ~lo:0 ~hi
        | 2 -> Softcache.Controller.flush ctrl
        | _ -> ())
      sched
  in
  let mk_cfg () =
    Softcache.Config.make ~tcache_bytes
      ~chunking:Softcache.Config.Basic_block ()
  in
  match
    Check.Lockstep.granularity ~fuel ~ops ~audit:true ~eviction mk_cfg img
  with
  | Check.Lockstep.Modes_equivalent { events; _ } -> events > 0
  | v ->
    QCheck.Test.fail_reportf "granularity schedule property violated: %a"
      Check.Lockstep.pp_modes_verdict v

let test_qcheck_schedules () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:200 ~name:"granularity schedule property"
       (QCheck.make ~print:schedule_print schedule_gen)
       schedule_prop);
  Alcotest.(check bool)
    (Printf.sprintf "qcheck executed %d cases (>= 200)"
       !qcheck_cases_executed)
    true
    (!qcheck_cases_executed >= 200)

(* ------------------------------------------------------------------ *)
(* Registry-wide: every workload x every eviction policy, block and
   function granularity observationally equivalent *)

let test_granularity_registry_all_policies () =
  List.iter
    (fun (e : Workloads.Registry.entry) ->
      let img = e.build () in
      (* fuel sized to the workload so the sweep stays tractable *)
      let native = Softcache.Runner.native ~fuel:12_000_000 img in
      let fuel = (2 * native.retired) + 4096 in
      List.iter
        (fun (ev_name, eviction) ->
          match
            Check.Lockstep.granularity ~fuel ~eviction
              (fun () ->
                Softcache.Config.make ~tcache_bytes:8192
                  ~chunking:Softcache.Config.Basic_block ())
              img
          with
          | Check.Lockstep.Modes_equivalent { modes; events } ->
            Alcotest.(check (list string))
              (Printf.sprintf "%s/%s covers both granularities" e.name
                 ev_name)
              [ "block"; "function" ] modes;
            Alcotest.(check bool)
              (Printf.sprintf "%s/%s compared something" e.name ev_name)
              true (events > 0)
          | v ->
            Alcotest.failf "%s/%s: %a" e.name ev_name
              Check.Lockstep.pp_modes_verdict v)
        Softcache.Config.eviction_table)
    Workloads.Registry.all

let () =
  Alcotest.run "gran"
    [
      ( "plt",
        [
          Alcotest.test_case "calls resolve through patched slots" `Quick
            test_function_mode_basic;
          Alcotest.test_case "flush re-traps, re-entry re-specialises" `Quick
            test_flush_retraps_slots;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "oversized function degrades to blocks" `Quick
            test_oversized_function_degrades;
          Alcotest.test_case "degradation is sticky across flushes" `Quick
            test_degradation_sticky;
        ] );
      ( "satellites",
        [
          Alcotest.test_case "bound loop raises typed invariant" `Quick
            test_bound_loop_typed_invariant;
          Alcotest.test_case "percentile stays strict" `Quick
            test_percentile_strict;
          Alcotest.test_case "fleet renders n/a for empty stalls" `Quick
            test_fleet_empty_stalls_render_na;
          Alcotest.test_case "fleet stalls reach the trace" `Quick
            test_fl_stall_traced;
        ] );
      ( "property",
        [
          Alcotest.test_case "random schedules, 200 cases" `Slow
            test_qcheck_schedules;
        ] );
      ( "lockstep",
        [
          Alcotest.test_case "registry x policy equivalence" `Slow
            test_granularity_registry_all_policies;
        ] );
    ]
