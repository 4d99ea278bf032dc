(* Sharded multi-hart CC tests: 1-hart cycle identity against the solo
   controller across the registry, per-hart output equivalence to
   native, fill coalescing vs independent solo caches, and the qcheck
   property — random interleaving schedules x eviction policies x
   flush schedules stay audit-clean and replay byte-identically. *)

let compress_img =
  lazy ((Option.get (Workloads.Registry.find "compress95")).build ())

(* ------------------------------------------------------------------ *)
(* 1-hart cycle identity: the sharded engine with a lone hart IS the
   solo controller, step for step, on every registry workload *)

let test_lockstep_registry () =
  List.iter
    (fun (e : Workloads.Registry.entry) ->
      let mk () =
        Softcache.Config.make ~tcache_bytes:4096
          ~chunking:Softcache.Config.Basic_block ()
      in
      match Check.Lockstep.shards ~fuel:400_000 mk (e.build ()) with
      | Check.Lockstep.Engines_equivalent { steps }
      | Check.Lockstep.Engines_out_of_fuel { steps } ->
        Alcotest.(check bool)
          (Printf.sprintf "%s compared steps" e.name)
          true (steps > 0)
      | v ->
        Alcotest.failf "%s: 1-hart sharded diverged from solo: %a" e.name
          Check.Lockstep.pp_engine_verdict v)
    Workloads.Registry.all

(* ------------------------------------------------------------------ *)
(* multi-hart correctness: every hart's architectural outputs equal the
   native run's, every hart's waits fit within its clock, and the full
   shard audit is clean at the halt point *)

let test_outputs_match_native () =
  let img = Lazy.force compress_img in
  let native = Machine.Cpu.of_image img in
  ignore (Machine.Cpu.run ~fuel:3_000_000 native);
  let nouts = Machine.Cpu.outputs native in
  let cfg =
    Softcache.Config.make ~tcache_bytes:8192
      ~chunking:Softcache.Config.Basic_block ~harts:4 ~shards:2 ~sched_seed:3
      ()
  in
  let ctrl = Softcache.Controller.create cfg img in
  let sh = Softcache.Shard.attach ctrl in
  (match Softcache.Shard.run ~fuel:3_000_000 sh with
  | Machine.Cpu.Halted -> ()
  | Machine.Cpu.Out_of_fuel -> Alcotest.fail "4-hart compress95 out of fuel");
  List.iter
    (fun (h : Softcache.Shard.hart) ->
      Alcotest.(check (list int))
        (Printf.sprintf "hart %d outputs" h.h_id)
        nouts
        (Machine.Cpu.outputs h.h_cpu);
      Alcotest.(check bool)
        (Printf.sprintf "hart %d waits within the clock" h.h_id)
        true
        (h.h_wait_fill >= 0 && h.h_wait_mc >= 0
        && Softcache.Shard.run_cycles h >= 0))
    (Softcache.Shard.harts sh);
  match Check.Audit.shards sh with
  | [] -> ()
  | v :: _ ->
    Alcotest.failf "shard audit violation: %a" Check.Audit.pp_violation v

(* ------------------------------------------------------------------ *)
(* a preload before attach charges hart 0's clock before any hart runs;
   [Shard.attach] copies the words it wrote to every hart, and the
   cycles it spent are run time like any other controller work *)

let test_preload_before_attach () =
  let img = Lazy.force compress_img in
  let cfg =
    Softcache.Config.make ~tcache_bytes:16384
      ~chunking:Softcache.Config.Basic_block ~harts:2 ()
  in
  let ctrl = Softcache.Controller.create cfg img in
  let entry = img.Isa.Image.entry in
  Softcache.Controller.preload ctrl ~lo:entry ~hi:(entry + 64);
  let sh = Softcache.Shard.attach ctrl in
  ignore (Softcache.Shard.run ~fuel:200_000 sh);
  match Check.Audit.shards sh with
  | [] -> ()
  | v :: _ ->
    Alcotest.failf "shard audit violation: %a" Check.Audit.pp_violation v

(* ------------------------------------------------------------------ *)
(* every hart's copy of the tcache region is hart 0's word for word: a
   code word that lands in one hart's memory only (a missed mirror
   write) is a shard-mirror violation naming that hart and the word *)

let test_mirror_divergence_reported () =
  let img = Lazy.force compress_img in
  let cfg =
    Softcache.Config.make ~tcache_bytes:8192
      ~chunking:Softcache.Config.Basic_block ~harts:2 ()
  in
  let ctrl = Softcache.Controller.create cfg img in
  let sh = Softcache.Shard.attach ctrl in
  ignore (Softcache.Shard.run ~fuel:200_000 sh);
  (match Check.Audit.shards sh with
  | [] -> ()
  | v :: _ ->
    Alcotest.failf "clean before the mutation: %a" Check.Audit.pp_violation v);
  let h1 = Softcache.Shard.hart sh 1 in
  let addr = Softcache.Config.tcache_base + 16 in
  let w = Machine.Memory.read32 h1.h_cpu.mem addr land 0xFFFFFFFF in
  Machine.Memory.write32 h1.h_cpu.mem addr (w lxor 0x1F);
  Alcotest.(check (list string))
    "one shard-mirror violation, naming hart 1 and the word"
    [
      Printf.sprintf
        "hart 1's tcache region differs from hart 0's in 1 word(s), first at \
         0x%x (0x%08x, hart 0 holds 0x%08x)"
        addr (w lxor 0x1F) w;
    ]
    (List.filter_map
       (fun (v : Check.Audit.violation) ->
         if v.invariant = "shard-mirror" then Some v.detail else None)
       (Check.Audit.shards sh))

(* ------------------------------------------------------------------ *)
(* coalescing: N harts over one shared tcache put fewer messages on the
   wire than N independent solo caches running the same workload *)

let test_coalescing_cuts_wire () =
  let img = Lazy.force compress_img in
  let n = 4 in
  let shard_net = Netmodel.ethernet_10mbps () in
  let cfg =
    Softcache.Config.make ~tcache_bytes:8192
      ~chunking:Softcache.Config.Basic_block ~net:shard_net ~harts:n ()
  in
  let ctrl = Softcache.Controller.create cfg img in
  let sh = Softcache.Shard.attach ctrl in
  ignore (Softcache.Shard.run ~fuel:400_000 sh);
  let shared = Netmodel.messages shard_net in
  Alcotest.(check bool) "some joins happened" true
    (ctrl.Softcache.Controller.stats.Softcache.Stats.fills_coalesced > 0);
  let solo_net = Netmodel.ethernet_10mbps () in
  let solo_cfg =
    Softcache.Config.make ~tcache_bytes:8192
      ~chunking:Softcache.Config.Basic_block ~net:solo_net ()
  in
  let solo = Softcache.Controller.create solo_cfg img in
  ignore (Softcache.Controller.run ~fuel:400_000 solo);
  let solo_msgs = n * Netmodel.messages solo_net in
  Alcotest.(check bool)
    (Printf.sprintf "shared %d msgs < %dx solo %d msgs" shared n solo_msgs)
    true (shared < solo_msgs)

(* ------------------------------------------------------------------ *)
(* qcheck: random interleaving schedules x eviction policies x flush
   schedules. Every segmented run must stay audit-clean at each
   quiescent point, and the whole run must replay byte-identically
   from the same seed (schedule determinism). *)

let eviction_policies =
  List.map snd Softcache.Config.eviction_table

(* One segmented run: three fuel segments with an optional external
   flush after each (per [flush_mask] bit), auditing at every quiescent
   point. Returns (violations, fingerprint). *)
let segmented_run ~seed ~eviction ~harts ~shards ~flush_mask img =
  let cfg =
    Softcache.Config.make ~tcache_bytes:3072
      ~chunking:Softcache.Config.Basic_block ~eviction ~harts ~shards
      ~sched_seed:seed ()
  in
  let ctrl = Softcache.Controller.create cfg img in
  let sh = Softcache.Shard.attach ctrl in
  let viols = ref [] in
  let seg = 15_000 in
  for k = 1 to 3 do
    ignore (Softcache.Shard.run ~fuel:(k * seg) sh);
    if (flush_mask lsr (k - 1)) land 1 = 1 then Softcache.Controller.flush ctrl;
    viols := !viols @ Check.Audit.shards sh
  done;
  let b = Buffer.create 256 in
  List.iter
    (fun (h : Softcache.Shard.hart) ->
      Buffer.add_string b
        (Printf.sprintf "h%d:c=%d r=%d pc=%x run=%d wf=%d wm=%d f=%d j=%d;"
           h.h_id h.h_cpu.cycles h.h_cpu.retired h.h_cpu.pc
           (Softcache.Shard.run_cycles h)
           h.h_wait_fill h.h_wait_mc h.h_fills h.h_joins))
    (Softcache.Shard.harts sh);
  Buffer.add_string b
    (Format.asprintf "mc=%d span=%d %a" (Softcache.Shard.mc_free_at sh)
       (Softcache.Shard.makespan sh)
       Softcache.Stats.pp ctrl.Softcache.Controller.stats);
  (!viols, Buffer.contents b)

let prop_schedules_audit_clean_deterministic =
  QCheck.Test.make ~count:200
    ~name:"random schedule x policy x flushes: audit-clean, replays identically"
    QCheck.(
      quad (int_bound 9999)
        (int_bound (List.length eviction_policies - 1))
        (int_range 2 4) (int_bound 7))
    (fun (seed, pol, harts, flush_mask) ->
      let img = Lazy.force compress_img in
      let eviction = List.nth eviction_policies pol in
      let shards = 1 + (seed land 1) in
      let viols, fp1 =
        segmented_run ~seed ~eviction ~harts ~shards ~flush_mask img
      in
      let viols2, fp2 =
        segmented_run ~seed ~eviction ~harts ~shards ~flush_mask img
      in
      if viols <> [] then
        QCheck.Test.fail_reportf "audit violation: %a"
          Check.Audit.pp_violation (List.hd viols);
      if viols2 <> [] then
        QCheck.Test.fail_reportf "replay audit violation: %a"
          Check.Audit.pp_violation (List.hd viols2);
      if fp1 <> fp2 then
        QCheck.Test.fail_reportf "replay diverged:@.%s@.vs@.%s" fp1 fp2;
      true)

let () =
  Alcotest.run "shard"
    [
      ( "lockstep",
        [
          Alcotest.test_case "1-hart sharded = solo, registry-wide" `Slow
            test_lockstep_registry;
        ] );
      ( "multi-hart",
        [
          Alcotest.test_case "per-hart outputs = native" `Slow
            test_outputs_match_native;
          Alcotest.test_case "coalescing cuts wire messages" `Quick
            test_coalescing_cuts_wire;
          Alcotest.test_case "preload before attach audits clean" `Quick
            test_preload_before_attach;
          Alcotest.test_case "a missed mirror write is reported" `Quick
            test_mirror_divergence_reported;
        ] );
      ( "schedules",
        [
          QCheck_alcotest.to_alcotest
            prop_schedules_audit_clean_deterministic;
        ] );
    ]
