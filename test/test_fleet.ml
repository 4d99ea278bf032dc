(* Fleet-service tests: the multi-client MC simulation (determinism,
   1-client lockstep identity, dedup effectiveness, invariant audit),
   the [Report.percentile] helper the fleet stall metrics ride on, the
   piggyback transport primitive, the transfer/transfer_batch fault
   equivalence pin, and the superblock working-set-knee regression. *)

(* ------------------------------------------------------------------ *)
(* Report.percentile — exact nearest-rank semantics *)

let pct = Report.percentile

let test_percentile_nearest_rank () =
  (* no interpolation: p50 of [1;2;3;4] is element ceil(0.5*4) = 2 *)
  Alcotest.(check (float 0.0)) "p50 even n" 2.0 (pct 50.0 [ 1.; 2.; 3.; 4. ]);
  Alcotest.(check (float 0.0)) "p50 odd n" 2.0 (pct 50.0 [ 3.; 1.; 2. ]);
  Alcotest.(check (float 0.0)) "unsorted input" 2.0 (pct 50.0 [ 4.; 2.; 1.; 3. ])

let test_percentile_extremes () =
  let l = [ 7.; -2.; 99.; 4. ] in
  (* rank is clamped to >= 1, so p0 is the minimum *)
  Alcotest.(check (float 0.0)) "p0 = min" (-2.0) (pct 0.0 l);
  Alcotest.(check (float 0.0)) "p100 = max" 99.0 (pct 100.0 l);
  Alcotest.(check (float 0.0)) "singleton p1" 5.0 (pct 1.0 [ 5.0 ]);
  Alcotest.(check (float 0.0)) "singleton p99" 5.0 (pct 99.0 [ 5.0 ])

let test_percentile_known_distribution () =
  let l = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 0.0)) "p99 of 1..100" 99.0 (pct 99.0 l);
  Alcotest.(check (float 0.0)) "p50 of 1..100" 50.0 (pct 50.0 l);
  let l101 = List.init 101 (fun i -> float_of_int (i + 1)) in
  (* ceil(0.99 * 101) = 100 *)
  Alcotest.(check (float 0.0)) "p99 of 1..101" 100.0 (pct 99.0 l101);
  (* ties: sorted [1;5;5], rank ceil(0.5*3) = 2 *)
  Alcotest.(check (float 0.0)) "ties" 5.0 (pct 50.0 [ 5.; 5.; 1. ])

let test_percentile_invalid () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Report.percentile: empty sample list") (fun () ->
      ignore (pct 50.0 []));
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Report.percentile: 101 not in [0,100]") (fun () ->
      ignore (pct 101.0 [ 1.0 ]))

(* ------------------------------------------------------------------ *)
(* single-segment vs split transfer_batch: the combined drop x
   duplicate fault roll must be identical on both paths (both reduce
   to one frame) — result, received bytes, and every counter, under
   any fault mix. Pins the batch-fault audit finding: there is exactly
   one roll per frame, not one per segment. *)

let mk_faulty_pair seed knobs =
  let faults () =
    Netmodel.Faults.make ~seed
      ~drop:(float_of_int (knobs land 3) /. 4.0)
      ~corrupt:(float_of_int ((knobs lsr 2) land 3) /. 4.0)
      ~duplicate:(float_of_int ((knobs lsr 4) land 3) /. 4.0)
      ~delay_spike:(float_of_int ((knobs lsr 6) land 3) /. 4.0)
      ()
  in
  (Netmodel.local ~faults:(faults ()) (), Netmodel.local ~faults:(faults ()) ())

let counters n =
  ( Netmodel.messages n,
    Netmodel.payload_bytes n,
    Netmodel.total_bytes n,
    Netmodel.drops n,
    Netmodel.corruptions n,
    Netmodel.duplicates n,
    Netmodel.delay_spikes n )

let test_transfer_batch_single_equiv_q =
  QCheck.Test.make ~count:60
    ~name:"1-segment = split transfer_batch under combined faults"
    QCheck.(pair (int_range 0 10_000) (int_bound 255))
    (fun (seed, knobs) ->
      let n1, n2 = mk_faulty_pair seed knobs in
      let ok = ref true in
      for i = 1 to 150 do
        let payload =
          Bytes.init 24 (fun j -> Char.chr ((j + (i * 31) + seed) land 0xff))
        in
        let a = Netmodel.transfer_batch n1 ~payloads:[ payload ] in
        let b =
          Netmodel.transfer_batch n2
            ~payloads:[ Bytes.sub payload 0 10; Bytes.sub payload 10 14 ]
        in
        (match (a, b) with
        | Ok (c1, [ r1 ]), Ok (c2, r2) ->
          if c1 <> c2 || not (Bytes.equal r1 (Bytes.concat Bytes.empty r2))
          then ok := false
        | Error (`Dropped c1), Error (`Dropped c2) ->
          if c1 <> c2 then ok := false
        | _ -> ok := false)
      done;
      !ok && counters n1 = counters n2)

(* ------------------------------------------------------------------ *)
(* transfer_piggyback: riders charge marginal wire time only and
   account no message *)

let test_piggyback_marginal_cost () =
  let net =
    Netmodel.create ~latency_cycles:50_000 ~cycles_per_byte:100
      ~overhead_bytes:40 ()
  in
  (* occupy the link with a host frame first *)
  (match Netmodel.transfer_batch net ~payloads:[ Bytes.create 32 ] with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "fault-free transfer dropped");
  let m0 = Netmodel.messages net in
  let p0 = Netmodel.payload_bytes net in
  let w0 = Netmodel.total_bytes net in
  let payload = Bytes.init 24 (fun i -> Char.chr (i land 0xff)) in
  let cost, segs = Netmodel.transfer_piggyback net ~payloads:[ payload ] in
  (* marginal per-byte time only: no latency, no per-message overhead *)
  Alcotest.(check int) "cost = cycles_per_byte * len" (100 * 24) cost;
  Alcotest.(check int) "no new message" m0 (Netmodel.messages net);
  Alcotest.(check int) "payload accounted" (p0 + 24)
    (Netmodel.payload_bytes net);
  Alcotest.(check int) "no overhead bytes" (w0 + 24)
    (Netmodel.total_bytes net);
  match segs with
  | [ r ] -> Alcotest.(check bytes) "fault-free rider intact" payload r
  | _ -> Alcotest.fail "expected one rider segment"

let test_piggyback_deterministic () =
  let mk () =
    Netmodel.local
      ~faults:(Netmodel.Faults.make ~seed:42 ~corrupt:0.5 ())
      ()
  in
  let n1 = mk () and n2 = mk () in
  let drive n =
    List.init 20 (fun i ->
        let payloads = [ Bytes.make 16 (Char.chr (i land 0xff)) ] in
        Netmodel.transfer_piggyback n ~payloads)
  in
  Alcotest.(check bool) "same seed, same riders" true (drive n1 = drive n2);
  Alcotest.(check int) "same corruption count" (Netmodel.corruptions n1)
    (Netmodel.corruptions n2)

(* ------------------------------------------------------------------ *)
(* fleet behaviour *)

let compress_img =
  lazy ((Option.get (Workloads.Registry.find "compress95")).build ())

let shared_link () =
  Netmodel.create ~latency_cycles:100_000 ~cycles_per_byte:160
    ~overhead_bytes:60 ()

let mk_fleet ?(clients = 4) ?(dedup = true) ?faults () =
  let net =
    match faults with
    | Some f ->
      Netmodel.create ~latency_cycles:100_000 ~cycles_per_byte:160
        ~overhead_bytes:60 ~faults:f ()
    | None -> shared_link ()
  in
  let mk_cfg _ =
    Softcache.Config.make ~tcache_bytes:4096
      ~chunking:Softcache.Config.Basic_block ~net ()
  in
  Fleet.create ~clients ~dedup ~net mk_cfg [| Lazy.force compress_img |]

let test_fleet_deterministic () =
  (* same seed, same config: byte-identical summary rows — the
     BENCH_fleet.json determinism gate in miniature *)
  let row () =
    let faults = Netmodel.Faults.make ~seed:9 ~drop:0.02 ~corrupt:0.01 () in
    let fl = mk_fleet ~faults () in
    Fleet.run ~fuel:300_000 fl;
    Fleet.summary_fields fl
  in
  let a = row () and b = row () in
  List.iter2
    (fun (ka, va) (kb, vb) ->
      Alcotest.(check string) (Printf.sprintf "key %s" ka) ka kb;
      Alcotest.(check string) (Printf.sprintf "value %s" ka) va vb)
    a b

let test_fleet_one_client_lockstep () =
  (* the 1-client fleet reduces exactly to the single-client path:
     cycle-for-cycle, draw-for-draw, even over a faulty link *)
  let faults = Netmodel.Faults.make ~seed:11 ~drop:0.02 ~corrupt:0.01 () in
  let mk_cfg () =
    Softcache.Config.make ~tcache_bytes:4096
      ~chunking:Softcache.Config.Basic_block
      ~net:(Netmodel.ethernet_10mbps ~faults ())
      ()
  in
  match
    Check.Lockstep.fleet ~fuel:800_000 mk_cfg (Lazy.force compress_img)
  with
  | Check.Lockstep.Engines_equivalent { steps }
  | Check.Lockstep.Engines_out_of_fuel { steps } ->
    Alcotest.(check bool) "compared steps" true (steps > 0)
  | v ->
    Alcotest.failf "1-client fleet diverged from solo: %a"
      Check.Lockstep.pp_engine_verdict v

let test_fleet_dedup_cuts_wire () =
  (* four identical clients: the shared chunk cache plus coalescing
     must cut aggregate wire traffic well below the dedup-off fleet *)
  let wire dedup =
    let fl = mk_fleet ~dedup () in
    Fleet.run ~fuel:400_000 fl;
    int_of_string (List.assoc "wire_bytes" (Fleet.summary_fields fl))
  in
  let on = wire true and off = wire false in
  Alcotest.(check bool)
    (Printf.sprintf "dedup wire %d < no-dedup wire %d" on off)
    true
    (on < off)

let test_fleet_audit_clean () =
  let fl = mk_fleet () in
  Fleet.run ~fuel:400_000 fl;
  match Check.Audit.fleet fl with
  | [] -> ()
  | v :: _ ->
    Alcotest.failf "fleet audit violation: %a" Check.Audit.pp_violation v

(* ------------------------------------------------------------------ *)
(* auto-size admission, heterogeneous workloads, multi-hart sessions *)

let adpcm_img =
  lazy ((Option.get (Workloads.Registry.find "adpcm_encode")).build ())

let test_fleet_autosize_admission () =
  (* the sizing hook grows an under-provisioned client to the predicted
     need (rounded up to 16) and never shrinks an over-provisioned one *)
  let net = shared_link () in
  let mk_cfg _ =
    Softcache.Config.make ~tcache_bytes:4096
      ~chunking:Softcache.Config.Basic_block ~net ()
  in
  let sizing = function
    | 0 -> Some 10_001 (* above configured: grow, round to 10016 *)
    | 1 -> Some 2048 (* below configured: keep 4096 *)
    | _ -> None
  in
  let fl =
    Fleet.create ~clients:3 ~sizing ~net mk_cfg [| Lazy.force compress_img |]
  in
  let stats =
    List.map Fleet.client_stats (Array.to_list (Fleet.sessions fl))
  in
  Alcotest.(check (list int))
    "admitted tcache sizes"
    [ 10_016; 4096; 4096 ]
    (List.map (fun c -> c.Fleet.c_tcache_bytes) stats);
  Alcotest.(check (list (option int)))
    "predicted sizes reported"
    [ Some 10_001; Some 2048; None ]
    (List.map (fun c -> c.Fleet.c_predicted_bytes) stats);
  (* and the admitted fleet still runs and audits clean *)
  Fleet.run ~fuel:200_000 fl;
  match Check.Audit.fleet fl with
  | [] -> ()
  | v :: _ ->
    Alcotest.failf "auto-sized fleet audit: %a" Check.Audit.pp_violation v

let test_fleet_heterogeneous_workloads () =
  (* mixed-workload fleet: images assigned round-robin, every client's
     cached chunks stay inside its own image's text segment, and the
     audit (which checks exactly that) is clean *)
  let net = shared_link () in
  let mk_cfg _ =
    Softcache.Config.make ~tcache_bytes:4096
      ~chunking:Softcache.Config.Basic_block ~net ()
  in
  let images = [| Lazy.force compress_img; Lazy.force adpcm_img |] in
  let fl = Fleet.create ~clients:4 ~net mk_cfg images in
  Fleet.run ~fuel:200_000 fl;
  Array.iteri
    (fun i s ->
      Alcotest.(check string)
        (Printf.sprintf "client %d image" i)
        images.(i mod 2).Isa.Image.name
        (Fleet.image s).Isa.Image.name)
    (Fleet.sessions fl);
  match Check.Audit.fleet fl with
  | [] -> ()
  | v :: _ ->
    Alcotest.failf "heterogeneous fleet audit: %a" Check.Audit.pp_violation v

let test_fleet_multihart_sessions () =
  (* clients configured with harts > 1 advance through the shard
     scheduler; the session exposes its shard, the summary reports the
     makespan, and the audit runs the full shard suite per client *)
  let net = shared_link () in
  let mk_cfg _ =
    Softcache.Config.make ~tcache_bytes:4096
      ~chunking:Softcache.Config.Basic_block ~harts:2 ~sched_seed:5 ~net ()
  in
  let fl =
    Fleet.create ~clients:2 ~net mk_cfg [| Lazy.force compress_img |]
  in
  Fleet.run ~fuel:150_000 fl;
  Array.iter
    (fun s ->
      (match Fleet.shard s with
      | None -> Alcotest.fail "2-hart session exposes no shard"
      | Some sh ->
        Alcotest.(check int) "two harts" 2
          (List.length (Softcache.Shard.harts sh));
        let c = Fleet.client_stats s in
        Alcotest.(check int) "c_cycles is the shard makespan"
          (Softcache.Shard.makespan sh) c.Fleet.c_cycles;
        Alcotest.(check int) "c_harts" 2 c.Fleet.c_harts))
    (Fleet.sessions fl);
  match Check.Audit.fleet fl with
  | [] -> ()
  | v :: _ ->
    Alcotest.failf "multi-hart fleet audit: %a" Check.Audit.pp_violation v

let test_fleet_multihart_horizon () =
  (* windows are pruned below the slowest running hart of a multi-hart
     session, not below whichever hart ran last: a lagging hart joins
     the frame it can still reach instead of sending its own. Reading
     the last-run hart gave 9194 joins and 21130 frames here. *)
  let net = shared_link () in
  let mk_cfg _ =
    Softcache.Config.make ~tcache_bytes:4096
      ~chunking:Softcache.Config.Basic_block ~harts:2 ~sched_seed:5 ~net ()
  in
  let fl = Fleet.create ~clients:2 ~net mk_cfg [| Lazy.force compress_img |] in
  Fleet.run ~fuel:400_000 fl;
  let field k = List.assoc k (Fleet.summary_fields fl) in
  Alcotest.(check string) "coalesced joins" "9209" (field "coalesced");
  Alcotest.(check string) "frames" "21117" (field "frames");
  match Check.Audit.fleet fl with
  | [] -> ()
  | v :: _ ->
    Alcotest.failf "multi-hart horizon audit: %a" Check.Audit.pp_violation v

(* ------------------------------------------------------------------ *)
(* superblock working-set-knee regression: at 16 KB mpeg2enc sits at
   the knee (profiled dynamic text ~0.8x the tcache; rewritten, it
   marginally overflows). Unguarded promotion churned the resident
   working set and pushed traps 66% past plain chaining; the
   profile-driven guard must hold chain+superblock at or below the
   chain-only trap count. *)

let test_superblock_knee_regression () =
  let img = (Option.get (Workloads.Registry.find "mpeg2enc")).build () in
  let prof, _ = Profiler.profile img in
  let oracle =
    Softcache.Cc_chain.oracle_of_profile ~image:img
      ~chunking:Softcache.Config.Basic_block
      ~edges_from:(Profiler.edges_from prof)
      ~samples_at:(fun a -> Profiler.samples_in prof ~lo:a ~hi:(a + 4))
  in
  let run ~superblock_threshold =
    let cfg =
      Softcache.Config.make ~tcache_bytes:16384
        ~chunking:Softcache.Config.Basic_block ~chain:true
        ~superblock_threshold ()
    in
    let ctrl = Softcache.Controller.create cfg img in
    ctrl.Softcache.Controller.chain_oracle <- Some oracle;
    ctrl.Softcache.Controller.dynamic_text_hint <-
      Some (Profiler.dynamic_text_bytes prof);
    (match Softcache.Controller.run ctrl with
    | Machine.Cpu.Halted -> ()
    | Machine.Cpu.Out_of_fuel -> Alcotest.fail "mpeg2enc ran out of fuel");
    ctrl.Softcache.Controller.stats
  in
  let chain = run ~superblock_threshold:0 in
  let sb = run ~superblock_threshold:32 in
  Alcotest.(check bool)
    (Printf.sprintf "chain+superblock traps (%d) <= chain traps (%d)"
       sb.Softcache.Stats.traps chain.Softcache.Stats.traps)
    true
    (sb.Softcache.Stats.traps <= chain.Softcache.Stats.traps);
  (* and the guard, not luck, is what held promotion back *)
  Alcotest.(check bool) "guard fired" true
    (sb.Softcache.Stats.superblock_guard_skips > 0)

let () =
  Alcotest.run "fleet"
    [
      ( "percentile",
        [
          Alcotest.test_case "nearest rank" `Quick test_percentile_nearest_rank;
          Alcotest.test_case "extremes" `Quick test_percentile_extremes;
          Alcotest.test_case "known distributions" `Quick
            test_percentile_known_distribution;
          Alcotest.test_case "invalid input" `Quick test_percentile_invalid;
        ] );
      ( "transport",
        [
          QCheck_alcotest.to_alcotest test_transfer_batch_single_equiv_q;
          Alcotest.test_case "piggyback marginal cost" `Quick
            test_piggyback_marginal_cost;
          Alcotest.test_case "piggyback deterministic" `Quick
            test_piggyback_deterministic;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "deterministic summary" `Quick
            test_fleet_deterministic;
          Alcotest.test_case "1-client lockstep identity" `Quick
            test_fleet_one_client_lockstep;
          Alcotest.test_case "dedup cuts wire bytes" `Quick
            test_fleet_dedup_cuts_wire;
          Alcotest.test_case "audit clean" `Quick test_fleet_audit_clean;
          Alcotest.test_case "auto-size admission" `Quick
            test_fleet_autosize_admission;
          Alcotest.test_case "heterogeneous workloads" `Quick
            test_fleet_heterogeneous_workloads;
          Alcotest.test_case "multi-hart sessions" `Quick
            test_fleet_multihart_sessions;
          Alcotest.test_case "multi-hart coalescing horizon" `Quick
            test_fleet_multihart_horizon;
        ] );
      ( "superblock-knee",
        [
          Alcotest.test_case "mpeg2enc@16KB regression" `Slow
            test_superblock_knee_regression;
        ] );
    ]
