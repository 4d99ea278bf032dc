(* Fault-injection tests: the CRC32 checksum, the deterministic fault
   schedule, and the headline robustness property — under ANY fault
   schedule the SoftCache either produces exactly the native output or
   stops cleanly with Chunk_unavailable, never silently corrupts. *)

open Fixtures

(* Recursive Fibonacci (deep stack, cross-chunk calls) — the program
   that exercises the most cache machinery per instruction. *)
(* ------------------------------------------------------------------ *)
(* CRC32 *)

let test_crc32_vector () =
  (* the IEEE 802.3 check value *)
  Alcotest.(check int)
    "crc32(\"123456789\")" 0xCBF43926
    (Softcache.Crc32.string "123456789");
  Alcotest.(check int) "crc32(\"\")" 0 (Softcache.Crc32.string "")

let test_crc32_bit_flip =
  QCheck.Test.make ~count:200 ~name:"crc32 detects any single bit flip"
    QCheck.(
      pair (string_of_size (QCheck.Gen.int_range 1 64)) (pair small_nat small_nat))
    (fun (s, (byte, bit)) ->
      let b = Bytes.of_string s in
      let i = byte mod Bytes.length b in
      let mask = 1 lsl (bit mod 8) in
      let orig = Softcache.Crc32.bytes b in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor mask));
      Softcache.Crc32.bytes b <> orig)

let test_crc32_range () =
  let b = Bytes.of_string "xx123456789yy" in
  Alcotest.(check int)
    "pos/len window" 0xCBF43926
    (Softcache.Crc32.bytes ~pos:2 ~len:9 b)

(* The textbook bytewise CRC-32, kept here as the reference the
   library's slice-by-4 loop must agree with. *)
let crc32_bytewise ~pos ~len b =
  let table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)
  in
  let crc = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    let byte = Char.code (Bytes.get b i) in
    crc := table.((!crc lxor byte) land 0xFF) lxor (!crc lsr 8)
  done;
  !crc lxor 0xFFFFFFFF

let test_crc32_slice_by_4 =
  QCheck.Test.make ~count:500 ~name:"slice-by-4 crc32 = bytewise crc32"
    QCheck.(
      triple (string_of_size (QCheck.Gen.int_range 0 200)) small_nat small_nat)
    (fun (s, a, b) ->
      let buf = Bytes.of_string s in
      let n = Bytes.length buf in
      let pos = if n = 0 then 0 else a mod (n + 1) in
      let len = if n - pos = 0 then 0 else b mod (n - pos + 1) in
      Softcache.Crc32.bytes ~pos ~len buf = crc32_bytewise ~pos ~len buf
      && Softcache.Crc32.bytes buf = crc32_bytewise ~pos:0 ~len:n buf)

(* ------------------------------------------------------------------ *)
(* Fault schedule determinism *)

let drain net n =
  let payload = Bytes.of_string "deterministic-payload!" in
  List.init n (fun _ ->
      match Netmodel.transfer_batch net ~payloads:[ payload ] with
      | Ok (cycles, bytes) ->
        (true, cycles, Bytes.to_string (Bytes.concat Bytes.empty bytes))
      | Error (`Dropped cycles) -> (false, cycles, ""))

let test_schedule_deterministic () =
  let faults =
    Netmodel.Faults.make ~seed:99 ~drop:0.2 ~corrupt:0.2 ~duplicate:0.2
      ~delay_spike:0.2 ()
  in
  let a = drain (Netmodel.local ~faults ()) 200 in
  let b = drain (Netmodel.local ~faults ()) 200 in
  Alcotest.(check bool) "same seed, same outcomes" true (a = b);
  let c = drain (Netmodel.local ~faults:(Netmodel.Faults.make ~seed:100
                                           ~drop:0.2 ~corrupt:0.2
                                           ~duplicate:0.2 ~delay_spike:0.2 ())
                   ()) 200 in
  Alcotest.(check bool) "different seed, different outcomes" false (a = c)

(* Regression: a dropped frame's spurious retransmission is lost with
   it. With drop=1 and duplicate=1 every frame rolls both faults, and
   only the drop may be counted — no duplicate counter bumps, no ghost
   wire traffic for the retransmission. *)
let test_drop_duplicate_combined () =
  let len = 24 in
  let payload = Bytes.create len in
  let n = 50 in
  let net =
    Netmodel.local
      ~faults:(Netmodel.Faults.make ~seed:7 ~drop:1.0 ~duplicate:1.0 ())
      ()
  in
  for _ = 1 to n do
    match Netmodel.transfer_batch net ~payloads:[ payload ] with
    | Ok _ -> Alcotest.fail "drop=1 delivered a frame"
    | Error (`Dropped _) -> ()
  done;
  Alcotest.(check int) "every frame dropped" n (Netmodel.drops net);
  Alcotest.(check int) "no duplicate survives a drop" 0
    (Netmodel.duplicates net);
  Alcotest.(check int) "one message per send" n (Netmodel.messages net);
  Alcotest.(check int) "no ghost payload" (n * len)
    (Netmodel.payload_bytes net);
  (* control: without drops the same duplicate schedule does count *)
  let net2 =
    Netmodel.local
      ~faults:(Netmodel.Faults.make ~seed:7 ~duplicate:1.0 ())
      ()
  in
  for _ = 1 to n do
    match Netmodel.transfer_batch net2 ~payloads:[ payload ] with
    | Ok _ -> ()
    | Error _ -> Alcotest.fail "duplicate-only schedule dropped a frame"
  done;
  Alcotest.(check int) "delivered duplicates counted" n
    (Netmodel.duplicates net2);
  Alcotest.(check int) "each duplicate is an extra message" (2 * n)
    (Netmodel.messages net2)

(* Regression: Rng.int must not carry the modulo bias of a plain
   [rem]. With bound = 3*2^60, the biased scheme maps 3/4 of the raw
   63-bit space onto the bottom two thirds of the range; rejection
   sampling puts exactly 2/3 there. *)
let test_rng_no_modulo_bias () =
  let bound = 3 * (1 lsl 60) in
  let cut = 2 * (1 lsl 60) in
  let rng = Netmodel.Rng.create 2026 in
  let n = 3000 in
  let below = ref 0 in
  for _ = 1 to n do
    let v = Netmodel.Rng.int rng bound in
    Alcotest.(check bool) "in range" true (v >= 0 && v < bound);
    if v < cut then incr below
  done;
  let frac = float_of_int !below /. float_of_int n in
  (* unbiased: 2/3 (sigma ~ 0.009); the old modulo scheme gives 3/4 *)
  Alcotest.(check bool)
    (Printf.sprintf "fraction below 2/3 cut = %.3f, want ~0.667" frac)
    true
    (frac > 0.63 && frac < 0.70)

(* qcheck: the whole fault schedule and every counter is a pure
   function of the seed *)
let test_schedule_deterministic_q =
  QCheck.Test.make ~count:50 ~name:"per-seed schedule + counters deterministic"
    QCheck.(pair (int_range 0 10_000) (int_bound 255))
    (fun (seed, knobs) ->
      let mk () =
        Netmodel.local
          ~faults:
            (Netmodel.Faults.make ~seed
               ~drop:(float_of_int (knobs land 3) /. 4.0)
               ~corrupt:(float_of_int ((knobs lsr 2) land 3) /. 4.0)
               ~duplicate:(float_of_int ((knobs lsr 4) land 3) /. 4.0)
               ~delay_spike:(float_of_int ((knobs lsr 6) land 3) /. 4.0)
               ())
          ()
      in
      let n1 = mk () and n2 = mk () in
      let a = drain n1 100 and b = drain n2 100 in
      a = b
      && Netmodel.messages n1 = Netmodel.messages n2
      && Netmodel.payload_bytes n1 = Netmodel.payload_bytes n2
      && Netmodel.drops n1 = Netmodel.drops n2
      && Netmodel.corruptions n1 = Netmodel.corruptions n2
      && Netmodel.duplicates n1 = Netmodel.duplicates n2
      && Netmodel.delay_spikes n1 = Netmodel.delay_spikes n2)

(* qcheck: message/payload/drop/duplicate counters stay conserved under
   any combined-fault schedule — duplicates only on delivered frames,
   exactly one payload accounted per message *)
let test_counter_conservation_q =
  QCheck.Test.make ~count:50
    ~name:"counter conservation under combined faults"
    QCheck.(pair (int_range 0 10_000) (int_bound 255))
    (fun (seed, knobs) ->
      let len = 16 in
      let payload = Bytes.create len in
      let net =
        Netmodel.local
          ~faults:
            (Netmodel.Faults.make ~seed
               ~drop:(float_of_int (knobs land 3) /. 4.0)
               ~corrupt:(float_of_int ((knobs lsr 2) land 3) /. 4.0)
               ~duplicate:(float_of_int ((knobs lsr 4) land 3) /. 4.0)
               ~delay_spike:(float_of_int ((knobs lsr 6) land 3) /. 4.0)
               ())
          ()
      in
      let n = 200 in
      let delivered = ref 0 in
      for _ = 1 to n do
        match Netmodel.transfer_batch net ~payloads:[ payload ] with
        | Ok _ -> incr delivered
        | Error (`Dropped _) -> ()
      done;
      Netmodel.drops net + !delivered = n
      && Netmodel.messages net = n + Netmodel.duplicates net
      && Netmodel.payload_bytes net = len * Netmodel.messages net
      && Netmodel.duplicates net <= !delivered
      && Netmodel.corruptions net <= !delivered)

let test_fault_free_transfer_matches_request () =
  (* without faults, a one-segment [transfer_batch] must charge
     exactly what [request] does and account messages identically *)
  let n1 = Netmodel.ethernet_10mbps () in
  let n2 = Netmodel.ethernet_10mbps () in
  let payload = Bytes.create 120 in
  let c1 = Netmodel.request n1 ~payload_bytes:120 in
  match Netmodel.transfer_batch n2 ~payloads:[ payload ] with
  | Ok (c2, bytes) ->
    Alcotest.(check int) "cost" c1 c2;
    Alcotest.(check (list bytes)) "payload intact" [ payload ] bytes;
    Alcotest.(check int) "messages" (Netmodel.messages n1)
      (Netmodel.messages n2);
    Alcotest.(check int) "payload bytes" (Netmodel.payload_bytes n1)
      (Netmodel.payload_bytes n2)
  | Error _ -> Alcotest.fail "fault-free transfer dropped"

(* ------------------------------------------------------------------ *)
(* End-to-end recovery *)

let run_faulted ~seed ~drop ~corrupt ~duplicate ~delay_spike ~tcache_bytes
    ~chunking ~eviction img =
  let faults =
    Netmodel.Faults.make ~seed ~drop ~corrupt ~duplicate ~delay_spike ()
  in
  let cfg =
    Softcache.Config.make ~tcache_bytes ~chunking ~eviction
      ~net:(Netmodel.local ~faults ()) ()
  in
  Softcache.Runner.cached_robust cfg img

(* The robustness property: any fault schedule, any chunking, any
   eviction policy, any (viable) tcache size — the run either matches
   native behaviour exactly or stops cleanly, and the retry ceiling is
   respected. *)
let test_random_fault_robustness =
  let print (seed, sz, knobs, (ch, ev)) =
    Printf.sprintf "seed=%d size=%d faults=%d chunking=%d eviction=%d" seed
      sz knobs ch ev
  in
  QCheck.Test.make ~count:60
    ~name:"faulted runs: native-equivalent or cleanly unavailable"
    QCheck.(
      make ~print
        Gen.(
          quad (int_range 1 10_000) (int_range 700 4096) (int_bound 80)
            (pair (int_bound 1) (int_bound 1))))
    (fun (seed, size, knobs, (ch, ev)) ->
      let img = prog_fib 11 in
      let native = Softcache.Runner.native img in
      (* derive three fault probabilities from one small int so the
         generator shrinks nicely *)
      let drop = float_of_int (knobs mod 5) /. 20.0 in
      let corrupt = float_of_int (knobs / 5 mod 4) /. 20.0 in
      let duplicate = float_of_int (knobs / 20 mod 4) /. 20.0 in
      let chunking =
        if ch = 0 then Softcache.Config.Basic_block
        else Softcache.Config.Procedure
      in
      let eviction =
        if ev = 0 then Softcache.Config.Fifo else Softcache.Config.Flush_all
      in
      let cached, ctrl =
        run_faulted ~seed ~drop ~corrupt ~duplicate ~delay_spike:0.1
          ~tcache_bytes:size ~chunking ~eviction img
      in
      match cached.status with
      | Softcache.Runner.Chunk_too_large _ -> QCheck.assume_fail ()
      | _ when ctrl.stats.max_chunk_retries > Softcache.Config.max_retries ->
        false
      | Softcache.Runner.Finished Machine.Cpu.Halted ->
        cached.outputs = native.outputs
      | Softcache.Runner.Finished Machine.Cpu.Out_of_fuel
      | Softcache.Runner.Tcache_too_small ->
        false
      | Softcache.Runner.Unavailable { attempts; _ } ->
        attempts = Softcache.Config.max_retries + 1)

let test_hopeless_link_unavailable () =
  (* a link that drops everything must give up after exactly
     max_retries re-requests, with the backoff charged *)
  let img = prog_fib 8 in
  let cached, ctrl =
    run_faulted ~seed:5 ~drop:1.0 ~corrupt:0.0 ~duplicate:0.0
      ~delay_spike:0.0 ~tcache_bytes:4096
      ~chunking:Softcache.Config.Basic_block ~eviction:Softcache.Config.Fifo
      img
  in
  (match cached.status with
  | Softcache.Runner.Unavailable { attempts; _ } ->
    Alcotest.(check int) "attempts" (Softcache.Config.max_retries + 1)
      attempts
  | _ -> Alcotest.fail "expected Unavailable");
  Alcotest.(check int) "timeouts counted" (Softcache.Config.max_retries + 1)
    ctrl.stats.net_timeouts;
  let backoff =
    (* sum of retry_backoff_cycles * 2^(n-1) for n = 1..max_retries *)
    Softcache.Config.retry_backoff_cycles
    * ((1 lsl Softcache.Config.max_retries) - 1)
  in
  let floor =
    backoff
    + ((Softcache.Config.max_retries + 1) * Softcache.Config.timeout_cycles)
  in
  Alcotest.(check bool)
    (Printf.sprintf "charged at least %d backoff+timeout cycles" floor)
    true (cached.cycles >= floor);
  Alcotest.(check int) "no translation completed" 0 ctrl.stats.translations

let test_corrupt_link_crc_rejects () =
  (* every frame corrupted: CRC must reject each one, never letting a
     bad chunk into the tcache *)
  let img = prog_fib 8 in
  let cached, ctrl =
    run_faulted ~seed:5 ~drop:0.0 ~corrupt:1.0 ~duplicate:0.0
      ~delay_spike:0.0 ~tcache_bytes:4096
      ~chunking:Softcache.Config.Basic_block ~eviction:Softcache.Config.Fifo
      img
  in
  (match cached.status with
  | Softcache.Runner.Unavailable _ -> ()
  | _ -> Alcotest.fail "expected Unavailable");
  Alcotest.(check int) "every attempt CRC-rejected"
    (Softcache.Config.max_retries + 1) ctrl.stats.crc_failures;
  Alcotest.(check int) "nothing recovered" 0 ctrl.stats.recoveries;
  Alcotest.(check int) "no translation completed" 0 ctrl.stats.translations

let test_recovery_accounting () =
  (* a moderately lossy link: the run completes, outputs match, and
     every recovery is accounted *)
  let img = prog_fib 12 in
  let native = Softcache.Runner.native img in
  let cached, ctrl =
    run_faulted ~seed:11 ~drop:0.25 ~corrupt:0.15 ~duplicate:0.1
      ~delay_spike:0.1 ~tcache_bytes:1024
      ~chunking:Softcache.Config.Basic_block ~eviction:Softcache.Config.Fifo
      img
  in
  (match cached.status with
  | Softcache.Runner.Finished Machine.Cpu.Halted -> ()
  | s ->
    Alcotest.failf "expected clean finish, got %a" Softcache.Runner.pp_status
      s);
  Alcotest.(check (list int)) "outputs" native.outputs cached.outputs;
  Alcotest.(check bool) "faults actually fired" true
    (ctrl.stats.net_retries > 0);
  Alcotest.(check bool) "recoveries <= retries" true
    (ctrl.stats.recoveries <= ctrl.stats.net_retries);
  Alcotest.(check bool) "every drop timed out" true
    (Netmodel.drops ctrl.cfg.net = ctrl.stats.net_timeouts);
  Alcotest.(check int) "nothing permanently lost" 0
    ctrl.stats.chunk_failures

let () =
  Alcotest.run "faults"
    [
      ( "crc32",
        [
          Alcotest.test_case "known vector" `Quick test_crc32_vector;
          Alcotest.test_case "window" `Quick test_crc32_range;
          QCheck_alcotest.to_alcotest test_crc32_bit_flip;
          QCheck_alcotest.to_alcotest test_crc32_slice_by_4;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "deterministic in seed" `Quick
            test_schedule_deterministic;
          Alcotest.test_case "fault-free transfer = request" `Quick
            test_fault_free_transfer_matches_request;
          Alcotest.test_case "dropped frame swallows its duplicate" `Quick
            test_drop_duplicate_combined;
          Alcotest.test_case "Rng.int is bias-free" `Quick
            test_rng_no_modulo_bias;
          QCheck_alcotest.to_alcotest test_schedule_deterministic_q;
          QCheck_alcotest.to_alcotest test_counter_conservation_q;
        ] );
      ( "recovery",
        [
          QCheck_alcotest.to_alcotest test_random_fault_robustness;
          Alcotest.test_case "hopeless link gives up cleanly" `Quick
            test_hopeless_link_unavailable;
          Alcotest.test_case "corrupt link CRC-rejected" `Quick
            test_corrupt_link_crc_rejects;
          Alcotest.test_case "recovery accounting" `Quick
            test_recovery_accounting;
        ] );
    ]
