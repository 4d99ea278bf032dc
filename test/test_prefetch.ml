(* Prefetch/batching tests: transfer_batch framing and slicing, the CC
   staging buffer (bound, lazy install, install-time CRC, invalidation),
   the audit's staging invariants, and the prefetch-on/off lockstep. *)

open Fixtures

(* Recursive Fibonacci — deep stack, cross-chunk calls, enough distinct
   chunks for successors to predict. *)
let ethernet_cfg ?(tcache_bytes = 4096) ?(prefetch = 0) ?(staging = 8) () =
  Softcache.Config.make ~tcache_bytes
    ~net:(Netmodel.ethernet_10mbps ())
    ~prefetch_degree:prefetch ~staging_chunks:staging ()

(* the staging-buffer conservation law: everything issued was either
   installed, discarded, CRC-rejected, or is still parked *)
let check_conservation (ctrl : Softcache.Controller.t) =
  let s = ctrl.stats in
  Alcotest.(check int) "issued = installs + wasted + crc + staged"
    s.prefetch_issued
    (s.prefetch_installs + s.prefetch_wasted + s.prefetch_crc_failures
    + Hashtbl.length ctrl.staging)

(* ------------------------------------------------------------------ *)
(* transfer_batch framing *)

let test_batch_slicing () =
  let n1 = Netmodel.ethernet_10mbps () in
  let n2 = Netmodel.ethernet_10mbps () in
  let seg len fill = Bytes.make len fill in
  let payloads = [ seg 8 'a'; seg 12 'b'; seg 20 'c' ] in
  match Netmodel.transfer_batch n1 ~payloads with
  | Error _ -> Alcotest.fail "fault-free batch dropped"
  | Ok (cost, segments) ->
    Alcotest.(check (list bytes)) "segments intact" payloads segments;
    Alcotest.(check int) "one message for the whole frame" 1
      (Netmodel.messages n1);
    Alcotest.(check int) "payload accounted once" 40
      (Netmodel.payload_bytes n1);
    (* latency and per-message overhead are paid once, as if one 40-byte
       request had been made *)
    Alcotest.(check int) "cost = single 40-byte request"
      (Netmodel.request n2 ~payload_bytes:40)
      cost

let test_batch_single_equals_split () =
  (* a lone segment skips the frame concat and slice; it must be bit-
     and draw-identical to the same bytes sent as two segments, so
     degree-0 runs are unchanged by the batching layer *)
  let mk () =
    Netmodel.local
      ~faults:
        (Netmodel.Faults.make ~seed:13 ~drop:0.3 ~corrupt:0.3 ~duplicate:0.3
           ~delay_spike:0.3 ())
      ()
  in
  let n1 = mk () and n2 = mk () in
  let payload = Bytes.of_string "single-segment-frame" in
  let halves = [ Bytes.sub payload 0 7; Bytes.sub payload 7 13 ] in
  for i = 1 to 100 do
    let a = Netmodel.transfer_batch n1 ~payloads:[ payload ] in
    let b = Netmodel.transfer_batch n2 ~payloads:halves in
    match (a, b) with
    | Ok (ca, [ ba ]), Ok (cb, bs) ->
      Alcotest.(check int) (Printf.sprintf "cost %d" i) ca cb;
      Alcotest.(check bytes) (Printf.sprintf "bytes %d" i) ba
        (Bytes.concat Bytes.empty bs)
    | Error (`Dropped ca), Error (`Dropped cb) ->
      Alcotest.(check int) (Printf.sprintf "drop cost %d" i) ca cb
    | _ -> Alcotest.failf "outcome diverged at message %d" i
  done;
  Alcotest.(check int) "same messages" (Netmodel.messages n1)
    (Netmodel.messages n2);
  Alcotest.(check int) "same drops" (Netmodel.drops n1) (Netmodel.drops n2);
  Alcotest.(check int) "same corruptions" (Netmodel.corruptions n1)
    (Netmodel.corruptions n2)

let test_batch_fault_hits_whole_frame () =
  let net =
    Netmodel.local ~faults:(Netmodel.Faults.make ~seed:1 ~drop:1.0 ()) ()
  in
  (match
     Netmodel.transfer_batch net
       ~payloads:[ Bytes.create 8; Bytes.create 8; Bytes.create 8 ]
   with
  | Error (`Dropped _) -> ()
  | Ok _ -> Alcotest.fail "drop=1 delivered a batch");
  Alcotest.(check int) "one drop for the whole frame" 1 (Netmodel.drops net);
  Alcotest.(check int) "one message for the whole frame" 1
    (Netmodel.messages net)

(* ------------------------------------------------------------------ *)
(* End-to-end prefetching *)

let test_prefetch_reduces_messages () =
  let img = prog_fib 12 in
  let native = Softcache.Runner.native img in
  let run prefetch =
    let cfg = ethernet_cfg ~prefetch () in
    let cached, ctrl = Softcache.Runner.cached cfg img in
    Alcotest.(check (list int)) "outputs match native" native.outputs
      cached.outputs;
    (cached, ctrl)
  in
  let off, ctrl_off = run 0 in
  let on, ctrl_on = run 2 in
  Alcotest.(check int) "prefetch off issues nothing" 0
    ctrl_off.stats.prefetch_issued;
  Alcotest.(check bool) "staged chunks actually installed" true
    (ctrl_on.stats.prefetch_installs > 0);
  Alcotest.(check bool) "fewer MC<->CC messages" true
    (Netmodel.messages ctrl_on.cfg.net < Netmodel.messages ctrl_off.cfg.net);
  Alcotest.(check bool) "fewer total cycles" true (on.cycles < off.cycles);
  Alcotest.(check bool) "batched frames counted" true
    (ctrl_on.stats.batches > 0
    && ctrl_on.stats.max_batch_chunks >= 2
    && ctrl_on.stats.batch_chunks > ctrl_on.stats.batches);
  check_conservation ctrl_on

let test_staging_bound_and_audit () =
  (* a tiny staging buffer under a large degree: the bound holds after
     every controller operation (the installed auditor checks the
     staging section on each event) and discards are accounted *)
  let img = prog_fib 12 in
  let cfg = ethernet_cfg ~tcache_bytes:2048 ~prefetch:8 ~staging:1 () in
  let ctrl = Softcache.Controller.create cfg img in
  let audits = Check.Audit.install ctrl in
  let outcome = Softcache.Controller.run ctrl in
  Alcotest.(check bool) "halted" true (outcome = Machine.Cpu.Halted);
  Alcotest.(check bool) "auditor ran" true (!audits > 0);
  Alcotest.(check bool) "bound respected at end" true
    (Hashtbl.length ctrl.staging <= 1);
  Alcotest.(check bool) "FIFO discards happened" true
    (ctrl.stats.prefetch_wasted > 0);
  check_conservation ctrl

let test_staged_good_crc_installs_without_wire () =
  let img = prog_fib 10 in
  let cfg = ethernet_cfg () in
  let ctrl = Softcache.Controller.create cfg img in
  Softcache.Controller.start ctrl;
  let fib =
    (List.find (fun (s : Isa.Image.symbol) -> s.sym_name = "fib") img.symbols)
      .sym_addr
  in
  (* hand-stage the genuine chunk body, as the MC would ship it *)
  let c = Softcache.Chunker.chunk_at img cfg.chunking fib in
  let st_bytes = Softcache.Chunker.to_bytes c in
  Hashtbl.replace ctrl.staging fib
    { Softcache.Controller.st_bytes; st_crc = Softcache.Crc32.bytes st_bytes };
  Queue.add fib ctrl.staging_order;
  let msgs0 = Netmodel.messages cfg.net in
  ignore (Softcache.Controller.ensure_resident ctrl fib);
  Alcotest.(check int) "no wire traffic for a staged install" msgs0
    (Netmodel.messages cfg.net);
  Alcotest.(check int) "counted as install" 1 ctrl.stats.prefetch_installs;
  Alcotest.(check bool) "resident" true
    (Softcache.Controller.resident ctrl fib);
  Alcotest.(check bool) "consumed from staging" false
    (Hashtbl.mem ctrl.staging fib)

let test_staged_bad_crc_falls_back_to_wire () =
  let img = prog_fib 10 in
  let cfg = ethernet_cfg () in
  let ctrl = Softcache.Controller.create cfg img in
  Softcache.Controller.start ctrl;
  let fib =
    (List.find (fun (s : Isa.Image.symbol) -> s.sym_name = "fib") img.symbols)
      .sym_addr
  in
  let c = Softcache.Chunker.chunk_at img cfg.chunking fib in
  let st_bytes = Softcache.Chunker.to_bytes c in
  let st_crc = Softcache.Crc32.bytes st_bytes in
  (* corrupt one byte after the CRC was stamped *)
  Bytes.set st_bytes 2 (Char.chr (Char.code (Bytes.get st_bytes 2) lxor 0x40));
  Hashtbl.replace ctrl.staging fib { Softcache.Controller.st_bytes; st_crc };
  Queue.add fib ctrl.staging_order;
  let msgs0 = Netmodel.messages cfg.net in
  ignore (Softcache.Controller.ensure_resident ctrl fib);
  Alcotest.(check int) "CRC reject counted" 1
    ctrl.stats.prefetch_crc_failures;
  Alcotest.(check int) "not counted as install" 0
    ctrl.stats.prefetch_installs;
  Alcotest.(check bool) "fell back to the wire" true
    (Netmodel.messages cfg.net > msgs0);
  Alcotest.(check bool) "still becomes resident" true
    (Softcache.Controller.resident ctrl fib)

let test_invalidate_drops_staged () =
  let img = prog_fib 10 in
  let cfg = ethernet_cfg () in
  let ctrl = Softcache.Controller.create cfg img in
  Softcache.Controller.start ctrl;
  let fib =
    (List.find (fun (s : Isa.Image.symbol) -> s.sym_name = "fib") img.symbols)
      .sym_addr
  in
  let c = Softcache.Chunker.chunk_at img cfg.chunking fib in
  let st_bytes = Softcache.Chunker.to_bytes c in
  Hashtbl.replace ctrl.staging fib
    { Softcache.Controller.st_bytes; st_crc = Softcache.Crc32.bytes st_bytes };
  Queue.add fib ctrl.staging_order;
  let wasted0 = ctrl.stats.prefetch_wasted in
  (* invalidation over the chunk's source range must also drop the
     staged copy — it is about to go stale *)
  Softcache.Controller.invalidate ctrl ~lo:fib ~hi:(fib + 4);
  Alcotest.(check bool) "staged copy dropped" false
    (Hashtbl.mem ctrl.staging fib);
  Alcotest.(check int) "accounted as wasted" (wasted0 + 1)
    ctrl.stats.prefetch_wasted

let test_audit_staging_violations () =
  let img = prog_fib 10 in
  let cfg = ethernet_cfg ~staging:1 () in
  let ctrl = Softcache.Controller.create cfg img in
  Softcache.Controller.start ctrl;
  let staged_of v =
    let c = Softcache.Chunker.chunk_at img cfg.chunking v in
    let st_bytes = Softcache.Chunker.to_bytes c in
    { Softcache.Controller.st_bytes;
      st_crc = Softcache.Crc32.bytes st_bytes }
  in
  let fib =
    (List.find (fun (s : Isa.Image.symbol) -> s.sym_name = "fib") img.symbols)
      .sym_addr
  in
  Alcotest.(check (list string)) "clean to start" []
    (List.map
       (fun (v : Check.Audit.violation) -> v.invariant)
       (Check.Audit.run ctrl));
  (* overfill past the configured bound, behind the controller's back *)
  Hashtbl.replace ctrl.staging fib (staged_of fib);
  Hashtbl.replace ctrl.staging (fib + 4) (staged_of (fib + 4));
  let vs = Check.Audit.run ctrl in
  Alcotest.(check bool) "overflow flagged" true
    (List.exists
       (fun (v : Check.Audit.violation) -> v.invariant = "staging")
       vs);
  Hashtbl.remove ctrl.staging (fib + 4);
  Hashtbl.remove ctrl.staging fib;
  (* a staged vaddr aliasing a resident block is also a violation *)
  ignore (Softcache.Controller.ensure_resident ctrl fib);
  Hashtbl.replace ctrl.staging fib (staged_of fib);
  let vs = Check.Audit.run ctrl in
  Alcotest.(check bool) "resident alias flagged" true
    (List.exists
       (fun (v : Check.Audit.violation) -> v.invariant = "staging")
       vs)

(* ------------------------------------------------------------------ *)
(* Architectural invisibility *)

let test_lockstep_prefetch_equivalent () =
  let img = prog_fib 11 in
  let mk_cfg () = ethernet_cfg ~prefetch:3 () in
  match Check.Lockstep.prefetch ~audit:true mk_cfg img with
  | Check.Lockstep.Engines_equivalent { steps } ->
    Alcotest.(check bool) "stepped" true (steps > 0)
  | v ->
    Alcotest.failf "prefetch lockstep: %a" Check.Lockstep.pp_engine_verdict v

(* the robustness property survives prefetching: any fault schedule,
   any degree, any staging bound — native-equivalent or cleanly
   unavailable, with the staging conservation law intact *)
let test_prefetch_fault_robustness =
  let print (seed, knobs, degree, staging) =
    Printf.sprintf "seed=%d faults=%d degree=%d staging=%d" seed knobs degree
      staging
  in
  QCheck.Test.make ~count:40
    ~name:"faulted prefetch runs: native-equivalent or cleanly unavailable"
    QCheck.(
      make ~print
        Gen.(
          quad (int_range 1 10_000) (int_bound 80) (int_range 1 4)
            (int_range 1 8)))
    (fun (seed, knobs, degree, staging) ->
      let img = prog_fib 11 in
      let native = Softcache.Runner.native img in
      let drop = float_of_int (knobs mod 5) /. 20.0 in
      let corrupt = float_of_int (knobs / 5 mod 4) /. 20.0 in
      let duplicate = float_of_int (knobs / 20 mod 4) /. 20.0 in
      let faults =
        Netmodel.Faults.make ~seed ~drop ~corrupt ~duplicate
          ~delay_spike:0.05 ()
      in
      let cfg =
        Softcache.Config.make ~tcache_bytes:2048
          ~net:(Netmodel.local ~faults ())
          ~prefetch_degree:degree ~staging_chunks:staging ()
      in
      let cached, ctrl = Softcache.Runner.cached_robust cfg img in
      let s = ctrl.stats in
      let conserved =
        s.prefetch_issued
        = s.prefetch_installs + s.prefetch_wasted + s.prefetch_crc_failures
          + Hashtbl.length ctrl.staging
      in
      conserved
      &&
      match cached.status with
      | Softcache.Runner.Finished Machine.Cpu.Halted ->
        cached.outputs = native.outputs
      | Softcache.Runner.Finished Machine.Cpu.Out_of_fuel -> false
      | Softcache.Runner.Unavailable _ -> true
      | Softcache.Runner.Tcache_too_small | Softcache.Runner.Chunk_too_large _
        ->
        false)

let () =
  Alcotest.run "prefetch"
    [
      ( "batch",
        [
          Alcotest.test_case "frame slicing + single accounting" `Quick
            test_batch_slicing;
          Alcotest.test_case "single-segment batch = split batch" `Quick
            test_batch_single_equals_split;
          Alcotest.test_case "fault hits the whole frame" `Quick
            test_batch_fault_hits_whole_frame;
        ] );
      ( "staging",
        [
          Alcotest.test_case "prefetch reduces messages and cycles" `Quick
            test_prefetch_reduces_messages;
          Alcotest.test_case "staging bound + audit" `Quick
            test_staging_bound_and_audit;
          Alcotest.test_case "good CRC installs without wire" `Quick
            test_staged_good_crc_installs_without_wire;
          Alcotest.test_case "bad CRC falls back to wire" `Quick
            test_staged_bad_crc_falls_back_to_wire;
          Alcotest.test_case "invalidate drops staged copies" `Quick
            test_invalidate_drops_staged;
          Alcotest.test_case "audit flags staging violations" `Quick
            test_audit_staging_violations;
        ] );
      ( "lockstep",
        [
          Alcotest.test_case "prefetch is architecturally invisible" `Quick
            test_lockstep_prefetch_equivalent;
          QCheck_alcotest.to_alcotest test_prefetch_fault_robustness;
        ] );
    ]
