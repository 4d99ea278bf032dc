(* Tests of the lib/check subsystem itself: the invariant auditor must
   pass on healthy runs, FAIL when a real bookkeeping bug is seeded
   (proving the invariants are not vacuous), and the lockstep
   differential runner must track native execution access-for-access —
   including across mid-run invalidations and flushes. *)

open Fixtures

let small_cfg ?(tcache_bytes = 1024) ?(eviction = Softcache.Config.Fifo) ()
    =
  Softcache.Config.make ~tcache_bytes
    ~chunking:Softcache.Config.Basic_block ~eviction ()

(* ------------------------------------------------------------------ *)
(* Auditor on healthy runs *)

let test_audit_clean_thrashing () =
  (* a real workload in a 2 KB cache: evictions, scrubbing, persistent
     stubs — the auditor must stay silent through all of it *)
  let img = (Option.get (Workloads.Registry.find "cjpeg")).build () in
  List.iter
    (fun (pname, eviction) ->
      let ctrl =
        Softcache.Controller.create
          (small_cfg ~tcache_bytes:2048 ~eviction ())
          img
      in
      let audits = Check.Audit.install ctrl in
      let outcome = Softcache.Controller.run ~fuel:3_000_000 ctrl in
      Alcotest.(check bool) (pname ^ " halts") true
        (outcome = Machine.Cpu.Halted);
      Alcotest.(check bool) (pname ^ " auditor exercised") true
        (!audits > 100);
      Alcotest.(check bool) (pname ^ " cache actually thrashed") true
        (ctrl.stats.evicted_blocks > 0))
    Softcache.Config.eviction_table

let test_audit_counts_events () =
  let ctrl = Softcache.Controller.create (small_cfg ()) (prog_sum 50) in
  let audits = Check.Audit.install ctrl in
  ignore (Softcache.Controller.run ctrl);
  (* at minimum one Translated event per translation *)
  Alcotest.(check bool) "audits >= translations" true
    (!audits >= ctrl.stats.translations)

(* ------------------------------------------------------------------ *)
(* Mutation test: seed a real bookkeeping bug, the auditor must object *)

(* Run fib under a small cache (translate-time binding records
   block-to-block incoming pointers), check the state is clean, then
   forget one of those records: a patched branch the unlinker no
   longer knows about — exactly the bug class the eviction protocol
   cannot tolerate. *)
let ctrl_with_dropped_incoming () =
  let ctrl = Softcache.Controller.create (small_cfg ()) (prog_fib 12) in
  ignore (Softcache.Controller.run ctrl);
  Alcotest.(check int) "clean before the mutation" 0
    (List.length (Check.Audit.run ctrl));
  let victim =
    List.find
      (fun (b : Softcache.Tcache.block) ->
        List.exists
          (fun (i : Softcache.Tcache.incoming) -> i.from_block >= 0)
          b.incoming)
      (List.sort
         (fun (a : Softcache.Tcache.block) b -> compare a.id b.id)
         (Softcache.Tcache.blocks ctrl.tc))
  in
  let rec drop_first = function
    | (i : Softcache.Tcache.incoming) :: rest when i.from_block >= 0 -> rest
    | i :: rest -> i :: drop_first rest
    | [] -> []
  in
  victim.incoming <- drop_first victim.incoming;
  ctrl

let test_audit_catches_dropped_incoming () =
  (* the completeness scan must flag the unrecorded patched branch *)
  let vs = Check.Audit.run (ctrl_with_dropped_incoming ()) in
  Alcotest.(check bool) "names the incoming invariant" true
    (List.exists
       (fun (v : Check.Audit.violation) -> v.invariant = "incoming")
       vs)

let test_audit_run_reports_without_raising () =
  (* Audit.run returns violations as data; only check_exn throws *)
  let ctrl = ctrl_with_dropped_incoming () in
  Alcotest.(check bool) "violations returned" true (Check.Audit.run ctrl <> []);
  match Check.Audit.check_exn ctrl with
  | () -> Alcotest.fail "check_exn accepted a broken state"
  | exception Check.Audit.Audit_failure (_ :: _) -> ()

(* A branch aimed below address 0 (a [Br] near the tcache base with a
   large negative offset) is still a branch to a non-block: the reverse
   scan's "no static target" sentinel is not a negative number. *)
let test_audit_catches_negative_target () =
  let ctrl = Softcache.Controller.create (small_cfg ()) (prog_sum 50) in
  ignore (Softcache.Controller.run ctrl);
  Alcotest.(check int) "clean before the mutation" 0
    (List.length (Check.Audit.run ctrl));
  let b = List.hd (Softcache.Tcache.blocks ctrl.tc) in
  let site = b.paddr in
  Alcotest.(check bool) "target below 0" true (site - 0x20000 < 0);
  Machine.Memory.write32 ctrl.cpu.mem site
    (Isa.Encode.encode
       (Isa.Instr.Br (Eq, Isa.Reg.zero, Isa.Reg.zero, -32768)));
  Alcotest.(check bool) "names the wild invariant" true
    (List.exists
       (fun (v : Check.Audit.violation) -> v.invariant = "wild")
       (Check.Audit.run ctrl))

(* ------------------------------------------------------------------ *)
(* Mutation tests for slot words. A branch island, a return stub and a
   PLT slot obey one rule: the word traps to its own stub, or it is a
   [Jmp] to its target's resident block, recorded on that block. Each
   mutation below is one [Memory.write32] over a slot whose target is
   resident, undone before the next:
   a) a trap to another stub, b) a jump beside the target's block,
   c) a jump to the target's block that no incoming record names (only
   over a trapping slot: a specialised one is already recorded), d) a
   call in place of the jump. a), b) and d) must be reported under the
   slot's section, c) as [incoming]. *)

let registry_img name = (Option.get (Workloads.Registry.find name)).build ()

let check_slot_mutations section (ctrl : Softcache.Controller.t) ~slot ~k
    ~target =
  let mem = ctrl.cpu.mem in
  let enc = Isa.Encode.encode in
  let tb = Option.get (Softcache.Tcache.lookup ctrl.tc target) in
  let original = Machine.Memory.read32 mem slot in
  let trapping = original = enc (Isa.Instr.Trap k) in
  let clean what =
    Alcotest.(check (list string))
      (Printf.sprintf "%s 0x%x clean %s" section slot what)
      []
      (List.map
         (Format.asprintf "%a" Check.Audit.pp_violation)
         (Check.Audit.run ctrl))
  in
  let expect what word invariant =
    Machine.Memory.write32 mem slot word;
    let vs = Check.Audit.run ctrl in
    Machine.Memory.write32 mem slot original;
    if
      not
        (List.exists
           (fun (v : Check.Audit.violation) -> v.invariant = invariant)
           vs)
    then
      Alcotest.failf "%s 0x%x, %s: no [%s] among %d violation(s)" section slot
        what invariant (List.length vs)
  in
  clean "before";
  expect "a) trap to another stub" (enc (Isa.Instr.Trap (k + 1))) section;
  expect "b) jump beside the target" (enc (Isa.Instr.Jmp (tb.paddr + 4)))
    section;
  if trapping then
    expect "c) unrecorded jump" (enc (Isa.Instr.Jmp tb.paddr)) "incoming";
  expect "d) call in place of the jump" (enc (Isa.Instr.Jal tb.paddr)) section;
  clean "after";
  trapping

(* Mutate every slot of [table] whose target is resident; returns how
   many of them trapped and how many were specialised. *)
let check_slot_table section ctrl table =
  let slots =
    List.sort compare
      (Hashtbl.fold
         (fun v (slot, k) acc ->
           if Softcache.Controller.resident ctrl v then (v, slot, k) :: acc
           else acc)
         table [])
  in
  let trapping =
    List.length
      (List.filter
         (fun (target, slot, k) ->
           check_slot_mutations section ctrl ~slot ~k ~target)
         slots)
  in
  (trapping, List.length slots - trapping)

(* Stub accounting is stored once: the live entries are the [nstubs]
   not on the free list, and blocks and slots must own exactly those.
   A live stub pushed onto the free list, and a free entry dropped from
   it, must each give "accounting". *)
let test_audit_catches_stub_accounting () =
  let ctrl =
    Softcache.Controller.create (small_cfg ()) (registry_img "sensor_modes")
  in
  ignore (Softcache.Controller.run ctrl);
  let accounting () =
    List.exists
      (fun (v : Check.Audit.violation) -> v.invariant = "accounting")
      (Check.Audit.run ctrl)
  in
  let clean label =
    Alcotest.(check int) label 0 (List.length (Check.Audit.run ctrl))
  in
  clean "clean before the edits";
  let free = ctrl.free_stubs in
  Alcotest.(check bool) "evictions freed stubs" true (free <> []);
  let live =
    List.find_map
      (fun (b : Softcache.Tcache.block) -> List.nth_opt b.stubs 0)
      (Softcache.Tcache.blocks ctrl.tc)
    |> Option.get
  in
  ctrl.free_stubs <- live :: free;
  Alcotest.(check bool) "live stub on the free list" true (accounting ());
  ctrl.free_stubs <- free;
  clean "clean once restored";
  ctrl.free_stubs <- List.tl free;
  Alcotest.(check bool) "free entry dropped" true (accounting ());
  ctrl.free_stubs <- free;
  clean "clean after the edits"

let test_audit_catches_bad_return_stubs () =
  (* compress95 thrashing a 2 KB cache under flush leaves 300 return
     stubs: some trap over a resident target, one is specialised *)
  let ctrl =
    Softcache.Controller.create
      (small_cfg ~tcache_bytes:2048 ~eviction:Softcache.Config.Flush_all ())
      (registry_img "compress95")
  in
  ignore (Softcache.Controller.run ctrl);
  let trapping, specialised = check_slot_table "ret-stub" ctrl ctrl.ret_stubs in
  Alcotest.(check bool) "a trapping return stub" true (trapping > 0);
  Alcotest.(check bool) "a specialised return stub" true (specialised > 0)

let test_audit_catches_bad_plt_slots () =
  let cfg tcache_bytes =
    Softcache.Config.make ~tcache_bytes ~granularity:Softcache.Config.Function
      ()
  in
  let img = registry_img "sensor_modes" in
  (* a finished run has specialised every slot whose callee is resident *)
  let ctrl = Softcache.Controller.create (cfg 2048) img in
  ignore (Softcache.Controller.run ctrl);
  let _, specialised = check_slot_table "plt" ctrl ctrl.plt in
  Alcotest.(check bool) "a specialised PLT slot" true (specialised > 0);
  (* a callee resident before its caller is translated gets a slot that
     traps over a resident target, as a function first reached through
     a pointer does *)
  let callees v =
    Softcache.Chunker.call_targets img (Softcache.Chunker.chunk_function img v)
  in
  let main = img.entry in
  let leaf =
    List.find (fun g -> g <> main && not (List.mem g (callees g))) (callees main)
  in
  let ctrl = Softcache.Controller.create (cfg 8192) img in
  ignore (Softcache.Controller.ensure_resident ctrl leaf);
  ignore (Softcache.Controller.ensure_resident ctrl main);
  let trapping, _ = check_slot_table "plt" ctrl ctrl.plt in
  Alcotest.(check bool) "a trapping PLT slot" true (trapping > 0)

let test_audit_catches_bad_branch_islands () =
  (* sensor_modes in a 2 KB cache leaves branch exits still in their
     miss state (the site holds its revert word, so the branch reaches
     the island) whose target is resident *)
  let ctrl =
    Softcache.Controller.create (small_cfg ~tcache_bytes:2048 ())
      (registry_img "sensor_modes")
  in
  ignore (Softcache.Controller.run ctrl);
  let islands =
    List.concat_map
      (fun (b : Softcache.Tcache.block) ->
        List.filter_map
          (fun k ->
            match ctrl.stubs.(k) with
            | Softcache.Stub.Exit
                { kind = Patch_br; site_paddr; revert_word; target; _ }
              when Softcache.Controller.resident ctrl target
                   && Machine.Memory.read32 ctrl.cpu.mem site_paddr
                      = revert_word -> (
              match Isa.Encode.decode revert_word with
              | Some (Isa.Instr.Br (_, _, _, d)) ->
                Some (target, site_paddr + (4 * d), k)
              | _ -> None)
            | _ -> None)
          b.stubs)
      (Softcache.Tcache.blocks ctrl.tc)
  in
  Alcotest.(check bool) "a branch island over a resident target" true
    (islands <> []);
  List.iter
    (fun (target, slot, k) ->
      ignore (check_slot_mutations "stub" ctrl ~slot ~k ~target))
    islands

(* A branch exit patched in reach leaves its island dormant: the island
   must still trap to the exit's own stub, since an unpatch restores
   only the site. Overwrite each dormant island with a trap to the next
   stub; the audit must report it under [stub]. *)
let test_audit_catches_bad_dormant_islands () =
  let ctrl =
    Softcache.Controller.create (small_cfg ~tcache_bytes:2048 ())
      (registry_img "sensor_modes")
  in
  ignore (Softcache.Controller.run ctrl);
  let mem = ctrl.cpu.mem in
  let dormant =
    List.concat_map
      (fun (b : Softcache.Tcache.block) ->
        List.filter_map
          (fun k ->
            match ctrl.stubs.(k) with
            | Softcache.Stub.Exit
                { kind = Patch_br; site_paddr; revert_word; _ }
              when Machine.Memory.read32 mem site_paddr <> revert_word ->
              Some (Isa.Encode.branch_target ~site:site_paddr revert_word, k)
            | _ -> None)
          b.stubs)
      (Softcache.Tcache.blocks ctrl.tc)
  in
  Alcotest.(check bool) "a branch exit patched in reach" true (dormant <> []);
  let clean what =
    Alcotest.(check (list string))
      ("dormant islands clean " ^ what)
      []
      (List.map
         (Format.asprintf "%a" Check.Audit.pp_violation)
         (Check.Audit.run ctrl))
  in
  clean "before";
  List.iter
    (fun (island, k) ->
      let original = Machine.Memory.read32 mem island in
      Alcotest.(check int)
        (Printf.sprintf "island 0x%x traps to stub %d" island k)
        (Isa.Encode.encode (Isa.Instr.Trap k))
        original;
      Machine.Memory.write32 mem island
        (Isa.Encode.encode (Isa.Instr.Trap (k + 1)));
      let vs = Check.Audit.run ctrl in
      Machine.Memory.write32 mem island original;
      if
        not
          (List.exists
             (fun (v : Check.Audit.violation) -> v.invariant = "stub")
             vs)
      then
        Alcotest.failf "island 0x%x of stub %d: no [stub] among %d violation(s)"
          island k (List.length vs))
    dormant;
  clean "after"

(* ------------------------------------------------------------------ *)
(* Lockstep differential runner *)

let check_equiv name verdict =
  match verdict with
  | Check.Lockstep.Equivalent { events } ->
    Alcotest.(check bool) (name ^ " compared something") true (events > 0)
  | v ->
    Alcotest.failf "%s: expected equivalence, got %a" name
      Check.Lockstep.pp_verdict v

let test_lockstep_equivalent () =
  check_equiv "sum"
    (Check.Lockstep.run (small_cfg ~tcache_bytes:768 ()) (prog_sum 200));
  check_equiv "fib/fifo"
    (Check.Lockstep.run ~audit:true (small_cfg ()) (prog_fib 12));
  check_equiv "fib/flush"
    (Check.Lockstep.run
       (small_cfg ~eviction:Softcache.Config.Flush_all ())
       (prog_fib 12))

let test_lockstep_midrun_invalidate () =
  (* invalidate the whole image range twice mid-run: execution must
     still track the native access stream exactly *)
  let img = prog_fib 13 in
  let hi = 0x1000 + Isa.Image.static_text_bytes img in
  let inv ctrl = Softcache.Controller.invalidate ctrl ~lo:0 ~hi in
  check_equiv "invalidate mid-run"
    (Check.Lockstep.run ~audit:true ~ops:[ inv; inv ] (small_cfg ()) img)

let test_lockstep_midrun_flush () =
  let img = prog_fib 13 in
  check_equiv "flush mid-run"
    (Check.Lockstep.run ~audit:true
       ~ops:[ Softcache.Controller.flush; Softcache.Controller.flush ]
       (small_cfg ()) img)

let test_lockstep_unavailable () =
  (* a dead link: the verdict must be Unavailable, not an exception *)
  let faults = Netmodel.Faults.make ~seed:1 ~drop:1.0 () in
  let cfg =
    Softcache.Config.make ~tcache_bytes:1024
      ~chunking:Softcache.Config.Basic_block
      ~net:(Netmodel.local ~faults ()) ()
  in
  match Check.Lockstep.run cfg (prog_sum 10) with
  | Check.Lockstep.Unavailable _ -> ()
  | v ->
    Alcotest.failf "expected Unavailable, got %a" Check.Lockstep.pp_verdict v

let test_lockstep_native_fuel () =
  match Check.Lockstep.run ~fuel:10 (small_cfg ()) (prog_sum 1000) with
  | Check.Lockstep.Native_out_of_fuel -> ()
  | v ->
    Alcotest.failf "expected Native_out_of_fuel, got %a"
      Check.Lockstep.pp_verdict v

let test_lockstep_policies () =
  (* the whole replacement-policy registry against native, with the
     auditor (including its policy-view section) on each cached side *)
  match
    Check.Lockstep.policies ~audit:true (fun () -> small_cfg ()) (prog_fib 12)
  with
  | Check.Lockstep.Modes_equivalent { modes = policies; events } ->
    Alcotest.(check (list string))
      "covers the registry"
      (List.map fst Softcache.Config.eviction_table)
      policies;
    Alcotest.(check bool) "compared something" true (events > 0)
  | v ->
    Alcotest.failf "expected policy equivalence, got %a"
      Check.Lockstep.pp_modes_verdict v

(* ------------------------------------------------------------------ *)
(* Decoded vs interpretive dispatch in lockstep *)

let check_engines_equiv name verdict =
  match verdict with
  | Check.Lockstep.Engines_equivalent { steps } ->
    Alcotest.(check bool) (name ^ " stepped something") true (steps > 0)
  | v ->
    Alcotest.failf "%s: expected engine equivalence, got %a" name
      Check.Lockstep.pp_engine_verdict v

let test_engines_equivalent () =
  check_engines_equiv "sum"
    (Check.Lockstep.engines
       (fun () -> small_cfg ~tcache_bytes:768 ())
       (prog_sum 200));
  check_engines_equiv "fib/fifo"
    (Check.Lockstep.engines ~audit:true (fun () -> small_cfg ()) (prog_fib 10));
  check_engines_equiv "fib/flush"
    (Check.Lockstep.engines
       (fun () -> small_cfg ~eviction:Softcache.Config.Flush_all ())
       (prog_fib 10))

let test_engines_midrun_ops () =
  (* tcache invalidation, a full flush and a decode-cache flush fired
     at identical instruction boundaries on both sides: the rewriting
     storm that follows must leave the engines in identical state at
     every subsequent step *)
  let img = prog_fib 12 in
  let native = Softcache.Runner.native img in
  let hi = 0x1000 + Isa.Image.static_text_bytes img in
  let inv c = Softcache.Controller.invalidate c ~lo:0 ~hi in
  let dflush (c : Softcache.Controller.t) =
    Machine.Memory.decode_flush c.cpu.mem
  in
  let fuel = native.retired in
  let slice = fuel / 4 in
  match
    Check.Lockstep.engines ~audit:true ~fuel
      ~ops:[ inv; Softcache.Controller.flush; dflush ]
      (fun () -> small_cfg ())
      img
  with
  | Check.Lockstep.Engines_equivalent { steps }
  | Check.Lockstep.Engines_out_of_fuel { steps } ->
    Alcotest.(check bool) "ops fired mid-run" true (steps >= slice)
  | v ->
    Alcotest.failf "mid-run ops: %a" Check.Lockstep.pp_engine_verdict v

let test_engines_registry () =
  (* every shipped workload, stepped under a thrashing 2 KB tcache;
     out-of-fuel counts as success — every compared step matched *)
  List.iter
    (fun (e : Workloads.Registry.entry) ->
      let img = e.build () in
      match
        Check.Lockstep.engines ~fuel:60_000
          (fun () -> small_cfg ~tcache_bytes:2048 ())
          img
      with
      | Check.Lockstep.Engines_equivalent { steps }
      | Check.Lockstep.Engines_out_of_fuel { steps } ->
        Alcotest.(check bool) (e.name ^ " stepped something") true (steps > 0)
      | v ->
        Alcotest.failf "%s: %a" e.name Check.Lockstep.pp_engine_verdict v)
    Workloads.Registry.all

let test_engines_detect_divergence () =
  (* mutation test: skew one register on the decoded side only; the
     very next comparison must object, proving the runner is not
     vacuously equivalent *)
  let skew (c : Softcache.Controller.t) =
    if c.cpu.engine = Machine.Cpu.Decoded then
      c.cpu.regs.(9) <- c.cpu.regs.(9) + 1
  in
  match
    Check.Lockstep.engines ~fuel:100 ~ops:[ skew ]
      (fun () -> small_cfg ())
      (prog_fib 12)
  with
  | Check.Lockstep.Engines_diverged _ -> ()
  | v ->
    Alcotest.failf "expected divergence, got %a"
      Check.Lockstep.pp_engine_verdict v

let test_engines_unavailable () =
  let mk () =
    let faults = Netmodel.Faults.make ~seed:1 ~drop:1.0 () in
    Softcache.Config.make ~tcache_bytes:1024
      ~chunking:Softcache.Config.Basic_block
      ~net:(Netmodel.local ~faults ()) ()
  in
  match Check.Lockstep.engines mk (prog_sum 10) with
  | Check.Lockstep.Engines_unavailable _ -> ()
  | v ->
    Alcotest.failf "expected Engines_unavailable, got %a"
      Check.Lockstep.pp_engine_verdict v

let () =
  Alcotest.run "check"
    [
      ( "audit",
        [
          Alcotest.test_case "clean under thrashing" `Quick
            test_audit_clean_thrashing;
          Alcotest.test_case "fires per event" `Quick test_audit_counts_events;
        ] );
      ( "mutation",
        [
          Alcotest.test_case "catches a dropped incoming record" `Quick
            test_audit_catches_dropped_incoming;
          Alcotest.test_case "catches a branch aimed below 0" `Quick
            test_audit_catches_negative_target;
          Alcotest.test_case "catches stub accounting edits" `Quick
            test_audit_catches_stub_accounting;
          Alcotest.test_case "run returns violations as data" `Quick
            test_audit_run_reports_without_raising;
          Alcotest.test_case "catches bad return-stub words" `Quick
            test_audit_catches_bad_return_stubs;
          Alcotest.test_case "catches bad PLT-slot words" `Quick
            test_audit_catches_bad_plt_slots;
          Alcotest.test_case "catches bad branch-island words" `Quick
            test_audit_catches_bad_branch_islands;
          Alcotest.test_case "catches bad dormant-island words" `Quick
            test_audit_catches_bad_dormant_islands;
        ] );
      ( "lockstep",
        [
          Alcotest.test_case "equivalent streams" `Quick
            test_lockstep_equivalent;
          Alcotest.test_case "invalidate mid-run" `Quick
            test_lockstep_midrun_invalidate;
          Alcotest.test_case "flush mid-run" `Quick test_lockstep_midrun_flush;
          Alcotest.test_case "unavailable surfaces cleanly" `Quick
            test_lockstep_unavailable;
          Alcotest.test_case "native fuel exhaustion" `Quick
            test_lockstep_native_fuel;
          Alcotest.test_case "policy registry equivalence" `Quick
            test_lockstep_policies;
        ] );
      ( "engines",
        [
          Alcotest.test_case "decoded = interpretive" `Quick
            test_engines_equivalent;
          Alcotest.test_case "mid-run invalidate/flush/decode-flush" `Quick
            test_engines_midrun_ops;
          Alcotest.test_case "every registry workload" `Quick
            test_engines_registry;
          Alcotest.test_case "detects seeded divergence" `Quick
            test_engines_detect_divergence;
          Alcotest.test_case "unavailable surfaces cleanly" `Quick
            test_engines_unavailable;
        ] );
    ]
