(* Branch chaining and superblock formation: the rewrite rules must be
   byte-exact and reversible. Patch/unpatch round-trips restore the
   original stub words, eviction of either endpoint of a chained edge
   unlinks it before the victim is reclaimed, superblock promotion
   honours the temperature threshold exactly, and — the property the
   whole unlinking design hangs on — after every controller event every
   patched branch targets a live resident chunk and every evicted
   chunk has zero inbound patches, under randomised workload ×
   eviction × flush schedules. *)

open Fixtures

let chain_cfg ?(tcache_bytes = 4096) ?(eviction = Softcache.Config.Fifo)
    ?(chain = true) ?(superblock_threshold = 0) () =
  Softcache.Config.make ~tcache_bytes
    ~chunking:Softcache.Config.Basic_block ~eviction ~chain
    ~superblock_threshold ()

let read32 (ctrl : Softcache.Controller.t) a =
  Machine.Memory.read32 ctrl.cpu.mem a

(* Every live chained edge: a block-to-block incoming record on a
   resident target (carrying the site, the revert word the unpatch
   must restore and the exit stub it re-arms), with its source. *)
let live_links (ctrl : Softcache.Controller.t) =
  List.concat_map
    (fun (tb : Softcache.Tcache.block) ->
      List.filter_map
        (fun (i : Softcache.Tcache.incoming) ->
          if i.from_block < 0 then None
          else
            List.find_map
              (fun (b : Softcache.Tcache.block) ->
                if b.id = i.from_block then Some (b, tb, i) else None)
              (Softcache.Tcache.blocks ctrl.tc))
        tb.incoming)
    (Softcache.Tcache.blocks ctrl.tc)

let stub_target (ctrl : Softcache.Controller.t) k =
  match ctrl.stubs.(k) with
  | Softcache.Stub.Exit { target; _ } -> target
  | _ -> Alcotest.fail "link stub is not an exit stub"

(* ------------------------------------------------------------------ *)
(* Eager chaining: correct outputs, fewer traps *)

let test_chain_reduces_traps () =
  (* needs a thrashing cache: with everything resident, translate-time
     binding already resolves every exit and chaining has nothing to
     add. Under churn, re-armed stubs get eagerly re-patched at target
     re-install instead of trapping again. *)
  let img = (Option.get (Workloads.Registry.find "cjpeg")).build () in
  let native = Softcache.Runner.native ~fuel:3_000_000 img in
  let run chain =
    Softcache.Runner.cached_robust ~fuel:3_000_000
      ~prepare:(fun c -> ignore (Check.Audit.install c))
      (chain_cfg ~tcache_bytes:2048 ~chain ())
      img
  in
  let off, coff = run false in
  let on_, con = run true in
  Alcotest.(check (list int)) "off outputs" native.outputs off.outputs;
  Alcotest.(check (list int)) "chained outputs" native.outputs on_.outputs;
  Alcotest.(check bool) "eager patches happened" true (con.stats.chained > 0);
  Alcotest.(check bool) "chained is a subset of patches" true
    (con.stats.patches >= con.stats.chained);
  Alcotest.(check bool) "baseline never chains" true (coff.stats.chained = 0);
  Alcotest.(check bool)
    (Printf.sprintf "chaining cuts traps (%d -> %d)" coff.stats.traps
       con.stats.traps)
    true
    (con.stats.traps < coff.stats.traps)

(* ------------------------------------------------------------------ *)
(* Patch/unpatch round-trip: evict the target, byte-compare the site *)

let test_evict_target_unpatches_and_rechains () =
  let img = prog_fib 12 in
  let ctrl = Softcache.Controller.create (chain_cfg ()) img in
  let _ = Check.Audit.install ctrl in
  let outcome = Softcache.Controller.run ctrl in
  Alcotest.(check bool) "halts" true (outcome = Machine.Cpu.Halted);
  (* pick a chained edge whose source does not overlap the target's
     source range, so invalidating the target leaves the source alive *)
  let b, tb, inc =
    match
      List.find_opt
        (fun ((b : Softcache.Tcache.block), (tb : Softcache.Tcache.block), _) ->
          b.id <> tb.id
          && not
               (tb.vaddr >= b.vaddr && tb.vaddr < b.vaddr + (4 * b.orig_words)))
        (live_links ctrl)
    with
    | Some x -> x
    | None -> Alcotest.fail "no chained edge survived to halt"
  in
  let site = inc.site_paddr and revert = inc.revert_word and k = inc.stub in
  let target = stub_target ctrl k in
  (* the edge from [b] at [site] into the block now resident at [v] *)
  let edge_into v =
    List.exists
      (fun ((b' : Softcache.Tcache.block), (tb' : Softcache.Tcache.block),
            (i : Softcache.Tcache.incoming)) ->
        b'.id = b.id && tb'.vaddr = v && i.site_paddr = site)
      (live_links ctrl)
  in
  Alcotest.(check bool) "site is patched" true (read32 ctrl site <> revert);
  let reverts0 = ctrl.stats.reverts in
  Softcache.Controller.invalidate ctrl ~lo:tb.vaddr ~hi:(tb.vaddr + 4);
  Alcotest.(check bool) "source survived the invalidate" true
    (Softcache.Tcache.is_alive ctrl.tc b.id);
  Alcotest.(check int) "stub bytes restored" revert (read32 ctrl site);
  Alcotest.(check bool) "revert counted" true (ctrl.stats.reverts > reverts0);
  Alcotest.(check bool) "edge gone with its target" false (edge_into target);
  Alcotest.(check bool) "pending re-armed" true
    (Softcache.Cc_state.pending_mem ctrl ~target k);
  (* round-trip: re-installing the target must eagerly re-chain the
     re-armed stub *)
  let chained0 = ctrl.stats.chained in
  ignore (Softcache.Controller.ensure_resident ctrl target);
  Alcotest.(check bool) "re-chained eagerly" true
    (ctrl.stats.chained > chained0);
  Alcotest.(check bool) "site re-patched" true (read32 ctrl site <> revert);
  Alcotest.(check bool) "pending cleared again" true
    (not (Softcache.Cc_state.pending_mem ctrl ~target k));
  Alcotest.(check bool) "new edge recorded" true (edge_into target);
  Check.Audit.check_exn ctrl

(* ------------------------------------------------------------------ *)
(* The mirror image: evict the source of a chained edge whose target
   survives. The target must drop every record naming the dead source,
   found through the source's own exit stubs. *)

let test_evict_source_drops_its_records () =
  let img = prog_fib 12 in
  let ctrl = Softcache.Controller.create (chain_cfg ()) img in
  let _ = Check.Audit.install ctrl in
  let outcome = Softcache.Controller.run ctrl in
  Alcotest.(check bool) "halts" true (outcome = Machine.Cpu.Halted);
  (* a chained edge whose target does not overlap the source's source
     range, so invalidating the source leaves the target alive *)
  let b, tb, _ =
    match
      List.find_opt
        (fun ((b : Softcache.Tcache.block), (tb : Softcache.Tcache.block), _) ->
          b.id <> tb.id
          && not
               (b.vaddr >= tb.vaddr && b.vaddr < tb.vaddr + (4 * tb.orig_words)))
        (live_links ctrl)
    with
    | Some x -> x
    | None -> Alcotest.fail "no chained edge survived to halt"
  in
  let names_b (i : Softcache.Tcache.incoming) = i.from_block = b.id in
  let others = List.filter (fun i -> not (names_b i)) tb.incoming in
  Softcache.Controller.invalidate ctrl ~lo:b.vaddr ~hi:(b.vaddr + 4);
  Alcotest.(check bool) "source evicted" false
    (Softcache.Tcache.is_alive ctrl.tc b.id);
  Alcotest.(check bool) "target survived the invalidate" true
    (Softcache.Tcache.is_alive ctrl.tc tb.id);
  Alcotest.(check bool) "no record names the dead source" false
    (List.exists names_b tb.incoming);
  Alcotest.(check int) "other records kept" (List.length others)
    (List.length tb.incoming);
  Check.Audit.check_exn ctrl

(* ------------------------------------------------------------------ *)
(* Flush unpatches everything *)

let test_flush_unpatches_everything () =
  let img = prog_fib 12 in
  let ctrl = Softcache.Controller.create (chain_cfg ()) img in
  let _ = Check.Audit.install ctrl in
  (* pin the entry block so at least one patched source survives the
     flush; its sites must be byte-restored even though their targets
     die *)
  Softcache.Controller.pin ctrl img.Isa.Image.entry;
  let outcome = Softcache.Controller.run ctrl in
  Alcotest.(check bool) "halts" true (outcome = Machine.Cpu.Halted);
  let pinned =
    List.filter
      (fun ((b : Softcache.Tcache.block), _, _) ->
        Softcache.Tcache.is_pinned ctrl.tc b.id)
      (live_links ctrl)
  in
  Alcotest.(check bool) "pinned block has chained exits" true (pinned <> []);
  let expect =
    List.map
      (fun (_, _, (i : Softcache.Tcache.incoming)) ->
        (i.site_paddr, i.revert_word, i.stub, stub_target ctrl i.stub))
      pinned
  in
  Softcache.Controller.flush ctrl;
  List.iter
    (fun (site, revert, k, target) ->
      Alcotest.(check int)
        (Printf.sprintf "site 0x%x restored" site)
        revert (read32 ctrl site);
      Alcotest.(check bool)
        (Printf.sprintf "stub %d re-armed" k)
        true
        (Softcache.Cc_state.pending_mem ctrl ~target k))
    expect;
  Alcotest.(check int) "no chained edge survives" 0
    (List.length (live_links ctrl));
  Check.Audit.check_exn ctrl

(* ------------------------------------------------------------------ *)
(* Superblock threshold edges (synthetic oracle) *)

let sum_entry_edge img =
  (* the entry chunk's taken branch back to the loop head, as the one
     hot edge a synthetic oracle reports *)
  let entry = img.Isa.Image.entry in
  let c = Softcache.Chunker.chunk_at img Softcache.Config.Basic_block entry in
  let fall = c.Softcache.Chunker.vaddr
             + (4 * c.Softcache.Chunker.len) in
  let taken =
    List.find (fun v -> v <> fall) (Softcache.Chunker.successors img c)
  in
  (entry, taken)

let test_superblock_threshold_edges () =
  let img = prog_sum 50 in
  let entry, taken = sum_entry_edge img in
  let oracle v = if v = entry then Some (taken, 10) else None in
  let native = Softcache.Runner.native img in
  let mk threshold =
    let ctrl =
      Softcache.Controller.create
        (chain_cfg ~superblock_threshold:threshold ())
        img
    in
    ctrl.chain_oracle <- Some oracle;
    let _ = Check.Audit.install ctrl in
    Softcache.Controller.start ctrl;
    ctrl
  in
  (* heat 10 < threshold 11: no promotion *)
  let cold = mk 11 in
  Alcotest.(check int) "heat below threshold: no superblock" 0
    cold.stats.superblocks;
  Alcotest.(check bool) "successor not pulled in" false
    (Softcache.Controller.resident cold taken);
  (* heat 10 >= threshold 10: the chain is fused, laid out contiguously *)
  let hot = mk 10 in
  Alcotest.(check int) "heat at threshold: one superblock" 1
    hot.stats.superblocks;
  Alcotest.(check int) "two members" 2 hot.stats.superblock_blocks;
  Alcotest.(check bool) "successor resident at install" true
    (Softcache.Controller.resident hot taken);
  let b0 = Option.get (Softcache.Tcache.lookup hot.tc entry) in
  let b1 = Option.get (Softcache.Tcache.lookup hot.tc taken) in
  Alcotest.(check int) "members are contiguous"
    (b0.paddr + (4 * b0.words))
    b1.paddr;
  (* de-promotion: evicting any member dissolves the group *)
  Softcache.Controller.invalidate hot ~lo:taken ~hi:(taken + 4);
  Alcotest.(check int) "group dissolved" 1 hot.stats.depromotions;
  Alcotest.(check int) "no superblock survives" 0
    (Hashtbl.length hot.superblocks);
  Alcotest.(check int) "membership map cleared" 0
    (Hashtbl.length hot.sb_of_block);
  (* both controllers still compute the right answer *)
  List.iter
    (fun ctrl ->
      let outcome = Softcache.Controller.run ctrl in
      Alcotest.(check bool) "halts" true (outcome = Machine.Cpu.Halted);
      Alcotest.(check (list int))
        "outputs" native.outputs
        (Machine.Cpu.outputs ctrl.cpu))
    [ cold; hot ]

(* ------------------------------------------------------------------ *)
(* Profile-driven end to end: a real workload, real oracle *)

let test_superblock_profile_e2e () =
  let img = (Option.get (Workloads.Registry.find "compress95")).build () in
  let prof, _ = Profiler.profile img in
  let oracle =
    Softcache.Cc_chain.oracle_of_profile ~image:img
      ~chunking:Softcache.Config.Basic_block
      ~edges_from:(Profiler.edges_from prof)
      ~samples_at:(fun a -> Profiler.samples_in prof ~lo:a ~hi:(a + 4))
  in
  let native = Softcache.Runner.native ~fuel:12_000_000 img in
  let run chain threshold =
    Softcache.Runner.cached_robust ~fuel:12_000_000
      ~prepare:(fun c ->
        c.Softcache.Controller.chain_oracle <- Some oracle;
        ignore (Check.Audit.install c))
      (chain_cfg ~tcache_bytes:16384 ~chain ~superblock_threshold:threshold ())
      img
  in
  let off, coff = run false 0 in
  let chn, cchn = run true 0 in
  let sb, csb = run true 64 in
  List.iter
    (fun (name, (r : Softcache.Runner.robust)) ->
      Alcotest.(check (list int)) (name ^ " outputs") native.outputs r.outputs)
    [ ("off", off); ("chain", chn); ("superblock", sb) ];
  Alcotest.(check bool)
    (Printf.sprintf "chain cuts traps (%d -> %d)" coff.stats.traps
       cchn.stats.traps)
    true
    (cchn.stats.traps < coff.stats.traps);
  Alcotest.(check bool)
    (Printf.sprintf "superblocks cut further (%d -> %d)" cchn.stats.traps
       csb.stats.traps)
    true
    (csb.stats.traps <= cchn.stats.traps);
  Alcotest.(check bool) "superblocks formed" true (csb.stats.superblocks > 0)

(* ------------------------------------------------------------------ *)
(* Satellite regression: collateral evictions fire the event hook and
   unpatch their chained predecessors *)

let test_collateral_eviction_unpatches () =
  (* a thrashing chained run. Pre-fix, the implicit FIFO sweep labelled
     every casualty a policy victim, so [evicted_collateral] stayed 0
     under Fifo; post-fix the overlapped blocks are labelled and,
     because the auditor re-checks every patched edge after every event,
     every collateral eviction of a chained target is proven to have
     unpatched its predecessors before the event was emitted. *)
  let img = (Option.get (Workloads.Registry.find "cjpeg")).build () in
  let native = Softcache.Runner.native ~fuel:3_000_000 img in
  let evicted_via_hook = ref 0 in
  let ctrl =
    Softcache.Controller.create (chain_cfg ~tcache_bytes:2048 ()) img
  in
  ctrl.on_event <-
    Some
      (function
      | Softcache.Controller.Evicted n -> evicted_via_hook := !evicted_via_hook + n
      | _ -> ());
  let _ = Check.Audit.install ctrl in
  let outcome = Softcache.Controller.run ~fuel:3_000_000 ctrl in
  Alcotest.(check bool) "halts" true (outcome = Machine.Cpu.Halted);
  Alcotest.(check (list int)) "outputs" native.outputs
    (Machine.Cpu.outputs ctrl.cpu);
  Alcotest.(check bool) "collateral evictions happened" true
    (ctrl.stats.evicted_collateral > 0);
  Alcotest.(check bool) "victim evictions happened" true
    (ctrl.stats.evicted_victim > 0);
  Alcotest.(check bool) "chained edges were unpatched" true
    (ctrl.stats.reverts > 0);
  Alcotest.(check int) "every eviction reached the event hook"
    ctrl.stats.evicted_blocks !evicted_via_hook;
  Alcotest.(check int) "labels conserve"
    ctrl.stats.evicted_blocks
    (ctrl.stats.evicted_victim + ctrl.stats.evicted_collateral
   + ctrl.stats.evicted_stub_growth + ctrl.stats.evicted_invalidated
   + ctrl.stats.evicted_flushed)

(* ------------------------------------------------------------------ *)
(* Mutation: a record naming the wrong stub must trip the links
   invariant *)

let test_audit_catches_dropped_link () =
  (* chain a run, check it is clean, then point the lowest-id source's
     first record at a stub that is not one of that source's exits
     aimed at the record's block: unpatching would re-arm the wrong
     stub, and the source's stub walk would never find the record *)
  let ctrl = Softcache.Controller.create (chain_cfg ()) (prog_fib 12) in
  ignore (Softcache.Controller.run ctrl);
  Alcotest.(check int) "clean before the mutation" 0
    (List.length (Check.Audit.run ctrl));
  let tb, inc =
    match
      List.sort
        (fun ((a : Softcache.Tcache.block), _, _)
             ((b : Softcache.Tcache.block), _, _) -> compare a.id b.id)
        (live_links ctrl)
    with
    | (_, tb, inc) :: _ -> (tb, inc)
    | [] -> Alcotest.fail "no chained edge survived to halt"
  in
  let aimed k =
    match ctrl.stubs.(k) with
    | Softcache.Stub.Exit { block; target; _ } ->
      block = inc.from_block && target = tb.vaddr
    | _ -> false
  in
  let stray =
    match List.find_opt (fun k -> not (aimed k)) (List.init ctrl.nstubs Fun.id)
    with
    | Some k -> k
    | None -> Alcotest.fail "every stub is an exit of the source"
  in
  tb.incoming <-
    List.map
      (fun i -> if i == inc then { i with Softcache.Tcache.stub = stray } else i)
      tb.incoming;
  Alcotest.(check bool) "names the links invariant" true
    (List.exists
       (fun (v : Check.Audit.violation) -> v.invariant = "links")
       (Check.Audit.run ctrl))

(* ------------------------------------------------------------------ *)
(* The qcheck property: random workload x cache size x eviction policy
   x chaining mode x invalidate/flush schedule. After every controller
   event the auditor proves the unlinking invariants (every patched
   branch targets a live resident chunk; every evicted chunk has zero
   inbound patches; stub bytes restored on unpatch), and the run must
   stay access-for-access equivalent to native execution. *)

let qcheck_cases_executed = ref 0

let schedule_gen =
  QCheck.Gen.(
    pair
      (triple (int_range 0 1) (* program family *)
         (int_range 8 13) (* size parameter *)
         (oneofl [ 768; 1024; 2048; 4096 ]) (* tcache bytes *))
      (triple
         (int_range 0 (List.length Softcache.Config.eviction_table - 1))
         (int_range 0 2) (* 0 = off, 1 = chain, 2 = chain + superblocks *)
         (list_size (int_range 0 3) (int_range 0 2) (* mid-run ops *))))

let schedule_print =
  QCheck.Print.(
    pair (triple int int int) (triple int int (list int)))

let schedule_prop ((family, n, tcache_bytes), (ev_i, mode, sched)) =
  incr qcheck_cases_executed;
  let img = if family = 0 then prog_sum (20 + (n * 17)) else prog_fib n in
  let eviction = snd (List.nth Softcache.Config.eviction_table ev_i) in
  let chain = mode > 0 in
  let superblock_threshold = if mode = 2 then 1 else 0 in
  let oracle =
    if mode = 2 then begin
      let prof, _ = Profiler.profile img in
      Some
        (Softcache.Cc_chain.oracle_of_profile ~image:img
           ~chunking:Softcache.Config.Basic_block
           ~edges_from:(Profiler.edges_from prof)
           ~samples_at:(fun a -> Profiler.samples_in prof ~lo:a ~hi:(a + 4)))
    end
    else None
  in
  let native = Softcache.Runner.native img in
  (* fuel sized to the run so the op schedule fires mid-execution *)
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
  let cfg =
    Softcache.Config.make ~tcache_bytes
      ~chunking:Softcache.Config.Basic_block ~eviction ~chain
      ~superblock_threshold ()
  in
  match
    Check.Lockstep.run ~fuel ~ops ~audit:true
      ~on_controller:(fun c -> c.Softcache.Controller.chain_oracle <- oracle)
      cfg img
  with
  | Check.Lockstep.Equivalent { events } -> events > 0
  | v ->
    QCheck.Test.fail_reportf "schedule property violated: %a"
      Check.Lockstep.pp_verdict v

let test_qcheck_schedules () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:200 ~name:"chain/unlinking schedule property"
       (QCheck.make ~print:schedule_print schedule_gen)
       schedule_prop);
  (* the suite must not silently shrink: 200 generated cases, every
     one executed (the counter lives inside the property) *)
  Alcotest.(check bool)
    (Printf.sprintf "qcheck executed %d cases (>= 200)"
       !qcheck_cases_executed)
    true
    (!qcheck_cases_executed >= 200)

(* ------------------------------------------------------------------ *)
(* Registry-wide: chaining on/off/superblocks observably equivalent *)

let test_chain_modes_registry () =
  List.iter
    (fun (e : Workloads.Registry.entry) ->
      let img = e.build () in
      let prof, _ = Profiler.profile ~fuel:12_000_000 img in
      let oracle =
        Softcache.Cc_chain.oracle_of_profile ~image:img
          ~chunking:Softcache.Config.Basic_block
          ~edges_from:(Profiler.edges_from prof)
          ~samples_at:(fun a -> Profiler.samples_in prof ~lo:a ~hi:(a + 4))
      in
      match
        Check.Lockstep.chain_modes ~fuel:12_000_000 ~oracle
          ~superblock_threshold:16
          (fun () -> chain_cfg ~tcache_bytes:4096 ~chain:false ())
          img
      with
      | Check.Lockstep.Modes_equivalent { modes; events } ->
        Alcotest.(check (list string))
          (e.name ^ " covers all modes")
          [ "off"; "chain"; "chain+superblock" ]
          modes;
        Alcotest.(check bool) (e.name ^ " compared something") true (events > 0)
      | v ->
        Alcotest.failf "%s: %a" e.name Check.Lockstep.pp_modes_verdict v)
    Workloads.Registry.all

let () =
  Alcotest.run "chain"
    [
      ( "chaining",
        [
          Alcotest.test_case "eager chaining reduces traps" `Quick
            test_chain_reduces_traps;
          Alcotest.test_case "evict target: unpatch, re-arm, re-chain" `Quick
            test_evict_target_unpatches_and_rechains;
          Alcotest.test_case "evict source: target drops its records" `Quick
            test_evict_source_drops_its_records;
          Alcotest.test_case "flush unpatches everything" `Quick
            test_flush_unpatches_everything;
        ] );
      ( "superblocks",
        [
          Alcotest.test_case "threshold edges" `Quick
            test_superblock_threshold_edges;
          Alcotest.test_case "profile-driven end to end" `Slow
            test_superblock_profile_e2e;
        ] );
      ( "eviction",
        [
          Alcotest.test_case "collateral evictions unpatch and hook" `Quick
            test_collateral_eviction_unpatches;
        ] );
      ( "mutation",
        [
          Alcotest.test_case "catches a dropped link record" `Quick
            test_audit_catches_dropped_link;
        ] );
      ( "property",
        [
          Alcotest.test_case "random schedules, 200 cases" `Slow
            test_qcheck_schedules;
        ] );
      ( "lockstep",
        [
          Alcotest.test_case "registry-wide mode equivalence" `Slow
            test_chain_modes_registry;
        ] );
    ]
