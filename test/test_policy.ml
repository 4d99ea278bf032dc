(* The replacement-policy layer.

   Three proof obligations, in order of importance:
   - the refactor changed nothing: fifo and flush-all reproduce the
     pre-refactor controller cycle-for-cycle on golden workloads (the
     numbers below were captured from the monolithic controller before
     the policy extraction);
   - the policy abstraction behaves: victims are deterministic, pinned
     blocks are never selected, the resident view tracks the tcache,
     and a tcache full of pinned blocks fails cleanly instead of
     looping;
   - the miss path's re-allocation guard surfaces pathological
     persistent-stub growth as a diagnosable exception. *)

let reg = Isa.Reg.r

(* ------------------------------------------------------------------ *)
(* Golden cycle-identity: fifo and flush-all, re-expressed as policy
   modules, must be byte-identical to the pre-refactor controller.
   Cycles and translation counts below were recorded from the seed
   implementation on these exact configurations. *)

let golden =
  [
    ("compress95", 2048, Softcache.Config.Fifo, 13582157, 170953);
    ("compress95", 4096, Softcache.Config.Fifo, 13574221, 170822);
    ("compress95", 2048, Softcache.Config.Flush_all, 13509749, 171765);
    ("compress95", 4096, Softcache.Config.Flush_all, 13384621, 171216);
    ("mpeg2enc", 2048, Softcache.Config.Fifo, 7692069, 78185);
    ("mpeg2enc", 4096, Softcache.Config.Fifo, 7693337, 78175);
    ("mpeg2enc", 4096, Softcache.Config.Flush_all, 7654295, 78207);
    ("sensor_modes", 2048, Softcache.Config.Fifo, 2645071, 22);
    ("sensor_modes", 2048, Softcache.Config.Flush_all, 2646491, 34);
  ]

let test_golden_cycle_identity () =
  List.iter
    (fun (wname, tcache_bytes, eviction, cycles, translations) ->
      let img = (Option.get (Workloads.Registry.find wname)).build () in
      let cfg = Softcache.Config.make ~tcache_bytes ~eviction () in
      let cached, ctrl = Softcache.Runner.cached cfg img in
      let label =
        Printf.sprintf "%s/%s/%dB" wname
          (Softcache.Config.eviction_name eviction)
          tcache_bytes
      in
      Alcotest.(check int) (label ^ " cycles") cycles cached.cycles;
      Alcotest.(check int)
        (label ^ " translations")
        translations ctrl.stats.translations)
    golden

(* ------------------------------------------------------------------ *)
(* Policy unit behaviour on a synthetic tcache *)

let mk_block ~id ~vaddr ~paddr ~words =
  {
    Softcache.Tcache.id;
    vaddr;
    paddr;
    words;
    orig_words = words;
    incoming = [];
    pads = [];
    resume = [||];
    stubs = [];
  }

(* three resident blocks, installed in id order, none entered yet *)
let synthetic eviction =
  let tc = Softcache.Tcache.create ~base:0x10000 ~bytes:4096 in
  let p = Softcache.Policy.create eviction in
  let module P = (val p : Softcache.Policy.S) in
  let blocks =
    List.map
      (fun i -> mk_block ~id:i ~vaddr:(i * 64) ~paddr:(0x10000 + (i * 64)) ~words:8)
      [ 0; 1; 2 ]
  in
  List.iter
    (fun b ->
      Softcache.Tcache.register tc b;
      P.on_install b)
    blocks;
  (tc, p, blocks)

let victim_id p tc =
  let module P = (val p : Softcache.Policy.S) in
  Option.map (fun (b : Softcache.Tcache.block) -> b.id) (P.victim tc)

let test_registry_names () =
  List.iter
    (fun (name, ev) ->
      let module P = (val Softcache.Policy.create ev : Softcache.Policy.S) in
      Alcotest.(check string) "name matches table" name P.name;
      Alcotest.(check bool) "kind matches constructor" true
        (match (ev, P.kind) with
        | Softcache.Config.Flush_all, `Flush_all -> true
        | (Softcache.Config.Fifo | Lru | Trrip), `Evict -> true
        | _ -> false);
      Alcotest.(check (list int)) "empty resident view" [] (P.resident_ids ());
      Alcotest.(check bool) "debug state prints" true
        (String.length (P.debug_state ()) > 0))
    Softcache.Config.eviction_table

let test_reason_names_match_trace () =
  (* the trace validator accepts exactly the reasons the policy layer
     can emit — a rename on either side must fail here *)
  Alcotest.(check (list string))
    "single source of truth" Trace.evict_reasons Softcache.Policy.reason_names

let test_fifo_never_volunteers () =
  List.iter
    (fun ev ->
      let tc, p, blocks = synthetic ev in
      Alcotest.(check (option int)) "no victim opinion" None (victim_id p tc);
      let module P = (val p : Softcache.Policy.S) in
      List.iter (fun b -> P.on_entry b) blocks;
      Alcotest.(check (option int)) "still none after entries" None
        (victim_id p tc))
    [ Softcache.Config.Fifo; Softcache.Config.Flush_all ]

let test_lru_defers_to_sweep_when_cold () =
  (* no observed entries anywhere: the sweep's candidate is as good as
     any, so the policy must not deviate *)
  let tc, p, blocks = synthetic Softcache.Config.Lru in
  Alcotest.(check (option int)) "cold cache: defer" None (victim_id p tc);
  (* entry on a non-candidate block changes nothing: the sweep's
     candidate (block 0, lowest placement) is still cold *)
  let module P = (val p : Softcache.Policy.S) in
  P.on_entry (List.nth blocks 2);
  Alcotest.(check (option int)) "sweep candidate cold: defer" None
    (victim_id p tc)

let test_lru_overrides_sweep_for_fresh_block () =
  let tc, p, blocks = synthetic Softcache.Config.Lru in
  let module P = (val p : Softcache.Policy.S) in
  (* the sweep would kill block 0, but it was just entered: the policy
     must offer the least-recently-used block instead *)
  P.on_entry (List.hd blocks);
  Alcotest.(check (option int)) "protects the entered block" (Some 1)
    (victim_id p tc);
  (* pinning the would-be victim redirects to the next-least-recent *)
  Softcache.Tcache.pin tc (List.nth blocks 1);
  Alcotest.(check (option int)) "never a pinned block" (Some 2)
    (victim_id p tc);
  (* victim is a pure query: asking repeatedly must not change it *)
  Alcotest.(check (option int)) "pure query" (Some 2) (victim_id p tc)

let test_rrip_promotes_on_entry () =
  (* trrip with no temperature oracle attached is plain RRIP *)
  let tc, p, blocks = synthetic Softcache.Config.Trrip in
  let module P = (val p : Softcache.Policy.S) in
  Alcotest.(check (option int)) "cold cache: defer" None (victim_id p tc);
  P.on_entry (List.hd blocks);
  (* sweep candidate promoted to near-immediate re-reference; the
     victim is the most distant block, oldest insertion on ties *)
  Alcotest.(check (option int)) "evicts most distant, oldest first" (Some 1)
    (victim_id p tc);
  Softcache.Tcache.pin tc (List.nth blocks 1);
  Alcotest.(check (option int)) "never a pinned block" (Some 2)
    (victim_id p tc)

(* ------------------------------------------------------------------ *)
(* Tie-break determinism: equal keys must resolve on the smaller block
   id — never on Hashtbl.fold visit order, which depends on the table's
   insertion history. Same residents, both insertion orders, same
   answer. *)

let test_pick_min_tie_breaks_on_id () =
  let tc = Softcache.Tcache.create ~base:0x10000 ~bytes:4096 in
  let pick order =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun id ->
        let b =
          mk_block ~id ~vaddr:(id * 64) ~paddr:(0x10000 + (id * 64)) ~words:8
        in
        (* every resident carries the same key *)
        Hashtbl.replace tbl id (b, 42))
      order;
    Option.map
      (fun (b : Softcache.Tcache.block) -> b.id)
      (Softcache.Policy.pick_min tbl ~key:(fun m -> m) tc)
  in
  let ids = [ 3; 9; 4; 7; 12; 5 ] in
  Alcotest.(check (option int)) "forward insertion" (Some 3) (pick ids);
  Alcotest.(check (option int)) "reverse insertion" (Some 3)
    (pick (List.rev ids));
  Alcotest.(check (option int)) "two residents, 1 then 5" (Some 1)
    (pick [ 1; 5 ]);
  Alcotest.(check (option int)) "two residents, 5 then 1" (Some 1)
    (pick [ 5; 1 ]);
  (* pinning the tie-break winner promotes the next id *)
  let b3 = mk_block ~id:3 ~vaddr:192 ~paddr:(0x10000 + 192) ~words:8 in
  Softcache.Tcache.register tc b3;
  Softcache.Tcache.pin tc b3;
  Alcotest.(check (option int)) "pinned winner skipped" (Some 4) (pick ids)

let test_sweep_candidate_tie_breaks_on_id () =
  let tc = Softcache.Tcache.create ~base:0x10000 ~bytes:4096 in
  let pick order =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun id ->
        (* all at the same placement: live blocks never overlap, but
           the selection must be syntactically deterministic anyway *)
        let b = mk_block ~id ~vaddr:(id * 64) ~paddr:0x10100 ~words:8 in
        Hashtbl.replace tbl id (b, ()))
      order;
    Option.map
      (fun ((b : Softcache.Tcache.block), ()) -> b.id)
      (Softcache.Policy.sweep_candidate tbl tc)
  in
  Alcotest.(check (option int)) "forward insertion" (Some 2) (pick [ 2; 8; 5 ]);
  Alcotest.(check (option int)) "reverse insertion" (Some 2) (pick [ 5; 8; 2 ])

(* ------------------------------------------------------------------ *)
(* trrip: RRIP with a temperature prior *)

let trrip_oracle f p =
  let module P = (val p : Softcache.Policy.S) in
  P.set_temperature_oracle f

let test_trrip_hot_prior_protects_unentered () =
  (* block 0 (vaddr 0) classifies hot; no entries were ever observed.
     unprimed, trrip is blind here and defers to the sweep, killing the
     hot block;
     trrip's prior protects it and offers the oldest cold block. *)
  let tc = Softcache.Tcache.create ~base:0x10000 ~bytes:4096 in
  let p = Softcache.Policy.create Softcache.Config.Trrip in
  let module P = (val p : Softcache.Policy.S) in
  P.set_temperature_oracle
    (Some
       (fun ~lo ~hi:_ ->
         if lo < 64 then Softcache.Policy.Hot else Softcache.Policy.Cold));
  let blocks =
    List.map
      (fun i ->
        mk_block ~id:i ~vaddr:(i * 64) ~paddr:(0x10000 + (i * 64)) ~words:8)
      [ 0; 1; 2 ]
  in
  List.iter
    (fun b ->
      Softcache.Tcache.register tc b;
      P.on_install b)
    blocks;
  Alcotest.(check (option int)) "protects the hot block before any entry"
    (Some 1) (victim_id p tc);
  Softcache.Tcache.pin tc (List.nth blocks 1);
  Alcotest.(check (option int)) "never a pinned block" (Some 2)
    (victim_id p tc);
  Alcotest.(check (option int)) "pure query" (Some 2) (victim_id p tc)

let test_trrip_constant_cold_oracle_is_rrip () =
  (* the classifier degrades flat profiles to constant Cold; under that
     oracle trrip must still decide exactly as it does unprimed (see
     test_rrip_promotes_on_entry) *)
  let tc, p, blocks = synthetic Softcache.Config.Trrip in
  let module P = (val p : Softcache.Policy.S) in
  trrip_oracle (Some (fun ~lo:_ ~hi:_ -> Softcache.Policy.Cold)) p;
  Alcotest.(check (option int)) "cold cache: defer" None (victim_id p tc);
  P.on_entry (List.hd blocks);
  Alcotest.(check (option int)) "same decision as unprimed" (Some 1)
    (victim_id p tc)

(* End-to-end: without an oracle a full trrip run reproduces, cycle for
   cycle, the figures of the separate 2-bit RRIP policy that was folded
   into it (pinned below at a 2 KB tcache); with a real profile oracle
   attached (and the auditor on) it still computes the right outputs. *)
let test_trrip_runner_identity () =
  List.iter
    (fun (wname, cycles, translations) ->
      let img = (Option.get (Workloads.Registry.find wname)).build () in
      let native = Softcache.Runner.native img in
      let cfg =
        Softcache.Config.make ~tcache_bytes:2048
          ~eviction:Softcache.Config.Trrip ()
      in
      let cached, ctrl = Softcache.Runner.cached cfg img in
      Alcotest.(check int) (wname ^ " cycles") cycles cached.cycles;
      Alcotest.(check int) (wname ^ " translations") translations
        ctrl.stats.translations;
      Alcotest.(check (list int)) (wname ^ " outputs") native.outputs
        cached.outputs)
    [
      ("compress95", 13582003, 170947);
      ("mpeg2enc", 7692069, 78185);
      ("sensor_modes", 2645071, 22);
    ]

let policy_temp = function
  | Profiler.Hot -> Softcache.Policy.Hot
  | Profiler.Warm -> Softcache.Policy.Warm
  | Profiler.Cold -> Softcache.Policy.Cold

let test_trrip_profiled_audited_run () =
  let img = (Option.get (Workloads.Registry.find "mpeg2enc")).build () in
  let native = Softcache.Runner.native img in
  let prof, _ = Profiler.profile img in
  let classify = Profiler.temperature_classifier prof in
  let cfg =
    Softcache.Config.make ~tcache_bytes:4096
      ~eviction:Softcache.Config.Trrip ()
  in
  let audits = ref None in
  let prepare (ctrl : Softcache.Controller.t) =
    Softcache.Controller.set_temperature_oracle ctrl
      (Some (fun ~lo ~hi -> policy_temp (classify ~lo ~hi)));
    audits := Some (Check.Audit.install ctrl)
  in
  let cached, ctrl = Softcache.Runner.cached_robust ~prepare cfg img in
  Alcotest.(check bool) "halted" true
    (cached.status = Softcache.Runner.Finished Machine.Cpu.Halted);
  Alcotest.(check (list int)) "outputs match native" native.outputs
    cached.outputs;
  (match !audits with
  | Some n -> Alcotest.(check bool) "audits ran" true (!n > 0)
  | None -> Alcotest.fail "auditor was not installed");
  Alcotest.(check bool) "the profile actually evicted something" true
    (ctrl.stats.evicted_victim + ctrl.stats.evicted_collateral > 0)

let test_policy_view_tracks_evictions () =
  List.iter
    (fun (pname, ev) ->
      let tc, p, blocks = synthetic ev in
      let module P = (val p : Softcache.Policy.S) in
      Alcotest.(check (list int))
        (pname ^ " resident after installs")
        [ 0; 1; 2 ]
        (List.sort compare (P.resident_ids ()));
      P.on_evict Softcache.Policy.Victim (List.nth blocks 1);
      Alcotest.(check (list int))
        (pname ^ " resident after evict")
        [ 0; 2 ]
        (List.sort compare (P.resident_ids ()));
      ignore tc)
    Softcache.Config.eviction_table

(* ------------------------------------------------------------------ *)
(* Pinned-only tcache: when pinned blocks crowd out every placement,
   each policy must raise Tcache_too_small — not spin in the allocator
   (lru/trrip have no victim to offer: every candidate is pinned). *)

let prog_funcs n =
  let b = Isa.Builder.create "pinfarm" in
  let labs = List.init n (fun _ -> Isa.Builder.new_label b) in
  let main = Isa.Builder.new_label b in
  Isa.Builder.entry b main;
  List.iteri
    (fun i l ->
      Isa.Builder.func b (Printf.sprintf "f%d" i) l (fun () ->
          for k = 1 to 40 do
            Isa.Builder.ins b
              (Isa.Instr.Alui (Add, reg 2, reg 2, (i + k) land 7))
          done;
          Isa.Builder.ins b (Isa.Instr.Jr Isa.Reg.ra)))
    labs;
  Isa.Builder.func b "main" main (fun () ->
      List.iter (fun l -> Isa.Builder.jal b l) labs;
      Isa.Builder.ins b (Isa.Instr.Out (reg 2));
      Isa.Builder.ins b Isa.Instr.Halt);
  Isa.Builder.build b

let test_pinned_only_tcache () =
  let img = prog_funcs 10 in
  let fvaddrs =
    List.filter_map
      (fun (s : Isa.Image.symbol) ->
        if String.length s.sym_name > 1 && s.sym_name.[0] = 'f' then
          Some s.sym_addr
        else None)
      img.symbols
  in
  Alcotest.(check int) "ten pin candidates" 10 (List.length fvaddrs);
  List.iter
    (fun (pname, eviction) ->
      let cfg =
        Softcache.Config.make ~tcache_bytes:1024
          ~chunking:Softcache.Config.Procedure ~eviction ()
      in
      let ctrl = Softcache.Controller.create cfg img in
      match List.iter (Softcache.Controller.pin ctrl) fvaddrs with
      | () ->
        Alcotest.fail
          (pname ^ ": tcache held every pin — grow the program or shrink it")
      | exception Softcache.Controller.Tcache_too_small ->
        (* the refusal must come from a genuinely pinned-solid cache *)
        let blocks = Softcache.Tcache.blocks ctrl.tc in
        Alcotest.(check bool) (pname ^ " pinned some blocks first") true
          (List.length blocks >= 2);
        List.iter
          (fun (b : Softcache.Tcache.block) ->
            Alcotest.(check bool)
              (pname ^ " every resident is pinned")
              true
              (Softcache.Tcache.is_pinned ctrl.tc b.id))
          blocks)
    Softcache.Config.eviction_table

(* ------------------------------------------------------------------ *)
(* Eviction of the block containing the current pc's fall-through
   target: the patched (or pending) fall-through exit must revert to a
   trap and re-translate, never branch into reclaimed memory. *)

let prog_fib n =
  let b = Isa.Builder.create "fib" in
  let fib = Isa.Builder.new_label b in
  let base = Isa.Builder.new_label b in
  let main = Isa.Builder.new_label b in
  Isa.Builder.entry b main;
  Isa.Builder.func b "fib" fib (fun () ->
      Isa.Builder.li b (reg 3) 2;
      Isa.Builder.br b Lt (reg 1) (reg 3) base;
      Isa.Builder.ins b (Isa.Instr.Alui (Add, Isa.Reg.sp, Isa.Reg.sp, -12));
      Isa.Builder.ins b (Isa.Instr.St (Isa.Reg.ra, Isa.Reg.sp, 0));
      Isa.Builder.ins b (Isa.Instr.St (reg 1, Isa.Reg.sp, 4));
      Isa.Builder.ins b (Isa.Instr.Alui (Add, reg 1, reg 1, -1));
      Isa.Builder.jal b fib;
      Isa.Builder.ins b (Isa.Instr.St (reg 2, Isa.Reg.sp, 8));
      Isa.Builder.ins b (Isa.Instr.Ld (reg 1, Isa.Reg.sp, 4));
      Isa.Builder.ins b (Isa.Instr.Alui (Add, reg 1, reg 1, -2));
      Isa.Builder.jal b fib;
      Isa.Builder.ins b (Isa.Instr.Ld (reg 3, Isa.Reg.sp, 8));
      Isa.Builder.ins b (Isa.Instr.Alu (Add, reg 2, reg 2, reg 3));
      Isa.Builder.ins b (Isa.Instr.Ld (Isa.Reg.ra, Isa.Reg.sp, 0));
      Isa.Builder.ins b (Isa.Instr.Alui (Add, Isa.Reg.sp, Isa.Reg.sp, 12));
      Isa.Builder.ins b (Isa.Instr.Jr Isa.Reg.ra);
      Isa.Builder.here b base;
      Isa.Builder.ins b (Isa.Instr.Alu (Add, reg 2, reg 1, Isa.Reg.zero));
      Isa.Builder.ins b (Isa.Instr.Jr Isa.Reg.ra));
  Isa.Builder.func b "main" main (fun () ->
      Isa.Builder.li b (reg 1) n;
      Isa.Builder.jal b fib;
      Isa.Builder.ins b (Isa.Instr.Out (reg 2));
      Isa.Builder.ins b Isa.Instr.Halt);
  Isa.Builder.build b

let test_fallthrough_target_eviction () =
  let img = prog_fib 12 in
  let native = Softcache.Runner.native img in
  List.iter
    (fun (pname, eviction) ->
      let cfg =
        Softcache.Config.make ~tcache_bytes:1024
          ~chunking:Softcache.Config.Basic_block ~eviction ()
      in
      let ctrl = Softcache.Controller.create cfg img in
      ignore (Check.Audit.install ctrl);
      let evicted_a_target = ref false in
      let rec go budget =
        match Softcache.Controller.run ~fuel:400 ctrl with
        | Machine.Cpu.Halted -> ()
        | Machine.Cpu.Out_of_fuel ->
          if budget = 0 then Alcotest.fail (pname ^ ": did not halt");
          (* evict whatever chunk the current block falls through into *)
          let pc = ctrl.cpu.pc in
          (match
             List.find_opt
               (fun (b : Softcache.Tcache.block) ->
                 pc >= b.paddr && pc < b.paddr + (4 * b.words))
               (Softcache.Tcache.blocks ctrl.tc)
           with
          | Some b ->
            let fall = b.vaddr + (4 * b.orig_words) in
            if Softcache.Controller.resident ctrl fall then begin
              evicted_a_target := true;
              Softcache.Controller.invalidate ctrl ~lo:fall ~hi:(fall + 4)
            end
          | None -> ());
          go (budget - 1)
      in
      go 200;
      Alcotest.(check bool)
        (pname ^ " actually evicted a fall-through target")
        true !evicted_a_target;
      Alcotest.(check (list int))
        (pname ^ " outputs match native")
        native.outputs
        (Machine.Cpu.outputs ctrl.cpu))
    Softcache.Config.eviction_table

(* ------------------------------------------------------------------ *)
(* Alloc-guard exhaustion: if processing the evictions keeps growing
   the persistent stub area over the fresh placement, the miss path
   must fail with a diagnosable exception, not re-allocate forever. *)

let test_alloc_guard_exhausted () =
  (* ~1.8 KiB of straight-line functions through a 512-byte tcache:
     the region fills and every later call must evict *)
  let img = prog_funcs 10 in
  let cfg =
    Softcache.Config.make ~tcache_bytes:512
      ~chunking:Softcache.Config.Basic_block ()
  in
  let ctrl = Softcache.Controller.create cfg img in
  (match Softcache.Controller.run ~fuel:200 ctrl with
  | Machine.Cpu.Out_of_fuel -> ()
  | Machine.Cpu.Halted -> Alcotest.fail "program finished before thrashing");
  Alcotest.(check bool) "warmup filled the region" true
    (ctrl.stats.evicted_victim + ctrl.stats.evicted_collateral > 0
    || Softcache.Tcache.blocks ctrl.tc <> []);
  ctrl.alloc_guard <- 1;
  (* emulate pathological scrub growth: every eviction batch grows the
     persistent stub area down to just above the region base, so the
     retried placement can never clear it *)
  ctrl.on_event <-
    Some
      (function
      | Softcache.Controller.Evicted _ ->
        let tc = ctrl.tc in
        let room =
          (Softcache.Tcache.persist_base tc - Softcache.Tcache.base tc) / 4
        in
        if room > 1 then
          ignore (Softcache.Tcache.alloc_persistent tc ~words:(room - 1))
      | _ -> ());
  match Softcache.Controller.run ~fuel:500_000 ctrl with
  | _ -> Alcotest.fail "expected Alloc_guard_exhausted"
  | exception Softcache.Controller.Alloc_guard_exhausted
      { loops; base; persist_base; top } ->
    Alcotest.(check int) "reports the configured guard" 1 loops;
    Alcotest.(check bool) "region bounds are coherent" true
      (base <= persist_base && persist_base <= top);
    (* the payload should show the stub area having swallowed the
       region — that is the whole point of carrying both bounds *)
    Alcotest.(check bool) "stub area swallowed the region" true
      (persist_base - base <= 64)

let () =
  Alcotest.run "policy"
    [
      ( "golden",
        [
          Alcotest.test_case "fifo/flush cycle-identical to pre-refactor"
            `Slow test_golden_cycle_identity;
        ] );
      ( "units",
        [
          Alcotest.test_case "registry names and kinds" `Quick
            test_registry_names;
          Alcotest.test_case "reason names match trace schema" `Quick
            test_reason_names_match_trace;
          Alcotest.test_case "fifo/flush never volunteer a victim" `Quick
            test_fifo_never_volunteers;
          Alcotest.test_case "lru defers to the sweep when cold" `Quick
            test_lru_defers_to_sweep_when_cold;
          Alcotest.test_case "lru overrides sweep for fresh blocks" `Quick
            test_lru_overrides_sweep_for_fresh_block;
          Alcotest.test_case "rrip promotes on entry" `Quick
            test_rrip_promotes_on_entry;
          Alcotest.test_case "pick_min ties break on block id" `Quick
            test_pick_min_tie_breaks_on_id;
          Alcotest.test_case "sweep candidate ties break on block id" `Quick
            test_sweep_candidate_tie_breaks_on_id;
          Alcotest.test_case "resident view tracks evictions" `Quick
            test_policy_view_tracks_evictions;
        ] );
      ( "trrip",
        [
          Alcotest.test_case "hot prior protects unentered blocks" `Quick
            test_trrip_hot_prior_protects_unentered;
          Alcotest.test_case "constant-cold oracle is rrip" `Quick
            test_trrip_constant_cold_oracle_is_rrip;
          Alcotest.test_case "runner identity without oracle" `Slow
            test_trrip_runner_identity;
          Alcotest.test_case "profiled audited run" `Slow
            test_trrip_profiled_audited_run;
        ] );
      ( "edges",
        [
          Alcotest.test_case "pinned-only tcache fails cleanly" `Quick
            test_pinned_only_tcache;
          Alcotest.test_case "fall-through target eviction" `Quick
            test_fallthrough_target_eviction;
          Alcotest.test_case "alloc guard exhaustion" `Quick
            test_alloc_guard_exhausted;
        ] );
    ]
