(* Tests of the Section 3 software data cache: the sorted fully
   associative store, the stack cache, and the end-to-end driver. *)

open Fixtures

(* ------------------------------------------------------------------ *)
(* Assoc: the sorted, predicted, fully associative block store *)

let test_assoc_basic () =
  let a = Dcache.Assoc.create ~blocks:4 in
  Alcotest.(check int) "empty" 0 (Dcache.Assoc.occupancy a);
  (match Dcache.Assoc.lookup a ~pred:0 ~tag:5 with
  | Dcache.Assoc.Miss, _ -> ()
  | _ -> Alcotest.fail "expected miss");
  let idx, ev = Dcache.Assoc.insert a ~tag:5 in
  Alcotest.(check bool) "no eviction" true (ev = None);
  (match Dcache.Assoc.lookup a ~pred:idx ~tag:5 with
  | Dcache.Assoc.Fast_hit, _ -> ()
  | _ -> Alcotest.fail "expected fast hit at predicted index");
  match Dcache.Assoc.lookup a ~pred:3 ~tag:5 with
  | Dcache.Assoc.Slow_hit _, i -> Alcotest.(check int) "found" idx i
  | _ -> Alcotest.fail "expected slow hit with wrong prediction"

let test_assoc_lru_eviction () =
  let a = Dcache.Assoc.create ~blocks:2 in
  ignore (Dcache.Assoc.insert a ~tag:1);
  ignore (Dcache.Assoc.insert a ~tag:2);
  (* touch 1 so 2 is LRU *)
  ignore (Dcache.Assoc.lookup a ~pred:0 ~tag:1);
  let _, ev = Dcache.Assoc.insert a ~tag:3 in
  Alcotest.(check bool) "evicted LRU (2)" true (ev = Some 2);
  Alcotest.(check bool) "1 kept" true (Dcache.Assoc.mem a ~tag:1);
  Alcotest.(check bool) "3 present" true (Dcache.Assoc.mem a ~tag:3)

let test_assoc_probe2 () =
  let a = Dcache.Assoc.create ~blocks:4 in
  ignore (Dcache.Assoc.insert a ~tag:10);
  ignore (Dcache.Assoc.insert a ~tag:20);
  (* sorted: [10; 20]; pred 0 -> probe2 checks index 1 *)
  Alcotest.(check bool) "second chance" true
    (Dcache.Assoc.probe2 a ~pred:0 ~tag:20);
  Alcotest.(check bool) "not at pred+1" false
    (Dcache.Assoc.probe2 a ~pred:0 ~tag:10)

(* Sorted-order invariant + membership, via random insert sequences. *)
let test_assoc_sorted_invariant =
  QCheck.Test.make ~count:200 ~name:"assoc keeps sorted order + membership"
    QCheck.(make Gen.(list_size (int_range 1 100) (int_bound 500)))
    (fun tags ->
      let a = Dcache.Assoc.create ~blocks:16 in
      List.iter (fun t -> ignore (Dcache.Assoc.insert a ~tag:t)) tags;
      (* every tag we can find by lookup reports an index holding it;
         check that searching never misbehaves and occupancy bounded *)
      Dcache.Assoc.occupancy a <= 16
      && List.for_all
           (fun t ->
             match Dcache.Assoc.lookup a ~pred:0 ~tag:t with
             | (Dcache.Assoc.Fast_hit | Dcache.Assoc.Slow_hit _), _ -> true
             | Dcache.Assoc.Miss, _ -> true (* may have been evicted *))
           tags)

let test_assoc_duplicate_insert_is_benign () =
  let a = Dcache.Assoc.create ~blocks:8 in
  ignore (Dcache.Assoc.insert a ~tag:7);
  (* inserting a present tag is the caller's bug, but should at least
     keep the structure searchable *)
  ignore (Dcache.Assoc.insert a ~tag:9);
  Alcotest.(check bool) "7 findable" true (Dcache.Assoc.mem a ~tag:7);
  Alcotest.(check bool) "9 findable" true (Dcache.Assoc.mem a ~tag:9)

(* ------------------------------------------------------------------ *)
(* Scache *)

let test_scache_basic () =
  let s = Dcache.Scache.create ~frames:2 in
  Alcotest.(check bool) "enter 1 fits" false (Dcache.Scache.enter s);
  Alcotest.(check bool) "enter 2 fits" false (Dcache.Scache.enter s);
  Alcotest.(check int) "depth" 2 (Dcache.Scache.depth s);
  (* third frame spills the deepest *)
  Alcotest.(check bool) "enter 3 spills" true (Dcache.Scache.enter s);
  Alcotest.(check int) "spills" 1 (Dcache.Scache.spills s);
  (* leaving twice: resident frames cover them *)
  Alcotest.(check bool) "leave 1 resident" false (Dcache.Scache.leave s);
  (* next leave returns into the spilled frame: refill *)
  Alcotest.(check bool) "leave 2 refills" true (Dcache.Scache.leave s);
  Alcotest.(check int) "refills" 1 (Dcache.Scache.refills s);
  Alcotest.(check bool) "final leave resident" false (Dcache.Scache.leave s);
  Alcotest.(check int) "depth 0" 0 (Dcache.Scache.depth s)

let test_scache_no_spill_within_capacity =
  QCheck.Test.make ~count:100 ~name:"no spills while depth <= frames"
    QCheck.(make Gen.(int_range 2 10))
    (fun frames ->
      let s = Dcache.Scache.create ~frames in
      for _ = 1 to frames do
        ignore (Dcache.Scache.enter s)
      done;
      for _ = 1 to frames do
        ignore (Dcache.Scache.leave s)
      done;
      Dcache.Scache.spills s = 0 && Dcache.Scache.refills s = 0)

let test_scache_deep_recursion () =
  let s = Dcache.Scache.create ~frames:4 in
  for _ = 1 to 100 do
    ignore (Dcache.Scache.enter s)
  done;
  Alcotest.(check int) "96 spills" 96 (Dcache.Scache.spills s);
  for _ = 1 to 100 do
    ignore (Dcache.Scache.leave s)
  done;
  Alcotest.(check int) "96 refills" 96 (Dcache.Scache.refills s);
  Alcotest.(check int) "depth 0" 0 (Dcache.Scache.depth s)

(* ------------------------------------------------------------------ *)
(* Sim: end-to-end driver *)

(* A program with a strided array walk, a constant global counter and
   recursion. *)
let data_image ~iters ~stride =
  let b = Isa.Builder.create "dprog" in
  let arr = Isa.Builder.space b 8192 in
  let counter = Isa.Builder.word b 0 in
  let main = Isa.Builder.new_label b in
  let recurse = Isa.Builder.new_label b in
  Isa.Builder.entry b main;
  Isa.Builder.func b "recurse" recurse (fun () ->
      let base = Isa.Builder.new_label b in
      Isa.Builder.br b Eq (reg 1) Isa.Reg.zero base;
      Isa.Builder.ins b (Isa.Instr.Alui (Add, Isa.Reg.sp, Isa.Reg.sp, -8));
      Isa.Builder.ins b (Isa.Instr.St (Isa.Reg.ra, Isa.Reg.sp, 0));
      Isa.Builder.ins b (Isa.Instr.Alui (Add, reg 1, reg 1, -1));
      Isa.Builder.jal b recurse;
      Isa.Builder.ins b (Isa.Instr.Ld (Isa.Reg.ra, Isa.Reg.sp, 0));
      Isa.Builder.ins b (Isa.Instr.Alui (Add, Isa.Reg.sp, Isa.Reg.sp, 8));
      Isa.Builder.ins b (Isa.Instr.Jr Isa.Reg.ra);
      Isa.Builder.here b base;
      Isa.Builder.ins b (Isa.Instr.Jr Isa.Reg.ra));
  Isa.Builder.func b "main" main (fun () ->
      Isa.Builder.li b (reg 16) iters;
      Isa.Builder.li b (reg 17) arr;
      Isa.Builder.li b (reg 18) 0 (* offset *);
      let top = Isa.Builder.label b in
      (* strided data access *)
      Isa.Builder.ins b (Isa.Instr.Alu (Add, reg 5, reg 17, reg 18));
      Isa.Builder.ins b (Isa.Instr.Ld (reg 6, reg 5, 0));
      Isa.Builder.ins b (Isa.Instr.Alui (Add, reg 6, reg 6, 1));
      Isa.Builder.ins b (Isa.Instr.St (reg 6, reg 5, 0));
      (* constant global *)
      Isa.Builder.li b (reg 5) counter;
      Isa.Builder.ins b (Isa.Instr.Ld (reg 6, reg 5, 0));
      Isa.Builder.ins b (Isa.Instr.Alui (Add, reg 6, reg 6, 1));
      Isa.Builder.ins b (Isa.Instr.St (reg 6, reg 5, 0));
      (* occasional recursion exercises the stack cache *)
      Isa.Builder.ins b (Isa.Instr.Alui (And, reg 5, reg 16, 63));
      let no_rec = Isa.Builder.new_label b in
      Isa.Builder.br b Ne (reg 5) Isa.Reg.zero no_rec;
      Isa.Builder.li b (reg 1) 12;
      Isa.Builder.jal b recurse;
      Isa.Builder.here b no_rec;
      Isa.Builder.ins b
        (Isa.Instr.Alui (Add, reg 18, reg 18, stride));
      Isa.Builder.ins b (Isa.Instr.Alui (And, reg 18, reg 18, 8191));
      Isa.Builder.ins b (Isa.Instr.Alui (Add, reg 16, reg 16, -1));
      Isa.Builder.br b Ne (reg 16) Isa.Reg.zero top;
      Isa.Builder.li b (reg 5) counter;
      Isa.Builder.ins b (Isa.Instr.Ld (reg 6, reg 5, 0));
      Isa.Builder.ins b (Isa.Instr.Out (reg 6));
      Isa.Builder.ins b Isa.Instr.Halt);
  Isa.Builder.build b

let test_sim_preserves_results () =
  let img = data_image ~iters:2000 ~stride:4 in
  let native = Softcache.Runner.native img in
  let outcome, cpu, _ = Dcache.Sim.run (Dcache.Config.make ()) img in
  Alcotest.(check bool) "halts" true (outcome = Machine.Cpu.Halted);
  Alcotest.(check (list int)) "outputs unchanged" native.outputs
    (Machine.Cpu.outputs cpu);
  Alcotest.(check bool) "costs added" true (cpu.cycles > native.cycles)

let test_sim_constant_specialisation () =
  let img = data_image ~iters:2000 ~stride:4 in
  let _, _, st = Dcache.Sim.run (Dcache.Config.make ()) img in
  Alcotest.(check bool) "sites specialised" true (st.specialised_sites > 0);
  Alcotest.(check bool) "const hits accrue" true (st.const_hits > 1000);
  let _, _, st_off =
    Dcache.Sim.run (Dcache.Config.make ~specialise_constants:false ()) img
  in
  Alcotest.(check int) "specialisation off" 0 st_off.specialised_sites;
  Alcotest.(check int) "no const hits" 0 st_off.const_hits

let test_sim_deopt () =
  (* the strided site covers many addresses: it must never end up
     specialised; the counter site must never deopt *)
  let img = data_image ~iters:2000 ~stride:4 in
  let _, _, st =
    Dcache.Sim.run (Dcache.Config.make ~specialise_threshold:8 ()) img
  in
  (* walking sites keep changing address before reaching the threshold,
     so deopts stay rare (only sites that looked stable then moved) *)
  Alcotest.(check bool) "few deopts" true (st.deopts <= 4)

let test_sim_stack_classification () =
  let img = data_image ~iters:1000 ~stride:4 in
  let _, _, st = Dcache.Sim.run (Dcache.Config.make ()) img in
  Alcotest.(check bool) "stack accesses seen" true (st.stack_accesses > 0);
  Alcotest.(check bool) "data accesses seen" true (st.data_accesses > 0);
  Alcotest.(check bool) "scache checks" true (st.scache_checks > 0)

let test_sim_scache_spills_on_deep_recursion () =
  let img = data_image ~iters:256 ~stride:4 in
  let _, _, st =
    Dcache.Sim.run (Dcache.Config.make ~scache_frames:4 ()) img
  in
  Alcotest.(check bool) "spills under deep recursion" true
    (st.scache_spills > 0);
  Alcotest.(check bool) "refills match spills" true
    (st.scache_refills > 0)

let test_sim_prediction_helps_sequential () =
  (* small stride: consecutive accesses stay in one block -> the
     same-index prediction hits nearly always *)
  let img = data_image ~iters:4000 ~stride:4 in
  let cfg = Dcache.Config.make ~specialise_constants:false () in
  let _, _, st = Dcache.Sim.run cfg img in
  let hitrate =
    float_of_int st.fast_hits /. float_of_int (max 1 st.data_accesses)
  in
  Alcotest.(check bool)
    (Printf.sprintf "prediction hit rate %.2f > 0.6" hitrate)
    true (hitrate > 0.6)

let test_sim_large_stride_slow_hits () =
  (* jumping across blocks defeats the same-index prediction but the
     data still fits: slow hits instead of misses *)
  let img = data_image ~iters:4000 ~stride:1028 in
  let cfg = Dcache.Config.make ~specialise_constants:false () in
  let _, _, st = Dcache.Sim.run cfg img in
  Alcotest.(check bool) "slow hits occur" true (st.slow_hits > 100);
  (* the walk's footprint matches dcache capacity, so misses stay a
     minority of accesses even with LRU churn at the boundary *)
  Alcotest.(check bool)
    (Printf.sprintf "misses minority (%d / %d)" st.misses st.data_accesses)
    true
    (st.misses * 2 < st.data_accesses)

let test_sim_guaranteed_latency () =
  let cfg = Dcache.Config.make ~dcache_bytes:8192 ~block_bytes:32 () in
  (* 256 blocks -> 8 probes *)
  Alcotest.(check int) "slow-hit bound"
    Dcache.Config.(predicted_hit_cycles + (8 * search_step_cycles))
    (Dcache.Sim.guaranteed_latency_cycles cfg)

let test_sim_tag_checks_avoided () =
  let img = data_image ~iters:2000 ~stride:4 in
  let _, _, st = Dcache.Sim.run (Dcache.Config.make ()) img in
  let f = Dcache.Sim.tag_checks_avoided st in
  Alcotest.(check bool)
    (Printf.sprintf "avoidance fraction %.2f sane" f)
    true
    (f > 0.0 && f <= 1.0)

let test_fullsystem_equivalence () =
  (* instruction + data caching together must still be observationally
     identical to native execution, across both programs and a paging
     tcache *)
  List.iter
    (fun (img, tcache_bytes) ->
      let native = Softcache.Runner.native img in
      let icfg = Softcache.Config.make ~tcache_bytes () in
      let dcfg = Dcache.Config.make () in
      let full =
        Dcache.Fullsystem.run (Softcache.Controller.create icfg img) dcfg
      in
      Alcotest.(check bool) "halts" true (full.outcome = Machine.Cpu.Halted);
      Alcotest.(check (list int)) "outputs" native.outputs full.outputs;
      Alcotest.(check bool) "dearer than native" true
        (full.cycles > native.cycles))
    [
      (data_image ~iters:1500 ~stride:4, 16 * 1024);
      (data_image ~iters:1500 ~stride:4, 768 (* paging I-cache *));
    ];
  Alcotest.(check int) "local memory arithmetic"
    ((16 * 1024) + (8 * 1024) + (16 * 64))
    (Dcache.Fullsystem.local_memory_bytes
       (Softcache.Config.make ~tcache_bytes:(16 * 1024) ())
       (Dcache.Config.make ()))

let test_config_validation () =
  let bad f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  bad (fun () -> Dcache.Config.make ~block_bytes:24 ());
  bad (fun () -> Dcache.Config.make ~dcache_bytes:16 ~block_bytes:32 ());
  bad (fun () -> Dcache.Config.make ~scache_frames:1 ())

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "dcache"
    [
      ( "assoc",
        [
          Alcotest.test_case "basic" `Quick test_assoc_basic;
          Alcotest.test_case "LRU eviction" `Quick test_assoc_lru_eviction;
          Alcotest.test_case "second chance probe" `Quick test_assoc_probe2;
          qt test_assoc_sorted_invariant;
          Alcotest.test_case "duplicate insert" `Quick
            test_assoc_duplicate_insert_is_benign;
        ] );
      ( "scache",
        [
          Alcotest.test_case "basic" `Quick test_scache_basic;
          qt test_scache_no_spill_within_capacity;
          Alcotest.test_case "deep recursion" `Quick test_scache_deep_recursion;
        ] );
      ( "sim",
        [
          Alcotest.test_case "results preserved" `Quick
            test_sim_preserves_results;
          Alcotest.test_case "constant specialisation" `Quick
            test_sim_constant_specialisation;
          Alcotest.test_case "deoptimisation" `Quick test_sim_deopt;
          Alcotest.test_case "stack classification" `Quick
            test_sim_stack_classification;
          Alcotest.test_case "scache spills" `Quick
            test_sim_scache_spills_on_deep_recursion;
          Alcotest.test_case "prediction helps sequential" `Quick
            test_sim_prediction_helps_sequential;
          Alcotest.test_case "large stride slow hits" `Quick
            test_sim_large_stride_slow_hits;
          Alcotest.test_case "guaranteed latency" `Quick
            test_sim_guaranteed_latency;
          Alcotest.test_case "tag checks avoided" `Quick
            test_sim_tag_checks_avoided;
          Alcotest.test_case "config validation" `Quick test_config_validation;
          Alcotest.test_case "full system (I+D) equivalence" `Quick
            test_fullsystem_equivalence;
        ] );
    ]
