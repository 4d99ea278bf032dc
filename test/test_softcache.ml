(* End-to-end tests of the SoftCache: the headline invariant is that
   execution under the software cache is observationally identical to
   native execution, for every chunking mode, eviction policy and cache
   size — including sizes that force heavy eviction, stack scrubbing
   and whole-cache flushes. *)

open Fixtures

(* ------------------------------------------------------------------ *)
(* Test programs *)

(* Sum 1..n with a tight loop. *)
(* Recursive Fibonacci: deep call stack, saved return addresses. *)
(* Indirect calls through a function-pointer table in data. *)
let prog_jumptable iters =
  let b = Isa.Builder.create "jumptable" in
  let f0 = Isa.Builder.new_label b in
  let f1 = Isa.Builder.new_label b in
  let f2 = Isa.Builder.new_label b in
  let main = Isa.Builder.new_label b in
  Isa.Builder.entry b main;
  let mk_f name l inc =
    Isa.Builder.func b name l (fun () ->
        Isa.Builder.ins b (Isa.Instr.Alui (Add, reg 2, reg 2, inc));
        Isa.Builder.ins b (Isa.Instr.Jr Isa.Reg.ra))
  in
  mk_f "f0" f0 1;
  mk_f "f1" f1 10;
  mk_f "f2" f2 100;
  let tbl = Isa.Builder.space b 12 in
  Isa.Builder.func b "main" main (fun () ->
      Isa.Builder.li b (reg 10) tbl;
      Isa.Builder.la b (reg 11) f0;
      Isa.Builder.ins b (Isa.Instr.St (reg 11, reg 10, 0));
      Isa.Builder.la b (reg 11) f1;
      Isa.Builder.ins b (Isa.Instr.St (reg 11, reg 10, 4));
      Isa.Builder.la b (reg 11) f2;
      Isa.Builder.ins b (Isa.Instr.St (reg 11, reg 10, 8));
      Isa.Builder.li b (reg 1) 0;
      Isa.Builder.li b (reg 2) 0;
      Isa.Builder.li b (reg 9) iters;
      Isa.Builder.li b (reg 6) 3;
      let loop = Isa.Builder.label b in
      Isa.Builder.ins b (Isa.Instr.Alu (Div, reg 3, reg 1, reg 6));
      Isa.Builder.ins b (Isa.Instr.Alu (Mul, reg 4, reg 3, reg 6));
      Isa.Builder.ins b (Isa.Instr.Alu (Sub, reg 5, reg 1, reg 4));
      Isa.Builder.ins b (Isa.Instr.Alui (Sll, reg 5, reg 5, 2));
      Isa.Builder.ins b (Isa.Instr.Alu (Add, reg 5, reg 5, reg 10));
      Isa.Builder.ins b (Isa.Instr.Ld (reg 7, reg 5, 0));
      Isa.Builder.ins b (Isa.Instr.Jalr (Isa.Reg.ra, reg 7));
      Isa.Builder.ins b (Isa.Instr.Alui (Add, reg 1, reg 1, 1));
      Isa.Builder.br b Ne (reg 1) (reg 9) loop;
      Isa.Builder.ins b (Isa.Instr.Out (reg 2));
      Isa.Builder.ins b Isa.Instr.Halt);
  Isa.Builder.build b

(* Computed (non-call) jump: a two-way switch through jr. *)
let prog_switch sel =
  let b = Isa.Builder.create "switch" in
  let case0 = Isa.Builder.new_label b in
  let case1 = Isa.Builder.new_label b in
  let fin = Isa.Builder.new_label b in
  Isa.Builder.li b (reg 1) sel;
  Isa.Builder.la b (reg 5) case0;
  Isa.Builder.la b (reg 6) case1;
  Isa.Builder.br b Eq (reg 1) Isa.Reg.zero fin;
  Isa.Builder.ins b (Isa.Instr.Alu (Add, reg 5, reg 6, Isa.Reg.zero));
  Isa.Builder.here b fin;
  Isa.Builder.ins b (Isa.Instr.Jr (reg 5));
  Isa.Builder.here b case0;
  Isa.Builder.li b (reg 2) 111;
  Isa.Builder.ins b (Isa.Instr.Out (reg 2));
  Isa.Builder.ins b Isa.Instr.Halt;
  Isa.Builder.here b case1;
  Isa.Builder.li b (reg 2) 222;
  Isa.Builder.ins b (Isa.Instr.Out (reg 2));
  Isa.Builder.ins b Isa.Instr.Halt;
  Isa.Builder.build b

(* Multi-phase program: several procedures with disjoint code, called
   in sequence (the Figure 2 "operating modes" pattern). [pad] bulks up
   each phase's code so small tcaches must page. *)
let prog_phases ?(pad = 20) ?(inner = 50) () =
  let b = Isa.Builder.create "phases" in
  let main = Isa.Builder.new_label b in
  let phases = Array.init 4 (fun _ -> Isa.Builder.new_label b) in
  Isa.Builder.entry b main;
  Array.iteri
    (fun pi l ->
      Isa.Builder.func b (Printf.sprintf "phase%d" pi) l (fun () ->
          (* r2 accumulates; r1 loop counter *)
          Isa.Builder.li b (reg 1) inner;
          let top = Isa.Builder.label b in
          for k = 0 to pad - 1 do
            Isa.Builder.ins b
              (Isa.Instr.Alui (Add, reg 2, reg 2, ((pi + 1) * 7) + (k mod 3)))
          done;
          Isa.Builder.ins b (Isa.Instr.Alui (Add, reg 1, reg 1, -1));
          Isa.Builder.br b Ne (reg 1) Isa.Reg.zero top;
          Isa.Builder.ins b (Isa.Instr.Jr Isa.Reg.ra)))
    phases;
  Isa.Builder.func b "main" main (fun () ->
      Isa.Builder.li b (reg 2) 0;
      Array.iter (fun l -> Isa.Builder.jal b l) phases;
      (* revisit phase 0: steady-state code must be re-translatable *)
      Isa.Builder.jal b phases.(0);
      Isa.Builder.ins b (Isa.Instr.Out (reg 2));
      Isa.Builder.ins b Isa.Instr.Halt);
  Isa.Builder.build b

(* ------------------------------------------------------------------ *)
(* Equivalence harness *)

let configs ~tiny () =
  let open Softcache.Config in
  let base = if tiny then 768 else 48 * 1024 in
  [
    ("bb/fifo", make ~tcache_bytes:base ~chunking:Basic_block ~eviction:Fifo ());
    ( "bb/flush",
      make ~tcache_bytes:base ~chunking:Basic_block ~eviction:Flush_all () );
    ( "proc/fifo",
      make ~tcache_bytes:(max base 2048) ~chunking:Procedure ~eviction:Fifo ()
    );
    ( "proc/flush",
      make ~tcache_bytes:(max base 2048) ~chunking:Procedure
        ~eviction:Flush_all () );
  ]

(* The whole matrix runs with the tcache invariant auditor attached:
   every translation, patch, eviction, invalidation and flush is
   followed by a full structural audit of the cache. *)
let check_equivalence ?(tiny = false) name img =
  let native = Softcache.Runner.native img in
  Alcotest.(check bool)
    (name ^ " native halts") true
    (native.outcome = Machine.Cpu.Halted);
  List.iter
    (fun (cname, cfg) ->
      let audits = ref None in
      let prepare ctrl = audits := Some (Check.Audit.install ctrl) in
      let cached, ctrl = Softcache.Runner.cached_robust ~prepare cfg img in
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s halts" name cname)
        true
        (cached.status = Softcache.Runner.Finished Machine.Cpu.Halted);
      Alcotest.(check (list int))
        (Printf.sprintf "%s/%s outputs" name cname)
        native.outputs cached.outputs;
      (match !audits with
      | Some n when !n > 0 -> ()
      | Some _ -> Alcotest.failf "%s/%s: auditor never ran" name cname
      | None -> Alcotest.failf "%s/%s: auditor not installed" name cname);
      match Check.Audit.run ctrl with
      | [] -> ()
      | vs ->
        Alcotest.failf "%s/%s: final audit failed: %s" name cname
          (String.concat "; "
             (List.map
                (fun v -> Format.asprintf "%a" Check.Audit.pp_violation v)
                vs)))
    (configs ~tiny ())

let test_equiv_sum () = check_equivalence "sum" (prog_sum 1000)
let test_equiv_fib () = check_equivalence "fib" (prog_fib 15)
let test_equiv_jumptable () = check_equivalence "jumptable" (prog_jumptable 30)

let test_equiv_switch () =
  check_equivalence "switch0" (prog_switch 0);
  check_equivalence "switch1" (prog_switch 1)

let test_equiv_phases () = check_equivalence "phases" (prog_phases ())

let test_equiv_tiny_cache () =
  check_equivalence ~tiny:true "sum" (prog_sum 500);
  check_equivalence ~tiny:true "fib" (prog_fib 12);
  check_equivalence ~tiny:true "jumptable" (prog_jumptable 20);
  check_equivalence ~tiny:true "phases" (prog_phases ())

(* Random program parameters under random small caches: the paging /
   scrubbing / flush machinery must never change observable results. *)
let test_random_fib_equiv =
  QCheck.Test.make ~count:40 ~name:"fib equivalence under random tiny caches"
    QCheck.(
      make
        ~print:(fun (n, sz, ch, ev) ->
          Printf.sprintf "n=%d size=%d chunking=%d eviction=%d" n sz ch ev)
        Gen.(quad (int_range 1 14) (int_range 600 4000) (int_bound 1) (int_bound 1)))
    (fun (n, size, ch, ev) ->
      let img = prog_fib n in
      let cfg =
        Softcache.Config.make ~tcache_bytes:size
          ~chunking:(if ch = 0 then Basic_block else Procedure)
          ~eviction:(if ev = 0 then Flush_all else Fifo)
          ()
      in
      let native = Softcache.Runner.native img in
      match Softcache.Runner.cached cfg img with
      | cached, _ -> cached.outputs = native.outputs
      | exception Softcache.Controller.Chunk_too_large _ ->
        (* acceptable only in procedure mode with a tiny cache *)
        ch = 1)

(* ------------------------------------------------------------------ *)
(* The paper's guarantees *)

(* "We can guarantee a 100% hit rate for codes that fit in the cache":
   once the working set is translated, no further misses occur, so the
   translation count must not depend on how long the program runs. *)
let test_hit_rate_guarantee () =
  let t n =
    let _, ctrl =
      Softcache.Runner.cached (Softcache.Config.sparc_prototype ()) (prog_sum n)
    in
    ctrl.stats.translations
  in
  Alcotest.(check int) "translations independent of run length" (t 10)
    (t 100_000);
  let t_fib n =
    let _, ctrl =
      Softcache.Runner.cached (Softcache.Config.sparc_prototype ()) (prog_fib n)
    in
    ctrl.stats.translations
  in
  Alcotest.(check int) "fib translations independent of depth" (t_fib 5)
    (t_fib 18)

let test_no_evictions_when_fitting () =
  let _, ctrl =
    Softcache.Runner.cached (Softcache.Config.sparc_prototype ()) (prog_fib 16)
  in
  Alcotest.(check int) "no evictions" 0 ctrl.stats.evicted_blocks;
  Alcotest.(check int) "no flushes" 0 ctrl.stats.flushes

let test_paging_when_small () =
  let cfg = Softcache.Config.make ~tcache_bytes:768 () in
  let cached, ctrl = Softcache.Runner.cached cfg (prog_phases ~pad:80 ~inner:50 ()) in
  Alcotest.(check bool) "halts" true (cached.outcome = Machine.Cpu.Halted);
  Alcotest.(check bool) "evicts" true (ctrl.stats.evicted_blocks > 0);
  Alcotest.(check bool)
    "occupancy bounded" true
    (ctrl.stats.max_occupied_bytes <= 768)

let test_slowdown_reasonable () =
  let img = prog_sum 100_000 in
  let native = Softcache.Runner.native img in
  let cached, _ = Softcache.Runner.cached (Softcache.Config.sparc_prototype ()) img in
  let s = Softcache.Runner.slowdown ~native ~cached in
  Alcotest.(check bool)
    (Printf.sprintf "slowdown %.3f in (1, 2)" s)
    true
    (s > 1.0 && s < 2.0)

let test_miss_rate_decreases_with_size () =
  let img = prog_phases ~pad:80 ~inner:30 () in
  let rate size =
    let cached, ctrl =
      Softcache.Runner.cached (Softcache.Config.make ~tcache_bytes:size ()) img
    in
    Softcache.Stats.miss_rate ctrl.stats ~retired:cached.retired
  in
  let small = rate 768 and big = rate (32 * 1024) in
  Alcotest.(check bool)
    (Printf.sprintf "miss rate shrinks (%.5f -> %.5f)" small big)
    true (big < small)

(* ------------------------------------------------------------------ *)
(* Invalidation *)

let test_invalidate_midrun () =
  let img = prog_fib 17 in
  let native = Softcache.Runner.native img in
  let ctrl =
    Softcache.Controller.create (Softcache.Config.sparc_prototype ()) img
  in
  (* run in slices, invalidating everything between slices: correctness
     must survive losing the whole cache at arbitrary points, including
     with live return addresses on the stack *)
  let rec go guard =
    if guard = 0 then Alcotest.fail "did not terminate"
    else
      match Softcache.Controller.run ~fuel:997 ctrl with
      | Machine.Cpu.Halted -> ()
      | Machine.Cpu.Out_of_fuel ->
        Softcache.Controller.invalidate ctrl ~lo:img.code_base
          ~hi:(Isa.Image.code_end img);
        go (guard - 1)
  in
  go 10_000;
  Alcotest.(check (list int))
    "outputs survive repeated invalidation" native.outputs
    (Machine.Cpu.outputs ctrl.cpu)

let test_flush_midrun () =
  let img = prog_fib 16 in
  let native = Softcache.Runner.native img in
  let ctrl =
    Softcache.Controller.create (Softcache.Config.sparc_prototype ()) img
  in
  let rec go guard =
    if guard = 0 then Alcotest.fail "did not terminate"
    else
      match Softcache.Controller.run ~fuel:1009 ctrl with
      | Machine.Cpu.Halted -> ()
      | Machine.Cpu.Out_of_fuel ->
        Softcache.Controller.flush ctrl;
        go (guard - 1)
  in
  go 10_000;
  Alcotest.(check (list int))
    "outputs survive repeated flushes" native.outputs
    (Machine.Cpu.outputs ctrl.cpu);
  Alcotest.(check bool) "flushes counted" true (ctrl.stats.flushes > 0)

(* Regression: a CPU parked in a dead block is redirected once, to the
   return stub for the resume address it was parked at. Invalidating
   the whole image every N instructions on registry workloads used to
   move a redirected pc again whenever its fresh stub landed inside a
   later victim of the same eviction: the run faulted or printed wrong
   outputs. *)
let test_periodic_invalidate_registry () =
  List.iter
    (fun (name, tcache_bytes, fuel) ->
      let img = (Option.get (Workloads.Registry.find name)).build () in
      let native = Softcache.Runner.native img in
      let ctrl =
        Softcache.Controller.create (Softcache.Config.make ~tcache_bytes ()) img
      in
      let rec go () =
        match Softcache.Controller.run ~fuel ctrl with
        | Machine.Cpu.Halted -> ()
        | Machine.Cpu.Out_of_fuel ->
          Softcache.Controller.invalidate ctrl ~lo:0
            ~hi:(Isa.Image.code_end img);
          go ()
      in
      go ();
      Alcotest.(check (list int))
        (Printf.sprintf "%s @%d B, invalidated every %d instructions" name
           tcache_bytes fuel)
        native.outputs
        (Machine.Cpu.outputs ctrl.cpu))
    [
      ("sensor_modes", 1024, 20_011);
      ("sensor_modes", 2048, 4_999);
      ("compress95", 2048, 20_011);
    ]

let test_partial_invalidate () =
  (* invalidate only one procedure's range; everything still works *)
  let img = prog_phases () in
  let native = Softcache.Runner.native img in
  let ctrl =
    Softcache.Controller.create (Softcache.Config.sparc_prototype ()) img
  in
  let p1 = Option.get (Isa.Image.find_symbol img "phase1") in
  let rec go guard =
    if guard = 0 then Alcotest.fail "did not terminate"
    else
      match Softcache.Controller.run ~fuel:499 ctrl with
      | Machine.Cpu.Halted -> ()
      | Machine.Cpu.Out_of_fuel ->
        Softcache.Controller.invalidate ctrl ~lo:p1.sym_addr
          ~hi:(p1.sym_addr + p1.sym_size);
        go (guard - 1)
  in
  go 10_000;
  Alcotest.(check (list int))
    "outputs survive partial invalidation" native.outputs
    (Machine.Cpu.outputs ctrl.cpu)

(* ------------------------------------------------------------------ *)
(* Accounting *)

let test_network_accounting () =
  let net = Netmodel.ethernet_10mbps () in
  let cfg = Softcache.Config.make ~chunking:Procedure ~net () in
  let _, ctrl = Softcache.Runner.cached cfg (prog_fib 10) in
  Alcotest.(check int)
    "one message per translation" ctrl.stats.translations
    (Netmodel.messages net);
  Alcotest.(check int)
    "payload is emitted words"
    (ctrl.stats.translated_words * 4)
    (Netmodel.payload_bytes net);
  Alcotest.(check int)
    "60B protocol overhead per chunk"
    (Netmodel.payload_bytes net + (60 * Netmodel.messages net))
    (Netmodel.total_bytes net)

let test_metadata_reported () =
  let _, ctrl =
    Softcache.Runner.cached (Softcache.Config.sparc_prototype ()) (prog_fib 10)
  in
  Alcotest.(check bool)
    "metadata bytes positive" true
    (Softcache.Controller.metadata_bytes ctrl > 0)

let test_chunk_too_large () =
  let img = prog_phases ~pad:200 ~inner:1 () in
  let cfg =
    Softcache.Config.make ~tcache_bytes:256 ~chunking:Procedure ()
  in
  match Softcache.Runner.cached cfg img with
  | exception Softcache.Controller.Chunk_too_large _ -> ()
  | _ -> Alcotest.fail "expected Chunk_too_large"

(* ------------------------------------------------------------------ *)
(* Pinning and preloading (Section 4 novel capabilities) *)

let test_pin_survives_thrash () =
  let img = prog_phases ~pad:80 ~inner:50 () in
  let native = Softcache.Runner.native img in
  let p0 = Option.get (Isa.Image.find_symbol img "phase0") in
  let cfg = Softcache.Config.make ~tcache_bytes:1024 () in
  let ctrl = Softcache.Controller.create cfg img in
  Softcache.Controller.pin ctrl p0.sym_addr;
  Alcotest.(check bool) "pinned" true
    (Softcache.Controller.is_pinned ctrl p0.sym_addr);
  let outcome = Softcache.Controller.run ctrl in
  Alcotest.(check bool) "halts" true (outcome = Machine.Cpu.Halted);
  Alcotest.(check (list int)) "outputs" native.outputs
    (Machine.Cpu.outputs ctrl.cpu);
  Alcotest.(check bool) "thrash happened" true
    (ctrl.stats.evicted_blocks > 0);
  Alcotest.(check bool) "pinned chunk still resident" true
    (Softcache.Controller.resident ctrl p0.sym_addr)

let test_pin_survives_flush () =
  let img = prog_fib 12 in
  let fib = Option.get (Isa.Image.find_symbol img "fib") in
  let ctrl =
    Softcache.Controller.create (Softcache.Config.sparc_prototype ()) img
  in
  Softcache.Controller.pin ctrl fib.sym_addr;
  let _ = Softcache.Controller.run ~fuel:5000 ctrl in
  Softcache.Controller.flush ctrl;
  Alcotest.(check bool) "resident after flush" true
    (Softcache.Controller.resident ctrl fib.sym_addr);
  Alcotest.(check bool) "still pinned" true
    (Softcache.Controller.is_pinned ctrl fib.sym_addr);
  let outcome = Softcache.Controller.run ctrl in
  Alcotest.(check bool) "completes correctly" true
    (outcome = Machine.Cpu.Halted
    && Machine.Cpu.outputs ctrl.cpu = (Softcache.Runner.native img).outputs)

let test_unpin_allows_eviction () =
  let img = prog_fib 10 in
  let fib = Option.get (Isa.Image.find_symbol img "fib") in
  let ctrl =
    Softcache.Controller.create (Softcache.Config.sparc_prototype ()) img
  in
  Softcache.Controller.pin ctrl fib.sym_addr;
  Softcache.Controller.unpin ctrl fib.sym_addr;
  Softcache.Controller.flush ctrl;
  Alcotest.(check bool) "evicted after unpin + flush" false
    (Softcache.Controller.resident ctrl fib.sym_addr)

let test_invalidate_overrides_pin () =
  let img = prog_fib 10 in
  let fib = Option.get (Isa.Image.find_symbol img "fib") in
  let ctrl =
    Softcache.Controller.create (Softcache.Config.sparc_prototype ()) img
  in
  Softcache.Controller.pin ctrl fib.sym_addr;
  Softcache.Controller.invalidate ctrl ~lo:fib.sym_addr
    ~hi:(fib.sym_addr + fib.sym_size);
  Alcotest.(check bool) "invalidated despite pin" false
    (Softcache.Controller.resident ctrl fib.sym_addr);
  let outcome = Softcache.Controller.run ctrl in
  Alcotest.(check bool) "still correct" true
    (outcome = Machine.Cpu.Halted
    && Machine.Cpu.outputs ctrl.cpu = (Softcache.Runner.native img).outputs)

let test_pin_equivalence_under_thrash =
  QCheck.Test.make ~count:20 ~name:"pinning never changes results"
    QCheck.(make Gen.(pair (int_range 6 13) (int_range 700 2000)))
    (fun (n, size) ->
      let img = prog_fib n in
      let fib = Option.get (Isa.Image.find_symbol img "fib") in
      let native = Softcache.Runner.native img in
      let ctrl =
        Softcache.Controller.create
          (Softcache.Config.make ~tcache_bytes:size ())
          img
      in
      match Softcache.Controller.pin ctrl fib.sym_addr with
      | () -> (
        match Softcache.Controller.run ctrl with
        | Machine.Cpu.Halted ->
          Machine.Cpu.outputs ctrl.cpu = native.outputs
        | Machine.Cpu.Out_of_fuel -> false)
      | exception Softcache.Controller.Chunk_too_large _ -> true)

let test_preload_eliminates_misses () =
  let img = prog_phases ~pad:20 ~inner:50 () in
  let ctrl =
    Softcache.Controller.create (Softcache.Config.sparc_prototype ()) img
  in
  Softcache.Controller.preload ctrl ~lo:img.code_base
    ~hi:(Isa.Image.code_end img);
  let before = ctrl.stats.translations in
  let outcome = Softcache.Controller.run ctrl in
  Alcotest.(check bool) "halts" true (outcome = Machine.Cpu.Halted);
  (* the whole image is resident: running adds no translations *)
  Alcotest.(check int) "no further misses" before ctrl.stats.translations

let test_stats_consistency () =
  List.iter
    (fun eviction ->
      let name = Softcache.Config.eviction_name eviction in
      (* small enough to page, so the eviction checks are not vacuous *)
      let cfg = Softcache.Config.make ~tcache_bytes:768 ~eviction () in
      let ctrl =
        Softcache.Controller.create cfg (prog_phases ~pad:80 ~inner:50 ())
      in
      (* the Fig. 8 recorder: every eviction event with its cycle stamp *)
      let events = ref [] in
      ctrl.on_event <-
        Some
          (function
          | Softcache.Controller.Evicted n ->
            events := (ctrl.cpu.cycles, n) :: !events
          | _ -> ());
      let outcome = Softcache.Controller.run ctrl in
      let s = ctrl.stats in
      let series = List.rev !events in
      Alcotest.(check bool) (name ^ ": halts") true
        (outcome = Machine.Cpu.Halted);
      Alcotest.(check bool)
        (name ^ ": translated words >= translations")
        true
        (s.translated_words >= s.translations);
      Alcotest.(check bool) (name ^ ": evicts") true (series <> []);
      Alcotest.(check int)
        (name ^ ": eviction events sum to evicted blocks")
        s.evicted_blocks
        (List.fold_left (fun a (_, n) -> a + n) 0 series);
      Alcotest.(check bool)
        (name ^ ": events stamped in nondecreasing cycle order")
        true
        (let rec mono = function
           | (c1, _) :: ((c2, _) :: _ as rest) -> c1 <= c2 && mono rest
           | _ -> true
         in
         mono series))
    (* a flush is an eviction too: it reaches the same hook *)
    [ Softcache.Config.Fifo; Softcache.Config.Flush_all ]

(* Host allocation on the miss path: minor-heap words allocated inside
   the trap handler, per translation, on thrashing 4 KB runs: the plain
   block/fifo/local path, whole-function units (the PLT path), and
   trrip with prefetch riders over ethernet (the staging path). Each
   bound is its measurement plus 5%, rather than an exact count,
   because word counts shift with compiler releases. *)
let test_trap_alloc_per_translation () =
  List.iter
    (fun (name, cfg, bound) ->
      let img = (Option.get (Workloads.Registry.find name)).build () in
      let words = ref 0. in
      let prepare (ctrl : Softcache.Controller.t) =
        match ctrl.cpu.trap_handler with
        | None -> Alcotest.fail "controller installed no trap handler"
        | Some handle ->
          ctrl.cpu.trap_handler <-
            Some
              (fun cpu k ->
                let before = Gc.minor_words () in
                handle cpu k;
                words := !words +. (Gc.minor_words () -. before))
      in
      let run, ctrl = Softcache.Runner.cached_robust ~prepare cfg img in
      Alcotest.(check bool) (name ^ " halts") true
        (run.status = Softcache.Runner.Finished Machine.Cpu.Halted);
      let per_miss = !words /. float_of_int ctrl.stats.translations in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.1f words per translation <= %d" name per_miss
           bound)
        true
        (per_miss <= float_of_int bound))
    [
      ("compress95", Softcache.Config.make ~tcache_bytes:4096 (), 214);
      ( "compress95",
        Softcache.Config.make ~tcache_bytes:4096
          ~granularity:Softcache.Config.Function (),
        506 );
      ( "mpeg2enc",
        Softcache.Config.make ~tcache_bytes:4096
          ~eviction:Softcache.Config.Trrip ~prefetch_degree:2
          ~net:(Netmodel.ethernet_10mbps ()) (),
        371 );
    ]

(* Soak test: interleave execution slices with random controller
   operations. Whatever the schedule of invalidations, flushes, pins
   and preloads, observable behaviour must equal native execution. *)
let test_soak =
  let schedule_gen =
    QCheck.Gen.(
      triple (int_range 8 14) (int_range 700 4000)
        (list_size (int_range 1 12) (int_bound 5)))
  in
  QCheck.Test.make ~count:30
    ~name:"random op schedules never change results"
    QCheck.(
      make
        ~print:(fun (n, sz, ops) ->
          Printf.sprintf "fib %d, %dB, ops=[%s]" n sz
            (String.concat ";" (List.map string_of_int ops)))
        schedule_gen)
    (fun (n, size, ops) ->
      let img = prog_fib n in
      let native = Softcache.Runner.native img in
      let fib = Option.get (Isa.Image.find_symbol img "fib") in
      let ctrl =
        Softcache.Controller.create
          (Softcache.Config.make ~tcache_bytes:size ())
          img
      in
      let apply op =
        match op with
        | 0 ->
          Softcache.Controller.invalidate ctrl ~lo:img.code_base
            ~hi:(Isa.Image.code_end img)
        | 1 -> Softcache.Controller.flush ctrl
        | 2 -> Softcache.Controller.pin ctrl fib.sym_addr
        | 3 -> Softcache.Controller.unpin ctrl fib.sym_addr
        | 4 ->
          Softcache.Controller.preload ctrl ~lo:fib.sym_addr
            ~hi:(fib.sym_addr + fib.sym_size)
        | _ ->
          Softcache.Controller.invalidate ctrl ~lo:fib.sym_addr
            ~hi:(fib.sym_addr + 8)
      in
      let rec go ops guard =
        if guard = 0 then false
        else
          match Softcache.Controller.run ~fuel:1777 ctrl with
          | Machine.Cpu.Halted -> Machine.Cpu.outputs ctrl.cpu = native.outputs
          | Machine.Cpu.Out_of_fuel ->
            (match ops with
            | op :: rest ->
              apply op;
              go rest guard
            | [] -> go [] (guard - 1))
      in
      match go ops 200_000 with
      | ok -> ok
      | exception Softcache.Controller.Chunk_too_large _ -> true)

(* ------------------------------------------------------------------ *)
(* The thread-system interface: return addresses in non-stack storage *)

(* A program that parks its return address in a global "thread control
   block" (the paper's example of non-stack return-address storage),
   then churns through enough other code to force the caller's block
   out of a small tcache before returning through the global. *)
let prog_tcb () =
  let b = Isa.Builder.create "tcb" in
  let tcb = Isa.Builder.word b 0 in
  let fillers = Array.init 6 (fun _ -> Isa.Builder.new_label b) in
  let trampoline = Isa.Builder.new_label b in
  let main = Isa.Builder.new_label b in
  Isa.Builder.entry b main;
  Array.iteri
    (fun i l ->
      Isa.Builder.func b (Printf.sprintf "filler%d" i) l (fun () ->
          Isa.Builder.li b (reg 5) 40;
          let top = Isa.Builder.label b in
          for k = 0 to 24 do
            Isa.Builder.ins b
              (Isa.Instr.Alui (Add, reg 2, reg 2, 1 + ((i + k) mod 5)))
          done;
          Isa.Builder.ins b (Isa.Instr.Alui (Add, reg 5, reg 5, -1));
          Isa.Builder.br b Ne (reg 5) Isa.Reg.zero top;
          Isa.Builder.ins b (Isa.Instr.Jr Isa.Reg.ra)))
    fillers;
  Isa.Builder.func b "trampoline" trampoline (fun () ->
      (* save ra in the TCB — non-stack storage *)
      Isa.Builder.li b (reg 5) tcb;
      Isa.Builder.ins b (Isa.Instr.St (Isa.Reg.ra, reg 5, 0));
      Array.iter (fun l -> Isa.Builder.jal b l) fillers;
      (* return through the TCB *)
      Isa.Builder.li b (reg 5) tcb;
      Isa.Builder.ins b (Isa.Instr.Ld (Isa.Reg.ra, reg 5, 0));
      Isa.Builder.ins b (Isa.Instr.Jr Isa.Reg.ra));
  Isa.Builder.func b "main" main (fun () ->
      Isa.Builder.li b (reg 16) 20;
      let loop = Isa.Builder.label b in
      Isa.Builder.jal b trampoline;
      Isa.Builder.ins b (Isa.Instr.Alui (Add, reg 16, reg 16, -1));
      Isa.Builder.br b Ne (reg 16) Isa.Reg.zero loop;
      Isa.Builder.ins b (Isa.Instr.Out (reg 2));
      Isa.Builder.ins b Isa.Instr.Halt);
  (Isa.Builder.build b, tcb)

let test_ra_region_registration () =
  let img, tcb = prog_tcb () in
  let native = Softcache.Runner.native img in
  Alcotest.(check bool) "native halts" true
    (native.outcome = Machine.Cpu.Halted);
  (* with the thread-system interface: correct under heavy paging *)
  let cfg = Softcache.Config.make ~tcache_bytes:640 () in
  let ctrl = Softcache.Controller.create cfg img in
  Softcache.Controller.register_ra_region ctrl ~lo:tcb ~hi:(tcb + 4);
  let outcome = Softcache.Controller.run ~fuel:10_000_000 ctrl in
  Alcotest.(check bool) "halts with registration" true
    (outcome = Machine.Cpu.Halted);
  Alcotest.(check (list int)) "outputs with registration" native.outputs
    (Machine.Cpu.outputs ctrl.cpu);
  Alcotest.(check bool) "paging actually happened" true
    (ctrl.stats.evicted_blocks > 0);
  (* without registration the program violates the programming model:
     the run must NOT be silently trusted — it either faults, diverges
     or mismatches (any of these demonstrates why the interface
     exists). If it happens to survive, the tcache was not pressured
     enough and the test is vacuous, so flag that too. *)
  let ctrl2 = Softcache.Controller.create cfg img in
  let unregistered_broke =
    match Softcache.Controller.run ~fuel:10_000_000 ctrl2 with
    | Machine.Cpu.Halted ->
      Machine.Cpu.outputs ctrl2.cpu <> native.outputs
    | Machine.Cpu.Out_of_fuel -> true
    | exception Machine.Cpu.Fault _ -> true
    | exception Softcache.Chunker.Bad_address _ -> true
  in
  Alcotest.(check bool)
    "unregistered TCB storage misbehaves under paging" true
    unregistered_broke

let test_ra_region_validation () =
  let img, _ = prog_tcb () in
  let ctrl =
    Softcache.Controller.create (Softcache.Config.sparc_prototype ()) img
  in
  match Softcache.Controller.register_ra_region ctrl ~lo:0x101 ~hi:0x200 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "unaligned region should be rejected"

(* ------------------------------------------------------------------ *)
(* Debug views *)

let test_debug_views () =
  let img = prog_fib 10 in
  let ctrl =
    Softcache.Controller.create (Softcache.Config.sparc_prototype ()) img
  in
  let _ = Softcache.Controller.run ctrl in
  let dump = Softcache.Debug.dump_blocks ctrl in
  Alcotest.(check bool) "dump names fib" true
    (let n = String.length dump in
     let rec has i =
       i + 3 <= n && (String.sub dump i 3 = "fib" || has (i + 1))
     in
     has 0);
  (match Softcache.Debug.disasm_block ctrl img.entry with
  | Some listing ->
    Alcotest.(check bool) "entry block disassembles" true
      (String.length listing > 0)
  | None -> Alcotest.fail "entry block should be resident");
  Alcotest.(check bool) "summary renders" true
    (String.length (Softcache.Debug.summary ctrl) > 0);
  Alcotest.(check bool) "absent block" true
    (Softcache.Debug.disasm_block ctrl 0xDEAD00 = None)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "softcache"
    [
      ( "equivalence",
        [
          Alcotest.test_case "sum" `Quick test_equiv_sum;
          Alcotest.test_case "fib" `Quick test_equiv_fib;
          Alcotest.test_case "jumptable" `Quick test_equiv_jumptable;
          Alcotest.test_case "computed switch" `Quick test_equiv_switch;
          Alcotest.test_case "phases" `Quick test_equiv_phases;
          Alcotest.test_case "tiny caches" `Quick test_equiv_tiny_cache;
          qt test_random_fib_equiv;
        ] );
      ( "guarantees",
        [
          Alcotest.test_case "100% hit rate when fitting" `Quick
            test_hit_rate_guarantee;
          Alcotest.test_case "no evictions when fitting" `Quick
            test_no_evictions_when_fitting;
          Alcotest.test_case "paging when small" `Quick test_paging_when_small;
          Alcotest.test_case "slowdown reasonable" `Quick
            test_slowdown_reasonable;
          Alcotest.test_case "miss rate vs size" `Quick
            test_miss_rate_decreases_with_size;
        ] );
      ( "invalidation",
        [
          Alcotest.test_case "invalidate mid-run" `Quick test_invalidate_midrun;
          Alcotest.test_case "flush mid-run" `Quick test_flush_midrun;
          Alcotest.test_case "partial invalidate" `Quick test_partial_invalidate;
          Alcotest.test_case "periodic invalidation of registry workloads"
            `Quick test_periodic_invalidate_registry;
        ] );
      ( "pinning",
        [
          Alcotest.test_case "pin survives thrash" `Quick
            test_pin_survives_thrash;
          Alcotest.test_case "pin survives flush" `Quick
            test_pin_survives_flush;
          Alcotest.test_case "unpin allows eviction" `Quick
            test_unpin_allows_eviction;
          Alcotest.test_case "invalidate overrides pin" `Quick
            test_invalidate_overrides_pin;
          qt test_pin_equivalence_under_thrash;
          Alcotest.test_case "preload eliminates misses" `Quick
            test_preload_eliminates_misses;
          qt test_soak;
        ] );
      ( "thread-system interface",
        [
          Alcotest.test_case "registered TCB region" `Quick
            test_ra_region_registration;
          Alcotest.test_case "region validation" `Quick
            test_ra_region_validation;
        ] );
      ( "debug",
        [ Alcotest.test_case "views" `Quick test_debug_views ] );
      ( "accounting",
        [
          Alcotest.test_case "network" `Quick test_network_accounting;
          Alcotest.test_case "metadata" `Quick test_metadata_reported;
          Alcotest.test_case "chunk too large" `Quick test_chunk_too_large;
          Alcotest.test_case "stats consistency" `Quick test_stats_consistency;
          Alcotest.test_case "trap handler words per translation" `Quick
            test_trap_alloc_per_translation;
        ] );
    ]
