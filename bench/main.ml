(* Benchmark harness: regenerates every table and figure of the paper.

     dune exec bench/main.exe              -- run everything
     dune exec bench/main.exe -- fig5 fig7 -- run selected experiments

   Experiments: table1 fig5 fig6 fig7 fig8 fig9 tagoverhead netcost
   dcache power ablation micro. Absolute numbers come from the
   simulator's cost model; the claims reproduced are the paper's
   *shapes* (who wins, where the knees fall, which ratios hold). *)

let fmt_f = Printf.sprintf "%.3f"

(* ------------------------------------------------------------------ *)
(* Table 1: dynamically- and statically-linked text segment sizes *)

let table1 () =
  Report.section
    "Table 1: application dynamic vs static .text (paper: 21K/193K, 1K/139K, \
     23K/205K, 135K/590K; scaled ~1/8 here)";
  let t =
    Report.Table.create ~title:"text segment sizes"
      ~columns:
        [ "app"; "dynamic .text"; "static .text"; "dyn/static";
          "paper dyn/static" ]
  in
  let paper_ratio =
    [ ("compress95", 21. /. 193.); ("adpcm_encode", 1. /. 139.);
      ("hextobdd", 23. /. 205.); ("mpeg2enc", 135. /. 590.) ]
  in
  List.iter
    (fun (e : Workloads.Registry.entry) ->
      let img = e.build () in
      let prof, _ = Profiler.profile img in
      let dyn = Profiler.dynamic_text_bytes prof in
      let st = Isa.Image.static_text_bytes img in
      Report.Table.add_row t
        [
          e.name;
          Report.fmt_bytes dyn;
          Report.fmt_bytes st;
          fmt_f (float_of_int dyn /. float_of_int st);
          fmt_f (List.assoc e.name paper_ratio);
        ])
    Workloads.Registry.table1;
  Report.Table.print t

(* ------------------------------------------------------------------ *)
(* Figure 5: relative execution time of the software I-cache *)

let fig5 () =
  Report.section
    "Figure 5: relative execution time, 129.compress-like workload (paper: \
     ideal 1.00, 48KB 1.17, 24KB 1.19, 1KB >> 1)";
  let img = Workloads.Compress.image () in
  let native = Softcache.Runner.native img in
  Report.kv "ideal (native)" "1.000";
  List.iter
    (fun (label, bytes) ->
      let cfg = Softcache.Config.sparc_prototype ~tcache_bytes:bytes () in
      let cached, ctrl = Softcache.Runner.cached cfg img in
      assert (cached.outputs = native.outputs);
      Report.kv label
        (Printf.sprintf "%.3f  (%d translations, %d evicted blocks)"
           (Softcache.Runner.slowdown ~native ~cached)
           ctrl.stats.translations ctrl.stats.evicted_blocks))
    [
      ("48KB tcache (infinite)", 48 * 1024);
      ("24KB tcache", 24 * 1024);
      ("12KB tcache", 12 * 1024);
      ("1KB tcache (thrashes)", 1024);
    ]

(* ------------------------------------------------------------------ *)
(* Figures 6 and 7: miss rate vs cache size, hardware vs software *)

let sweep_sizes = [ 256; 512; 1024; 2048; 4096; 8192; 16384; 32768; 65536 ]

let fig6 () =
  Report.section
    "Figure 6: hardware I-cache miss rate vs size (direct-mapped, 16B \
     blocks); knees should sit at each program's working set";
  List.iter
    (fun (e : Workloads.Registry.entry) ->
      let img = e.build () in
      let caches =
        List.map (fun s -> (s, Hwcache.create ~size_bytes:s ())) sweep_sizes
      in
      let cpu = Machine.Cpu.of_image img in
      cpu.on_fetch <-
        Some
          (fun a -> List.iter (fun (_, c) -> ignore (Hwcache.access c a)) caches);
      let _ = Machine.Cpu.run cpu in
      let series =
        Report.Series.create
          ~title:(Printf.sprintf "%s (hardware)" e.name)
          ~xlabel:"cache KB" ~ylabel:"miss %"
      in
      List.iter
        (fun (s, c) ->
          Report.Series.add series
            (float_of_int s /. 1024.)
            (100. *. Hwcache.miss_rate c))
        caches;
      Report.Series.print series)
    Workloads.Registry.table1

let fig7 () =
  Report.section
    "Figure 7: software tcache miss rate vs size (miss rate = blocks \
     translated / instructions executed)";
  List.iter
    (fun (e : Workloads.Registry.entry) ->
      let img = e.build () in
      let series =
        Report.Series.create
          ~title:(Printf.sprintf "%s (software)" e.name)
          ~xlabel:"tcache KB" ~ylabel:"miss %"
      in
      List.iter
        (fun bytes ->
          let cfg = Softcache.Config.sparc_prototype ~tcache_bytes:bytes () in
          match Softcache.Runner.cached cfg img with
          | cached, ctrl ->
            Report.Series.add series
              (float_of_int bytes /. 1024.)
              (100.
              *. Softcache.Stats.miss_rate ctrl.stats ~retired:cached.retired)
          | exception Softcache.Controller.Chunk_too_large _ -> ())
        sweep_sizes;
      Report.Series.print series)
    Workloads.Registry.table1

(* ------------------------------------------------------------------ *)
(* Full associativity: the softcache's architectural argument *)

let associativity () =
  Report.section
    "Full associativity (\"the instruction cache is effectively fully \
     associative ... a module can be guaranteed free of conflict misses \
     provided the module fits\"): two hot procedures placed exactly one \
     cache-size apart, so they alias in a direct-mapped cache";
  let cache_size = 4096 in
  (* two ~64-instruction hot loops separated by cold padding so their
     addresses conflict in a direct-mapped cache of [cache_size] *)
  let img =
    let b = Isa.Builder.create "alias" in
    let r = Workloads.Gen.rng 0xA11A5 in
    let reg = Isa.Reg.r in
    let fa = Isa.Builder.new_label b in
    let fb = Isa.Builder.new_label b in
    let main = Isa.Builder.new_label b in
    Isa.Builder.entry b main;
    let hot name l =
      Isa.Builder.func b name l (fun () ->
          for k = 1 to 60 do
            Isa.Builder.ins b
              (Isa.Instr.Alui (Add, reg 2, reg 2, k land 7))
          done;
          Isa.Builder.ins b (Isa.Instr.Jr Isa.Reg.ra))
    in
    hot "mode_a" fa;
    Workloads.Gen.pad_cold_to b r ~prefix:"pad" ~target_bytes:(cache_size - 300);
    (* align mode_b to exactly one cache size after mode_a so both map
       to the same direct-mapped sets *)
    while Isa.Builder.code_size_bytes b < cache_size do
      Isa.Builder.ins b Isa.Instr.Nop
    done;
    hot "mode_b" fb;
    Isa.Builder.func b "main" main (fun () ->
        Isa.Builder.li b (reg 16) 4000;
        let loop = Isa.Builder.label b in
        Isa.Builder.jal b fa;
        Isa.Builder.jal b fb;
        Isa.Builder.ins b (Isa.Instr.Alui (Add, reg 16, reg 16, -1));
        Isa.Builder.br b Ne (reg 16) Isa.Reg.zero loop;
        Isa.Builder.ins b (Isa.Instr.Out (reg 2));
        Isa.Builder.ins b Isa.Instr.Halt);
    Isa.Builder.build b
  in
  let dm = Hwcache.create ~assoc:1 ~size_bytes:cache_size () in
  let fa_c = Hwcache.create ~assoc:0 ~size_bytes:cache_size () in
  let cpu = Machine.Cpu.of_image img in
  cpu.on_fetch <-
    Some
      (fun a ->
        ignore (Hwcache.access dm a);
        ignore (Hwcache.access fa_c a));
  let _ = Machine.Cpu.run cpu in
  let sw, swslow =
    let native = Softcache.Runner.native img in
    let cfg = Softcache.Config.sparc_prototype ~tcache_bytes:cache_size () in
    let cached, ctrl = Softcache.Runner.cached cfg img in
    ( Softcache.Stats.miss_rate ctrl.stats ~retired:cached.retired,
      Softcache.Runner.slowdown ~native ~cached )
  in
  let pct x = Printf.sprintf "%.3f%%" (100. *. x) in
  Report.kv "HW direct-mapped miss rate"
    (pct (Hwcache.miss_rate dm) ^ "  (the two modes evict each other)");
  Report.kv "HW fully associative" (pct (Hwcache.miss_rate fa_c));
  Report.kv "softcache miss rate"
    (Printf.sprintf "%s  (slowdown %.3f; both modes coexist regardless of \
                     their addresses)"
       (pct sw) swslow)

(* ------------------------------------------------------------------ *)
(* Figure 8: paging vs CC memory size over time *)

let fig8 () =
  Report.section
    "Figure 8: evictions over time vs CC memory (adpcm encode, procedure \
     chunks; paper: 800B pages in steady state, 900B only at start + end \
     blip, 1KB less still)";
  let img = Workloads.Adpcm.encode_image () in
  List.iter
    (fun bytes ->
      let cfg =
        Softcache.Config.make ~tcache_bytes:bytes
          ~chunking:Softcache.Config.Procedure ()
      in
      let cached, ctrl = Softcache.Runner.cached cfg img in
      let total_cycles = max 1 cached.cycles in
      let buckets = 10 in
      let counts = Array.make buckets 0 in
      List.iter
        (fun (cycle, n) ->
          let i = min (buckets - 1) (cycle * buckets / total_cycles) in
          counts.(i) <- counts.(i) + n)
        (Softcache.Stats.eviction_series ctrl.stats);
      let series =
        Report.Series.create
          ~title:(Printf.sprintf "CC memory = %d B" bytes)
          ~xlabel:"run decile" ~ylabel:"evictions"
      in
      Array.iteri
        (fun i n -> Report.Series.add series (float_of_int (i + 1)) (float_of_int n))
        counts;
      Report.Series.print series)
    [ 800; 900; 1024 ]

(* ------------------------------------------------------------------ *)
(* Figure 9: normalised dynamic footprint of the hot code *)

let fig9 () =
  Report.section
    "Figure 9: hot code (90% of samples) / application text (paper: 0.09, \
     0.07, 0.09, 0.13 — a 7-14x reduction)";
  let paper =
    [ ("adpcm_encode", 0.09); ("adpcm_decode", 0.07); ("gzip", 0.09);
      ("cjpeg", 0.13) ]
  in
  let t =
    Report.Table.create ~title:"normalised dynamic footprint"
      ~columns:[ "app"; "hot code"; "app text"; "measured"; "paper" ]
  in
  List.iter
    (fun (e : Workloads.Registry.entry) ->
      let img = e.build () in
      let prof, _ = Profiler.profile img in
      let hot = Profiler.hot_bytes prof in
      let app =
        List.fold_left
          (fun a (s : Isa.Image.symbol) ->
            let libc =
              String.length s.sym_name >= 5
              && String.sub s.sym_name 0 5 = "libc_"
            in
            if libc then a else a + s.sym_size)
          0 img.symbols
      in
      Report.Table.add_row t
        [
          e.name;
          Report.fmt_bytes hot;
          Report.fmt_bytes app;
          fmt_f (float_of_int hot /. float_of_int app);
          fmt_f (List.assoc e.name paper);
        ])
    Workloads.Registry.fig9;
  Report.Table.print t

(* ------------------------------------------------------------------ *)
(* Hardware tag overhead: the "11-18% extra" claim *)

let tagoverhead () =
  Report.section
    "Hardware tag-array overhead (paper: \"tags for 32-bit addresses would \
     add an extra 11-18%\", direct-mapped 16B blocks)";
  let t =
    Report.Table.create ~title:"tag overhead"
      ~columns:[ "cache size"; "tag+valid bits/block"; "overhead" ]
  in
  List.iter
    (fun size ->
      let c = Hwcache.create ~size_bytes:size () in
      let ov = Hwcache.tag_overhead c in
      Report.Table.add_row t
        [
          Report.fmt_bytes size;
          string_of_int (int_of_float (ov *. 128.));
          Printf.sprintf "%.1f%%" (100. *. ov);
        ])
    [ 1024; 4096; 16384; 65536; 262144 ];
  Report.Table.print t;
  Report.kv "softcache equivalent"
    "no tag array; metadata reported per run via Controller.metadata_bytes"

(* ------------------------------------------------------------------ *)
(* Space overhead: softcache metadata vs the hardware tag array *)

let spaceoverhead () =
  Report.section
    "Space overhead (abstract: \"a comparable hardware cache would have      space overhead of 12-18% for its tag array\"; the softcache's      overheads are \"an adjustable tradeoff\")";
  let img = Workloads.Compress.image () in
  let t =
    Report.Table.create ~title:"softcache space overheads (compress95)"
      ~columns:
        [ "tcache"; "code expansion"; "map+stub metadata"; "total";
          "hw tag array" ]
  in
  List.iter
    (fun size ->
      let cfg = Softcache.Config.sparc_prototype ~tcache_bytes:size () in
      let _, ctrl = Softcache.Runner.cached cfg img in
      let s = ctrl.stats in
      let expansion =
        float_of_int s.overhead_words /. float_of_int s.translated_words
      in
      let metadata =
        float_of_int (Softcache.Controller.metadata_bytes ctrl)
        /. float_of_int size
      in
      let hw = Hwcache.tag_overhead (Hwcache.create ~size_bytes:size ()) in
      let pct x = Printf.sprintf "%.1f%%" (100. *. x) in
      Report.Table.add_row t
        [
          Report.fmt_bytes size;
          pct expansion;
          pct metadata;
          pct (expansion +. metadata);
          pct hw;
        ])
    [ 4096; 8192; 16384; 32768 ];
  Report.Table.print t;
  Report.kv "note"
    "code expansion = pads/islands/fall slots per translated word;      metadata = tcache map + stub table relative to tcache size"

(* ------------------------------------------------------------------ *)
(* Network overhead: the 60-bytes-per-chunk measurement *)

let netcost () =
  Report.section
    "Network overhead per chunk (paper: \"60 application bytes ... exchanged \
     between CC and MC\" per downloaded chunk)";
  let img = Workloads.Adpcm.encode_image () in
  let net = Netmodel.ethernet_10mbps () in
  let cfg =
    Softcache.Config.make ~tcache_bytes:4096
      ~chunking:Softcache.Config.Procedure ~net ()
  in
  let _, ctrl = Softcache.Runner.cached cfg img in
  let msgs = Netmodel.messages net in
  Report.kv "chunks downloaded" (string_of_int msgs);
  Report.kv "application payload" (Report.fmt_bytes (Netmodel.payload_bytes net));
  Report.kv "protocol overhead"
    (Printf.sprintf "%d B (= %d B/chunk)"
       (msgs * Netmodel.overhead_bytes_per_message net)
       (Netmodel.overhead_bytes_per_message net));
  Report.kv "total on the wire" (Report.fmt_bytes (Netmodel.total_bytes net));
  ignore ctrl

(* ------------------------------------------------------------------ *)
(* Section 3 / Figure 10: the software data cache *)

let dcache () =
  Report.section
    "Section 3 design: software D-cache (stack cache + fully associative \
     predicted dcache; Figure 10 access sequences)";
  let cfg = Dcache.Config.make () in
  Report.kv "specialised constant access"
    (Printf.sprintf "%d cycles (rewritten direct load)"
       Dcache.Config.const_cycles);
  Report.kv "predicted hit"
    (Printf.sprintf "%d cycles (Fig. 10 check sequence)"
       Dcache.Config.predicted_hit_cycles);
  Report.kv "guaranteed (slow hit)"
    (Printf.sprintf "%d cycles (binary search of the sorted dcache)"
       (Dcache.Sim.guaranteed_latency_cycles cfg));
  let t =
    Report.Table.create ~title:"per-workload behaviour"
      ~columns:
        [ "app"; "prediction"; "const"; "fast"; "slow"; "miss";
          "tag checks avoided"; "overhead"; "hw D$ miss" ]
  in
  List.iter
    (fun (e : Workloads.Registry.entry) ->
      let img = e.build () in
      (* hardware data-cache baseline on the same access stream *)
      let hw = Hwcache.create ~assoc:2 ~block_bytes:32 ~size_bytes:8192 () in
      let native =
        let cpu = Machine.Cpu.of_image img in
        let feed a = ignore (Hwcache.access hw a) in
        cpu.on_load <- Some feed;
        cpu.on_store <- Some feed;
        let outcome = Machine.Cpu.run cpu in
        {
          Softcache.Runner.outcome;
          outputs = Machine.Cpu.outputs cpu;
          cycles = cpu.cycles;
          retired = cpu.retired;
        }
      in
      List.iter
        (fun (pname, pred) ->
          let cfg = Dcache.Config.make ~prediction:pred () in
          let outcome, cpu, st = Dcache.Sim.run cfg img in
          assert (outcome = Machine.Cpu.Halted);
          let pct n =
            if st.data_accesses = 0 then "-"
            else
              Printf.sprintf "%.1f%%"
                (100. *. float_of_int n /. float_of_int st.data_accesses)
          in
          Report.Table.add_row t
            [
              e.name;
              pname;
              pct st.const_hits;
              pct (st.fast_hits + st.second_chance_hits);
              pct st.slow_hits;
              pct st.misses;
              Printf.sprintf "%.1f%%" (100. *. Dcache.Sim.tag_checks_avoided st);
              Printf.sprintf "+%.1f%%"
                (100.
                *. float_of_int (cpu.cycles - native.cycles)
                /. float_of_int native.cycles);
              Printf.sprintf "%.2f%%" (100. *. Hwcache.miss_rate hw);
            ])
        [ ("same-idx", Dcache.Config.Same_index);
          ("2nd-chance", Dcache.Config.Second_chance) ])
    [ List.nth Workloads.Registry.all 0 (* compress *);
      List.nth Workloads.Registry.all 3 (* hextobdd *);
      List.nth Workloads.Registry.all 5 (* gzip *) ];
  Report.Table.print t

(* ------------------------------------------------------------------ *)
(* Section 4: power *)

let power () =
  Report.section
    "Section 4: power (StrongARM: I$ 27% + D$ 16% + WB 2% = 45% of chip \
     power; bank power-down over deduced working sets)";
  let banks = Powermodel.Banks.make ~bank_bytes:4096 ~banks:8 () in
  let t =
    Report.Table.create ~title:"bank power-down (32KB in 8 x 4KB banks)"
      ~columns:[ "app"; "working set"; "active banks"; "chip power saved" ]
  in
  List.iter
    (fun (e : Workloads.Registry.entry) ->
      let img = e.build () in
      let prof, _ = Profiler.profile img in
      let ws = Profiler.hot_bytes prof * 5 / 4 in
      Report.Table.add_row t
        [
          e.name;
          Report.fmt_bytes ws;
          string_of_int (Powermodel.Banks.active_banks banks ~working_set:ws);
          Printf.sprintf "%.1f%%"
            (100. *. Powermodel.Banks.chip_saving banks ~working_set:ws);
        ])
    Workloads.Registry.all;
  Report.Table.print t;
  (* net memory-energy effect of dropping the tag array *)
  let img = Workloads.Compress.image () in
  let native = Softcache.Runner.native img in
  let cached, _ =
    Softcache.Runner.cached (Softcache.Config.sparc_prototype ()) img
  in
  let overhead = cached.retired - native.retired in
  List.iter
    (fun size ->
      let te =
        Powermodel.Tag_energy.of_cache ~size_bytes:size ~block_bytes:16
          ~assoc:1
      in
      Report.kv
        (Printf.sprintf "tag energy saved (%s I-cache)" (Report.fmt_bytes size))
        (Printf.sprintf "%.1f%%"
           (100.
           *. Powermodel.Tag_energy.sw_saving te ~accesses:native.retired
                ~overhead_instrs:overhead)))
    [ 8192; 32768 ]

(* ------------------------------------------------------------------ *)
(* Ablations: the design choices the two prototypes differ on *)

let ablation () =
  Report.section
    "Ablation: chunk granularity x eviction policy (4KB tcache, forcing \
     paging)";
  let t =
    Report.Table.create ~title:"chunking x eviction"
      ~columns:
        [ "app"; "config"; "slowdown"; "translations"; "evicted"; "flushes";
          "net bytes" ]
  in
  List.iter
    (fun (e : Workloads.Registry.entry) ->
      let img = e.build () in
      let native = Softcache.Runner.native img in
      List.iter
        (fun (cname, chunking, eviction) ->
          let net = Netmodel.create ~overhead_bytes:60 () in
          let cfg =
            Softcache.Config.make ~tcache_bytes:4096 ~chunking ~eviction ~net
              ()
          in
          match Softcache.Runner.cached cfg img with
          | cached, ctrl ->
            assert (cached.outputs = native.outputs);
            Report.Table.add_row t
              [
                e.name;
                cname;
                fmt_f (Softcache.Runner.slowdown ~native ~cached);
                string_of_int ctrl.stats.translations;
                string_of_int ctrl.stats.evicted_blocks;
                string_of_int ctrl.stats.flushes;
                Report.fmt_bytes (Netmodel.total_bytes net);
              ]
          | exception Softcache.Controller.Chunk_too_large _ ->
            Report.Table.add_row t
              [ e.name; cname; "chunk too large"; "-"; "-"; "-"; "-" ])
        [
          ("bb/fifo", Softcache.Config.Basic_block, Softcache.Config.Fifo);
          ("bb/flush", Softcache.Config.Basic_block, Softcache.Config.Flush_all);
          ("proc/fifo", Softcache.Config.Procedure, Softcache.Config.Fifo);
          ("proc/flush", Softcache.Config.Procedure, Softcache.Config.Flush_all);
        ])
    [ List.hd Workloads.Registry.all; List.nth Workloads.Registry.all 3 ];
  Report.Table.print t

(* ------------------------------------------------------------------ *)
(* The complete Section 3 memory system: tcache + scache + dcache *)

let fullsystem () =
  Report.section
    "Full system (Section 3.1): local memory statically divided into      tcache + scache + dcache — instruction and data caching together";
  let t =
    Report.Table.create ~title:"whole-hierarchy overhead"
      ~columns:
        [ "app"; "local memory"; "I-only slowdown"; "I+D slowdown";
          "D tag checks avoided" ]
  in
  List.iter
    (fun (e : Workloads.Registry.entry) ->
      let img = e.build () in
      let native = Softcache.Runner.native img in
      let icfg = Softcache.Config.make ~tcache_bytes:(16 * 1024) () in
      let dcfg = Dcache.Config.make () in
      let icached, _ = Softcache.Runner.cached icfg img in
      let full, _ = Dcache.Fullsystem.run icfg dcfg img in
      assert (full.outputs = native.outputs);
      Report.Table.add_row t
        [
          e.name;
          Report.fmt_bytes (Dcache.Fullsystem.local_memory_bytes icfg dcfg);
          fmt_f (Softcache.Runner.slowdown ~native ~cached:icached);
          fmt_f (float_of_int full.cycles /. float_of_int native.cycles);
          Printf.sprintf "%.1f%%"
            (100. *. Dcache.Sim.tag_checks_avoided full.dcache_stats);
        ])
    [ List.hd Workloads.Registry.all (* compress *);
      List.nth Workloads.Registry.all 1 (* adpcm enc *);
      List.nth Workloads.Registry.all 7 (* sensor *) ];
  Report.Table.print t

(* ------------------------------------------------------------------ *)
(* Translate-time binding ablation *)

let bindablation () =
  Report.section
    "Ablation: translate-time direct binding (MC binds resident targets      while rewriting) vs trap-first patching";
  let t =
    Report.Table.create ~title:"bind at translate"
      ~columns:[ "app"; "binding"; "slowdown"; "patches"; "cycles" ]
  in
  List.iter
    (fun (e : Workloads.Registry.entry) ->
      let img = e.build () in
      let native = Softcache.Runner.native img in
      List.iter
        (fun (label, bind) ->
          let cfg =
            Softcache.Config.make ~tcache_bytes:(16 * 1024)
              ~bind_at_translate:bind ()
          in
          let cached, ctrl = Softcache.Runner.cached cfg img in
          assert (cached.outputs = native.outputs);
          Report.Table.add_row t
            [
              e.name;
              label;
              fmt_f (Softcache.Runner.slowdown ~native ~cached);
              string_of_int ctrl.stats.patches;
              string_of_int cached.cycles;
            ])
        [ ("at translate", true); ("trap first", false) ])
    [ List.hd Workloads.Registry.all; List.nth Workloads.Registry.all 1 ];
  Report.Table.print t

(* ------------------------------------------------------------------ *)
(* Network latency sweep: when is remote paging viable? *)

let netsweep () =
  Report.section
    "Network latency sweep (adpcm encode, procedure chunks): remote paging      is viable when the working set fits; thrashing multiplies every RTT";
  let img = Workloads.Adpcm.encode_image () in
  let native = Softcache.Runner.native img in
  let t =
    Report.Table.create ~title:"slowdown vs round-trip latency"
      ~columns:[ "RTT (cycles)"; "1KB CC (fits)"; "800B CC (pages)" ]
  in
  List.iter
    (fun rtt ->
      let run bytes =
        let net =
          Netmodel.create ~latency_cycles:rtt ~cycles_per_byte:160
            ~overhead_bytes:60 ()
        in
        let cfg =
          Softcache.Config.make ~tcache_bytes:bytes
            ~chunking:Softcache.Config.Procedure ~net ()
        in
        let cached, _ = Softcache.Runner.cached cfg img in
        assert (cached.outputs = native.outputs);
        Softcache.Runner.slowdown ~native ~cached
      in
      Report.Table.add_row t
        [
          string_of_int rtt; fmt_f (run 1024); fmt_f (run 800);
        ])
    [ 0; 1_000; 10_000; 100_000; 1_000_000 ];
  Report.Table.print t

let faultsweep () =
  Report.section
    "Fault sweep (adpcm encode, procedure chunks, 10 Mbps ethernet): how \
     much does a lossy interconnect cost, and when does paging collapse";
  let img = Workloads.Adpcm.encode_image () in
  let native = Softcache.Runner.native img in
  let t =
    Report.Table.create
      ~title:"recovery under injected faults (seed 42, CRC32 + retry/backoff)"
      ~columns:
        [ "drop"; "corrupt"; "status"; "slowdown"; "retries"; "timeouts";
          "crc-fail"; "recovered" ]
  in
  List.iter
    (fun (drop, corrupt) ->
      let faults = Netmodel.Faults.make ~seed:42 ~drop ~corrupt () in
      let net = Netmodel.ethernet_10mbps ~faults () in
      let cfg =
        Softcache.Config.make ~tcache_bytes:1024
          ~chunking:Softcache.Config.Procedure ~net ()
      in
      let cached, ctrl = Softcache.Runner.cached_robust cfg img in
      let status =
        match cached.Softcache.Runner.status with
        | Softcache.Runner.Finished Machine.Cpu.Halted ->
          if cached.outputs = native.outputs then "ok" else "MISMATCH"
        | Softcache.Runner.Finished Machine.Cpu.Out_of_fuel -> "fuel"
        | Softcache.Runner.Unavailable _ -> "unavailable"
      in
      Report.Table.add_row t
        [
          Printf.sprintf "%.2f" drop;
          Printf.sprintf "%.2f" corrupt;
          status;
          fmt_f (float_of_int cached.cycles /. float_of_int native.cycles);
          string_of_int ctrl.stats.net_retries;
          string_of_int ctrl.stats.net_timeouts;
          string_of_int ctrl.stats.crc_failures;
          string_of_int ctrl.stats.recoveries;
        ])
    [
      (0.0, 0.0); (0.01, 0.0); (0.05, 0.0); (0.2, 0.0); (0.0, 0.01);
      (0.0, 0.05); (0.0, 0.2); (0.1, 0.1); (0.3, 0.3); (0.6, 0.6);
    ];
  Report.Table.print t;
  Report.kv "note"
    "every surviving run is output-equivalent to native; 'unavailable' \
     means the retry budget was exhausted and the run stopped cleanly"

let failures = ref 0

(* ------------------------------------------------------------------ *)
(* Shared harness plumbing. Every sweep used to hand-roll these three
   things — registry iteration, best-of-N wall timing, and the
   BENCH_*.json emitter — and each new sweep copied the previous one's
   version. One copy each, used by prefetchsweep, micro_engines,
   tracesmoke and policysweep. *)

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      Report.kv "FAIL" s)
    fmt

(* Map over the workload registry, building each image once. *)
let over_registry f =
  List.map
    (fun (e : Workloads.Registry.entry) -> f e (e.build ()))
    Workloads.Registry.all

(* Host wall time of [run (mk ())]: one warmup, then best of [n] —
   construction stays outside the timed region, and best-of damps
   scheduler noise on shared CI runners. *)
let best_of ?(n = 3) mk run =
  ignore (run (mk ()));
  let best = ref infinity in
  for _ = 1 to n do
    let x = mk () in
    let t0 = Unix.gettimeofday () in
    ignore (run x);
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt
  done;
  !best

(* Render an engine-lockstep verdict as a gate cell, counting a
   failure for anything that is not clean or out-of-fuel-while-equal. *)
let lockstep_cell ~name verdict =
  match verdict with
  | Check.Lockstep.Engines_equivalent { steps } ->
    Printf.sprintf "ok (%d steps)" steps
  | Check.Lockstep.Engines_out_of_fuel { steps } ->
    Printf.sprintf "ok (fuel, %d steps)" steps
  | v ->
    let s = Format.asprintf "%a" Check.Lockstep.pp_engine_verdict v in
    fail "%s lockstep: %s" name s;
    s

(* Emit a BENCH_*.json artifact. [fields] are (key, preformatted JSON
   value) pairs appended after the "benchmark" tag. *)
let emit_json ~file ~benchmark fields =
  let oc = open_out file in
  Printf.fprintf oc "{\n  \"benchmark\": %S%s\n}\n" benchmark
    (String.concat ""
       (List.map (fun (k, v) -> Printf.sprintf ",\n  %S: %s" k v) fields));
  close_out oc;
  Report.kv "written" file

let json_array rows =
  Printf.sprintf "[\n%s\n  ]" (String.concat ",\n" rows)

(* ------------------------------------------------------------------ *)
(* Prefetch/batching sweep: link bandwidth x prefetch degree
   sensitivity, plus the CI gate — on 10 Mbps ethernet, degree-2
   profile-guided prefetch must beat prefetch-off on both message count
   and total cycles for every registry workload, with the on/off
   lockstep confirming prefetching is architecturally invisible.
   Emits BENCH_prefetch.json. *)

let prefetchsweep () =
  Report.section
    "Prefetch sweep: batched profile-guided chunk prefetch on the MC-CC \
     link (bandwidth x degree sensitivity; gate: on 10 Mbps ethernet \
     degree 2 must beat degree 0 for every workload)";
  let tcache = 48 * 1024 in
  let ranker_of img =
    let prof, _ = Profiler.profile img in
    Some (fun ~lo ~hi -> Profiler.samples_in prof ~lo ~hi)
  in
  let run ~ranker ~cycles_per_byte ~degree img =
    let net =
      Netmodel.create ~latency_cycles:100_000 ~cycles_per_byte
        ~overhead_bytes:60 ()
    in
    let cfg =
      Softcache.Config.make ~tcache_bytes:tcache ~net ~prefetch_degree:degree
        ()
    in
    let prepare (ctrl : Softcache.Controller.t) =
      ctrl.prefetch_ranker <- ranker
    in
    let cached, ctrl = Softcache.Runner.cached_robust ~prepare cfg img in
    (cached, ctrl, net)
  in
  (* bandwidth x degree sensitivity on one paging-heavy workload *)
  let degrees = [ 0; 1; 2; 4; 8 ] in
  let links = [ ("1 Mbps", 1600); ("10 Mbps", 160); ("100 Mbps", 16) ] in
  let sweep_img = Workloads.Adpcm.encode_image () in
  let sweep_ranker = ranker_of sweep_img in
  let st =
    Report.Table.create ~title:"adpcm encode: cycles/messages per link x degree"
      ~columns:
        [ "link"; "degree"; "cycles"; "messages"; "wire bytes"; "prefetch" ]
  in
  let sweep_rows =
    List.concat_map
      (fun (lname, cpb) ->
        List.map
          (fun d ->
            let cached, ctrl, net =
              run ~ranker:sweep_ranker ~cycles_per_byte:cpb ~degree:d
                sweep_img
            in
            let s = ctrl.Softcache.Controller.stats in
            Report.Table.add_row st
              [
                lname;
                string_of_int d;
                string_of_int cached.Softcache.Runner.cycles;
                string_of_int (Netmodel.messages net);
                string_of_int (Netmodel.total_bytes net);
                Printf.sprintf "%d issued / %d installed / %d wasted"
                  s.prefetch_issued s.prefetch_installs s.prefetch_wasted;
              ];
            (lname, cpb, d, cached.Softcache.Runner.cycles,
             Netmodel.messages net))
          degrees)
      links
  in
  Report.Table.print st;
  (* the gate: every registry workload, ethernet, degree 2 vs 0 *)
  let gt =
    Report.Table.create
      ~title:"gate: 10 Mbps ethernet, degree 2 vs prefetch off"
      ~columns:
        [ "app"; "cycles off"; "cycles on"; "ratio"; "msgs off"; "msgs on";
          "lockstep" ]
  in
  let gate_rows =
    over_registry (fun e img ->
        let native = Softcache.Runner.native img in
        let ranker = ranker_of img in
        let off, _, net_off = run ~ranker ~cycles_per_byte:160 ~degree:0 img in
        let on, _, net_on = run ~ranker ~cycles_per_byte:160 ~degree:2 img in
        let ok_outputs =
          off.Softcache.Runner.outputs = native.outputs
          && on.Softcache.Runner.outputs = native.outputs
        in
        if not ok_outputs then fail "%s: outputs diverge from native" e.name;
        let m_off = Netmodel.messages net_off in
        let m_on = Netmodel.messages net_on in
        if m_on >= m_off then
          fail "%s: prefetch does not reduce messages (%d -> %d)" e.name
            m_off m_on;
        if on.cycles >= off.cycles then
          fail "%s: prefetch regresses cycles (%d -> %d)" e.name off.cycles
            on.cycles;
        let mk_cfg () =
          Softcache.Config.make ~tcache_bytes:tcache
            ~net:(Netmodel.ethernet_10mbps ()) ~prefetch_degree:2 ()
        in
        let before = !failures in
        let lockstep_str =
          lockstep_cell ~name:e.name
            (Check.Lockstep.prefetch ~fuel:150_000 ~audit:true mk_cfg img)
        in
        Report.Table.add_row gt
          [
            e.name;
            string_of_int off.cycles;
            string_of_int on.cycles;
            fmt_f (float_of_int on.cycles /. float_of_int off.cycles);
            string_of_int m_off;
            string_of_int m_on;
            lockstep_str;
          ];
        (e.name, off.cycles, on.cycles, m_off, m_on, !failures = before))
  in
  Report.Table.print gt;
  emit_json ~file:"BENCH_prefetch.json" ~benchmark:"prefetchsweep"
    [
      ("tcache_bytes", string_of_int tcache);
      ( "workloads",
        json_array
          (List.map
             (fun (n, c0, c2, m0, m2, ls) ->
               Printf.sprintf
                 "    { \"name\": %S, \"cycles_off\": %d, \"cycles_on\": %d, \
                  \"messages_off\": %d, \"messages_on\": %d, \
                  \"cycle_ratio\": %.4f, \"lockstep_ok\": %b }"
                 n c0 c2 m0 m2
                 (float_of_int c2 /. float_of_int c0)
                 ls)
             gate_rows) );
      ( "sweep",
        json_array
          (List.map
             (fun (l, cpb, d, cyc, msgs) ->
               Printf.sprintf
                 "    { \"link\": %S, \"cycles_per_byte\": %d, \"degree\": \
                  %d, \"cycles\": %d, \"messages\": %d }"
                 l cpb d cyc msgs)
             sweep_rows) );
      ("gate_failures", string_of_int !failures);
    ]

(* ------------------------------------------------------------------ *)
(* Decoded vs interpretive dispatch: host wall time of the two CPU
   engines over the full workload registry, emitted as
   BENCH_micro.json so CI can gate on the speedup. *)

let micro_engines () =
  Report.section
    "Dispatch engines (host wall time): predecoded fetch vs per-fetch \
     interpretive decode";
  let t =
    Report.Table.create ~title:"native run, per engine"
      ~columns:[ "app"; "interpretive (ms)"; "decoded (ms)"; "speedup" ]
  in
  let rows =
    over_registry (fun e img ->
        let mk engine () =
          Machine.Cpu.of_image ~engine ~mem_bytes:(2 * 1024 * 1024) img
        in
        let ti = best_of (mk Machine.Cpu.Interpretive) Machine.Cpu.run in
        let td = best_of (mk Machine.Cpu.Decoded) Machine.Cpu.run in
        let sp = ti /. td in
        Report.Table.add_row t
          [
            e.name;
            Printf.sprintf "%.3f" (1e3 *. ti);
            Printf.sprintf "%.3f" (1e3 *. td);
            fmt_f sp;
          ];
        (e.name, ti, td, sp))
  in
  Report.Table.print t;
  let gm = Report.geomean (List.map (fun (_, _, _, s) -> s) rows) in
  Report.kv "geomean speedup" (fmt_f gm);
  emit_json ~file:"BENCH_micro.json" ~benchmark:"micro_engines"
    [
      ( "workloads",
        json_array
          (List.map
             (fun (n, ti, td, s) ->
               Printf.sprintf
                 "    { \"name\": %S, \"interpretive_s\": %.6f, \
                  \"decoded_s\": %.6f, \"speedup\": %.4f }"
                 n ti td s)
             rows) );
      ("geomean_speedup", Printf.sprintf "%.4f" gm);
    ];
  if gm <= 1.0 then fail "decoded dispatch is not faster than interpretive"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the simulator's hot paths *)

let micro () =
  Report.section "Micro-benchmarks (host wall time of simulator hot paths)";
  let open Bechamel in
  let sum_img =
    let b = Isa.Builder.create "bench_loop" in
    let r1 = Isa.Reg.r 1 and r2 = Isa.Reg.r 2 in
    Isa.Builder.li b r1 1000;
    Isa.Builder.li b r2 0;
    let top = Isa.Builder.label b in
    Isa.Builder.ins b (Isa.Instr.Alu (Add, r2, r2, r1));
    Isa.Builder.ins b (Isa.Instr.Alui (Add, r1, r1, -1));
    Isa.Builder.br b Ne r1 Isa.Reg.zero top;
    Isa.Builder.ins b Isa.Instr.Halt;
    Isa.Builder.build b
  in
  let word =
    Isa.Encode.encode (Isa.Instr.Alui (Add, Isa.Reg.r 1, Isa.Reg.r 2, 42))
  in
  let hw = Hwcache.create ~size_bytes:8192 () in
  let assoc = Dcache.Assoc.create ~blocks:256 in
  for i = 0 to 255 do
    ignore (Dcache.Assoc.insert assoc ~tag:(i * 7))
  done;
  let counter = ref 0 in
  let tests =
    Test.make_grouped ~name:"softcache"
      [
        Test.make ~name:"encode+decode instruction"
          (Staged.stage (fun () -> Isa.Encode.decode word));
        Test.make ~name:"interpret 3k-instr loop"
          (Staged.stage (fun () ->
               let cpu = Machine.Cpu.of_image ~mem_bytes:(2 * 1024 * 1024) sum_img in
               Machine.Cpu.run cpu));
        Test.make ~name:"hwcache access"
          (Staged.stage (fun () ->
               incr counter;
               Hwcache.access hw (!counter * 16 land 0xFFFF)));
        Test.make ~name:"dcache assoc lookup"
          (Staged.stage (fun () ->
               incr counter;
               Dcache.Assoc.lookup assoc ~pred:0 ~tag:(!counter mod 256 * 7)));
        Test.make ~name:"create controller + translate entry"
          (Staged.stage (fun () ->
               let ctrl =
                 Softcache.Controller.create
                   (Softcache.Config.make ~tcache_bytes:2048 ())
                   sum_img
               in
               Softcache.Controller.start ctrl));
      ]
  in
  let instances = Bechamel.Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~quota:(Time.second 0.25) ~stabilize:false () in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols (List.hd instances) raw in
  let rows = Hashtbl.fold (fun name res acc -> (name, res) :: acc) results [] in
  List.iter
    (fun (name, res) ->
      match Analyze.OLS.estimates res with
      | Some [ ns ] -> Report.kv name (Printf.sprintf "%.1f ns/run" ns)
      | Some _ | None -> Report.kv name "n/a")
    (List.sort compare rows);
  micro_engines ()

(* ------------------------------------------------------------------ *)
(* Traced smoke run: the CI gate for the tracing subsystem. Every
   registry workload runs once with a tracer attached; the JSONL
   rendering is validated line by line against the event schema, the
   Chrome rendering as well-formed JSON with nondecreasing timestamps
   and matched async residency spans, the attribution ledger must
   conserve exactly against the cycle counter, and the trace-on/off
   lockstep confirms tracing is architecturally invisible. Exports
   BENCH_trace.jsonl and BENCH_trace_chrome.json and re-validates them
   from disk. *)

let tracesmoke () =
  Report.section
    "Trace smoke: traced runs validated per exporter (gate: schema-valid \
     exports, exact cycle attribution, zero perturbation)";
  let mk_cfg () =
    Softcache.Config.make ~tcache_bytes:(2 * 1024)
      ~net:(Netmodel.ethernet_10mbps ()) ()
  in
  let t =
    Report.Table.create ~title:"traced runs (2 KB tcache, 10 Mbps ethernet)"
      ~columns:
        [ "app"; "cycles"; "events"; "dropped"; "jsonl"; "chrome"; "lockstep" ]
  in
  let artifact = ref None in
  let (_ : unit list) =
    over_registry (fun e img ->
        let ctrl = Softcache.Controller.create (mk_cfg ()) img in
        let tr = Trace.create () in
        Softcache.Controller.attach_tracer ctrl tr;
        let outcome = Softcache.Controller.run ctrl in
        if outcome <> Machine.Cpu.Halted then fail "%s: did not halt" e.name;
        if !artifact = None then artifact := Some tr;
        if not (Trace.conserved tr ~total:ctrl.cpu.cycles) then
          fail "%s: attribution does not conserve (sum %d vs %d)" e.name
            (Trace.summary tr).Trace.s_total ctrl.cpu.cycles;
        let jsonl_str =
          match Trace.Schema.validate_jsonl (Trace.to_jsonl tr) with
          | Ok n -> Printf.sprintf "ok (%d lines)" n
          | Error err ->
            fail "%s jsonl: %s" e.name err;
            "FAIL"
        in
        let chrome_str =
          match Trace.Schema.validate_chrome (Trace.to_chrome tr) with
          | Ok n -> Printf.sprintf "ok (%d events)" n
          | Error err ->
            fail "%s chrome: %s" e.name err;
            "FAIL"
        in
        let lockstep_str =
          lockstep_cell ~name:e.name
            (Check.Lockstep.trace ~fuel:150_000 (fun () -> mk_cfg ()) img)
        in
        Report.Table.add_row t
          [
            e.name;
            string_of_int ctrl.cpu.cycles;
            string_of_int (Trace.emitted tr);
            string_of_int (Trace.dropped tr);
            jsonl_str;
            chrome_str;
            lockstep_str;
          ])
  in
  Report.Table.print t;
  (* artifacts: export the first workload's trace in both formats and
     validate what actually landed on disk *)
  match !artifact with
  | None -> fail "no trace to export"
  | Some tr ->
    let slurp f = In_channel.with_open_text f In_channel.input_all in
    Trace.export tr ~format:`Jsonl "BENCH_trace.jsonl";
    Trace.export tr ~format:`Chrome "BENCH_trace_chrome.json";
    (match Trace.Schema.validate_jsonl (slurp "BENCH_trace.jsonl") with
    | Ok _ -> ()
    | Error err -> fail "BENCH_trace.jsonl: %s" err);
    (match Trace.Schema.validate_chrome (slurp "BENCH_trace_chrome.json") with
    | Ok _ -> ()
    | Error err -> fail "BENCH_trace_chrome.json: %s" err);
    Report.kv "written" "BENCH_trace.jsonl, BENCH_trace_chrome.json"

(* ------------------------------------------------------------------ *)
(* Replacement-policy sweep: policy x tcache size over the paging
   workloads, plus the CI gate — at sub-working-set sizes a recency
   policy must never translate more than the FIFO sweep it defers to,
   and the whole policy registry must be architecturally equivalent
   (Check.Lockstep.policies). Emits BENCH_policy.json.

   The numbers to expect are modest by design: block entries are only
   observable at trap granularity (patched direct branches bypass the
   controller entirely), so LRU/RRIP deviate from the sweep only when
   it is about to kill a block with recent observed reuse. Few
   deviations, but each one saves re-translations — and never costs
   any, which is what the gate checks.

   trrip runs twice per cell: "trrip-unprimed" never gets a temperature
   oracle (plain RRIP), "trrip" gets the profile's in deep thrash. *)

let policysweep () =
  Report.section
    "Policy sweep: eviction policy x tcache size (gate: lru/trrip \
     translations <= fifo at sub-working-set sizes, primed or not; profiled \
     trrip <= unprimed everywhere and strictly better on >= 3 cells; \
     full-registry lockstep equivalence)";
  let sizes = [ 2048; 4096; 8192 ] in
  let gate_workloads = [ "compress95"; "mpeg2enc" ] in
  let t =
    Report.Table.create ~title:"policy x tcache size"
      ~columns:
        [ "app"; "tcache"; "policy"; "cycles"; "translations"; "evicted";
          "outputs" ]
  in
  let grid = ref [] in
  let (_ : unit list) =
    over_registry (fun e img ->
        if not (List.mem e.name gate_workloads) then ()
        else begin
          let native = Softcache.Runner.native img in
          (* one profiling pre-run per workload: the trrip rows attach
             its temperature classifier, every other policy ignores it *)
          let prof, _ = Profiler.profile img in
          let classify = Profiler.temperature_classifier prof in
          let oracle ~lo ~hi =
            match classify ~lo ~hi with
            | Profiler.Hot -> Softcache.Policy.Hot
            | Profiler.Warm -> Softcache.Policy.Warm
            | Profiler.Cold -> Softcache.Policy.Cold
          in
          (* the sizing estimate decides where the prior pays: primed
             only in deep thrash, unprimed around and above the knee *)
          let est =
            Softcache.Sizing.estimate ~image:img
              ~chunking:Softcache.Config.Basic_block
              ~samples_in:(fun ~lo ~hi -> Profiler.samples_in prof ~lo ~hi)
              ~sizes ()
          in
          List.iter
            (fun bytes ->
              List.iter
                (fun (pname, ev, primable) ->
                  let cfg =
                    Softcache.Config.make ~tcache_bytes:bytes ~eviction:ev ()
                  in
                  let prepare c =
                    if
                      primable
                      && Softcache.Sizing.deep_thrash est ~tcache_bytes:bytes
                    then
                      Softcache.Controller.set_temperature_oracle c
                        (Some oracle)
                  in
                  match Softcache.Runner.cached_robust ~prepare cfg img with
                  | r, ctrl ->
                    let ok =
                      r.status = Softcache.Runner.Finished Machine.Cpu.Halted
                      && r.outputs = native.outputs
                    in
                    if not ok then
                      fail "%s/%s/%dB: outputs diverge from native" e.name
                        pname bytes;
                    Report.Table.add_row t
                      [
                        e.name;
                        Report.fmt_bytes bytes;
                        pname;
                        string_of_int r.cycles;
                        string_of_int ctrl.stats.translations;
                        string_of_int ctrl.stats.evicted_blocks;
                        (if ok then "ok" else "MISMATCH");
                      ];
                    grid :=
                      (e.name, bytes, pname, r.cycles,
                       ctrl.stats.translations, ctrl.stats.evicted_blocks, ok)
                      :: !grid
                  | exception Softcache.Controller.Chunk_too_large _ ->
                    (* flush-all cannot place this workload's largest
                       chunk at this size; that is a configuration
                       limit, not a gate failure *)
                    Report.Table.add_row t
                      [ e.name; Report.fmt_bytes bytes; pname;
                        "chunk too large"; "-"; "-"; "-" ])
                (List.concat_map
                   (fun (pname, ev) ->
                     if ev = Softcache.Config.Trrip then
                       [ ("trrip-unprimed", ev, false); (pname, ev, true) ]
                     else [ (pname, ev, false) ])
                   Softcache.Config.eviction_table))
            sizes
        end)
  in
  Report.Table.print t;
  (* the gate: at every size where both completed, a recency policy
     must not translate more than fifo *)
  let translations name bytes pname =
    List.find_map
      (fun (n, b, p, _, tr, _, _) ->
        if n = name && b = bytes && p = pname then Some tr else None)
      !grid
  in
  List.iter
    (fun name ->
      List.iter
        (fun bytes ->
          match translations name bytes "fifo" with
          | None -> ()
          | Some fifo_tr ->
            List.iter
              (fun pname ->
                match translations name bytes pname with
                | Some tr when tr > fifo_tr ->
                  fail "%s/%dB: %s translates more than fifo (%d > %d)" name
                    bytes pname tr fifo_tr
                | Some _ | None -> ())
              [ "lru"; "trrip-unprimed"; "trrip" ])
        sizes)
    gate_workloads;
  (* trrip rides a real profile on every gate cell, so the temperature
     prior must pay for itself: never more translations than unprimed
     trrip anywhere, strictly fewer on at least three cells *)
  let trrip_wins = ref 0 and trrip_cells = ref 0 in
  List.iter
    (fun name ->
      List.iter
        (fun bytes ->
          match
            ( translations name bytes "trrip-unprimed",
              translations name bytes "trrip" )
          with
          | Some unprimed_tr, Some trrip_tr ->
            incr trrip_cells;
            if trrip_tr > unprimed_tr then
              fail "%s/%dB: trrip translates more than unprimed (%d > %d)"
                name bytes trrip_tr unprimed_tr
            else if trrip_tr < unprimed_tr then incr trrip_wins
          | _ -> ())
        sizes)
    gate_workloads;
  Report.kv "trrip vs unprimed"
    (Printf.sprintf "strictly fewer translations on %d of %d profiled cells"
       !trrip_wins !trrip_cells);
  if !trrip_wins < 3 then
    fail
      "trrip strictly beat unprimed on only %d of %d profiled cells \
       (need >= 3)"
      !trrip_wins !trrip_cells;
  (* full-registry architectural equivalence, every policy vs native
     and vs each other, with the invariant auditor attached *)
  let lt =
    Report.Table.create ~title:"lockstep: all policies vs native"
      ~columns:[ "app"; "verdict" ]
  in
  let lockstep_rows =
    over_registry (fun e img ->
        let mk_cfg () = Softcache.Config.make ~tcache_bytes:8192 () in
        let v =
          Check.Lockstep.policies ~fuel:8_000_000 ~audit:(e.name = "sensor_modes")
            mk_cfg img
        in
        let ok =
          match v with Check.Lockstep.Policies_equivalent _ -> true | _ -> false
        in
        let s = Format.asprintf "%a" Check.Lockstep.pp_policies_verdict v in
        if not ok then fail "%s policies lockstep: %s" e.name s;
        Report.Table.add_row lt [ e.name; s ];
        (e.name, ok, s))
  in
  Report.Table.print lt;
  emit_json ~file:"BENCH_policy.json" ~benchmark:"policysweep"
    [
      ( "grid",
        json_array
          (List.rev_map
             (fun (n, b, p, cyc, tr, ev, ok) ->
               Printf.sprintf
                 "    { \"name\": %S, \"tcache_bytes\": %d, \"policy\": %S, \
                  \"cycles\": %d, \"translations\": %d, \"evicted\": %d, \
                  \"outputs_ok\": %b }"
                 n b p cyc tr ev ok)
             !grid) );
      ( "lockstep",
        json_array
          (List.map
             (fun (n, ok, s) ->
               Printf.sprintf "    { \"name\": %S, \"ok\": %b, \"verdict\": %S }"
                 n ok s)
             lockstep_rows) );
      ("trrip_cells", string_of_int !trrip_cells);
      ("trrip_wins", string_of_int !trrip_wins);
      ("gate_failures", string_of_int !failures);
    ]

(* ------------------------------------------------------------------ *)
(* Analytic sizing: the dominant-block estimator against the measured
   Fig. 7 knee, plus the CI gate — the predicted knee must land within
   one ladder step of the measured knee on at least 6 of the 8 registry
   workloads. Emits BENCH_sizing.json.

   The measured knee is read off the fifo translation curve: the
   smallest tcache size whose translation count sits within 2x of the
   count at the largest completing size — where the Fig. 7 curve has
   gone flat, capacity misses are gone and what remains is the cold
   footprint. *)

let sizing () =
  Report.section
    "Sizing: dominant-block analytic knee vs measured Fig. 7 knee (gate: \
     within one ladder step on >= 6 of 8 registry workloads)";
  let ladder = Array.of_list sweep_sizes in
  let step_of bytes =
    let rec go i =
      if i >= Array.length ladder then -1
      else if ladder.(i) = bytes then i
      else go (i + 1)
    in
    go 0
  in
  let t =
    Report.Table.create ~title:"predicted vs measured tcache knee"
      ~columns:
        [ "app"; "chunks"; "dominant"; "dom tcache"; "predicted"; "knee";
          "measured"; "steps off"; "verdict" ]
  in
  let hits = ref 0 in
  let rows =
    over_registry (fun e img ->
        let prof, _ = Profiler.profile img in
        let est =
          Softcache.Sizing.estimate ~image:img
            ~chunking:Softcache.Config.Basic_block
            ~samples_in:(fun ~lo ~hi -> Profiler.samples_in prof ~lo ~hi)
            ~sizes:sweep_sizes ()
        in
        let curve =
          List.filter_map
            (fun bytes ->
              let cfg =
                Softcache.Config.sparc_prototype ~tcache_bytes:bytes ()
              in
              match Softcache.Runner.cached cfg img with
              | cached, ctrl ->
                if cached.outputs <> (Softcache.Runner.native img).outputs
                then fail "%s/%dB: outputs diverge from native" e.name bytes;
                Some (bytes, ctrl.stats.translations)
              | exception Softcache.Controller.Chunk_too_large _ -> None)
            sweep_sizes
        in
        let measured =
          match List.rev curve with
          | [] -> None
          | (_, tail_tr) :: _ ->
            List.find_map
              (fun (bytes, tr) ->
                if tr <= 2 * tail_tr then Some bytes else None)
              curve
        in
        let delta =
          match (est.predicted_knee, measured) with
          | Some p, Some m -> Some (abs (step_of p - step_of m))
          | _ -> None
        in
        let ok = match delta with Some d -> d <= 1 | None -> false in
        if ok then incr hits;
        let fmt_opt = function Some b -> Report.fmt_bytes b | None -> "-" in
        Report.Table.add_row t
          [
            e.name;
            string_of_int est.chunks_walked;
            string_of_int est.dominant_chunks;
            Report.fmt_bytes est.dominant_tcache_bytes;
            Report.fmt_bytes est.predicted_bytes;
            fmt_opt est.predicted_knee;
            fmt_opt measured;
            (match delta with Some d -> string_of_int d | None -> "-");
            (if ok then "ok" else "OFF");
          ];
        (e.name, est, measured, delta, ok))
  in
  Report.Table.print t;
  Report.kv "knee accuracy"
    (Printf.sprintf "within one ladder step on %d of %d workloads" !hits
       (List.length rows));
  if !hits < 6 then
    fail "sizing knee within one step on only %d of %d workloads (need >= 6)"
      !hits (List.length rows);
  emit_json ~file:"BENCH_sizing.json" ~benchmark:"sizing"
    [
      ( "workloads",
        json_array
          (List.map
             (fun (n, (est : Softcache.Sizing.estimate), measured, delta, ok) ->
               Printf.sprintf
                 "    { \"name\": %S, \"chunks_walked\": %d, \
                  \"dominant_chunks\": %d, \"dominant_tcache_bytes\": %d, \
                  \"predicted_bytes\": %d, \"predicted_knee\": %s, \
                  \"measured_knee\": %s, \"step_delta\": %s, \"ok\": %b }"
                 n est.chunks_walked est.dominant_chunks
                 est.dominant_tcache_bytes est.predicted_bytes
                 (match est.predicted_knee with
                 | Some b -> string_of_int b
                 | None -> "null")
                 (match measured with
                 | Some b -> string_of_int b
                 | None -> "null")
                 (match delta with
                 | Some d -> string_of_int d
                 | None -> "null")
                 ok)
             rows) );
      ("knee_hits", string_of_int !hits);
      ("gate_failures", string_of_int !failures);
    ]

(* ------------------------------------------------------------------ *)
(* Chaining sweep: trap elimination from eager branch chaining and
   profile-guided superblock formation, plus the CI gates — chaining
   must never increase the trap count on any grid cell, must cut it by
   at least 20% on at least one gate workload, and all three modes
   must stay observably equivalent (Check.Lockstep.chain_modes) across
   the whole registry. Emits BENCH_chain.json.

   The paper's pitch is that a patched branch costs nothing while a
   trap costs a controller round-trip; what chaining adds on top of
   lazy backpatching only shows under churn, where re-armed exits are
   re-patched at target re-install instead of each trapping once
   more. *)

let chainsweep () =
  Report.section
    "Chain sweep: off / chain / chain+superblock x tcache size (gate: \
     chaining never adds traps, cuts them >= 20% somewhere; registry-wide \
     mode equivalence)";
  let sizes = [ 2048; 4096; 16384 ] in
  let threshold = 32 in
  let gate_workloads = [ "compress95"; "mpeg2enc" ] in
  let modes = [ ("off", false, 0); ("chain", true, 0);
                ("chain+superblock", true, threshold) ] in
  let t =
    Report.Table.create ~title:"chaining x tcache size"
      ~columns:
        [ "app"; "tcache"; "mode"; "cycles"; "traps"; "patches"; "chained";
          "reverts"; "superblocks"; "guarded"; "outputs" ]
  in
  let grid = ref [] in
  let (_ : unit list) =
    over_registry (fun e img ->
        if not (List.mem e.name gate_workloads) then ()
        else begin
          let native = Softcache.Runner.native img in
          let prof, _ = Profiler.profile img in
          let oracle =
            Softcache.Cc_chain.oracle_of_profile ~image:img
              ~chunking:Softcache.Config.Basic_block
              ~edges_from:(Profiler.edges_from prof)
              ~samples_at:(fun a -> Profiler.samples_in prof ~lo:a ~hi:(a + 4))
          in
          List.iter
            (fun bytes ->
              List.iter
                (fun (mname, chain, sb_threshold) ->
                  let cfg =
                    Softcache.Config.make ~tcache_bytes:bytes
                      ~chunking:Softcache.Config.Basic_block ~chain
                      ~superblock_threshold:sb_threshold ()
                  in
                  let r, ctrl =
                    Softcache.Runner.cached_robust
                      ~prepare:(fun c ->
                        c.Softcache.Controller.chain_oracle <- Some oracle;
                        c.Softcache.Controller.dynamic_text_hint <-
                          Some (Profiler.dynamic_text_bytes prof))
                      cfg img
                  in
                  let ok =
                    r.status = Softcache.Runner.Finished Machine.Cpu.Halted
                    && r.outputs = native.outputs
                  in
                  if not ok then
                    fail "%s/%s/%dB: outputs diverge from native" e.name mname
                      bytes;
                  Report.Table.add_row t
                    [
                      e.name;
                      Report.fmt_bytes bytes;
                      mname;
                      string_of_int r.cycles;
                      string_of_int ctrl.stats.traps;
                      string_of_int ctrl.stats.patches;
                      string_of_int ctrl.stats.chained;
                      string_of_int ctrl.stats.reverts;
                      string_of_int ctrl.stats.superblocks;
                      string_of_int ctrl.stats.superblock_guard_skips;
                      (if ok then "ok" else "MISMATCH");
                    ];
                  grid :=
                    (e.name, bytes, mname, r.cycles, ctrl.stats.traps,
                     ctrl.stats.patches, ctrl.stats.chained,
                     ctrl.stats.reverts, ctrl.stats.superblocks,
                     ctrl.stats.superblock_guard_skips, ok)
                    :: !grid)
                modes)
            sizes
        end)
  in
  Report.Table.print t;
  (* gate 1: plain chaining may never trap more than off on any cell,
     and — now that promotion is knee-guarded — superblock formation
     may never trap more than plain chaining either. Group
     reservations used to churn live blocks at near-working-set sizes
     (mpeg2enc at 16 KB trapped 66% over plain chain), which this grid
     merely reported; the profile-driven guard declines promotions
     when the rewritten working set marginally exceeds the tcache, so
     the knee is gated now. *)
  let traps name bytes mname =
    List.find_map
      (fun (n, b, m, _, tr, _, _, _, _, _, _) ->
        if n = name && b = bytes && m = mname then Some tr else None)
      !grid
  in
  List.iter
    (fun name ->
      List.iter
        (fun bytes ->
          (match (traps name bytes "off", traps name bytes "chain") with
          | Some off_tr, Some ch_tr when ch_tr > off_tr ->
            fail "%s/%dB: chain traps more than off (%d > %d)" name bytes
              ch_tr off_tr
          | _ -> ());
          match
            (traps name bytes "chain", traps name bytes "chain+superblock")
          with
          | Some ch_tr, Some sb_tr when sb_tr > ch_tr ->
            fail "%s/%dB: chain+superblock traps more than chain (%d > %d)"
              name bytes sb_tr ch_tr
          | _ -> ())
        sizes)
    gate_workloads;
  (* gate 2: some chaining mode must cut traps by >= 20% on some gate
     cell (superblocks deliver this: the contiguous layout keeps whole
     hot chains trap-free) *)
  let best_reduction = ref 0.0 in
  List.iter
    (fun name ->
      List.iter
        (fun bytes ->
          List.iter
            (fun mname ->
              match (traps name bytes "off", traps name bytes mname) with
              | Some off_tr, Some ch_tr when off_tr > 0 ->
                let red =
                  float_of_int (off_tr - ch_tr) /. float_of_int off_tr
                in
                if red > !best_reduction then best_reduction := red
              | _ -> ())
            [ "chain"; "chain+superblock" ])
        sizes)
    gate_workloads;
  Report.kv "best trap reduction"
    (Printf.sprintf "%.1f%%" (100.0 *. !best_reduction));
  if !best_reduction < 0.20 then
    fail "chaining never reached a 20%% trap reduction (best %.1f%%)"
      (100.0 *. !best_reduction);
  (* gate 3: registry-wide observational equivalence of all three
     modes, each in data-access lockstep with native execution *)
  let lt =
    Report.Table.create ~title:"lockstep: chain modes vs native"
      ~columns:[ "app"; "verdict" ]
  in
  let lockstep_rows =
    over_registry (fun e img ->
        let prof, _ = Profiler.profile ~fuel:12_000_000 img in
        let oracle =
          Softcache.Cc_chain.oracle_of_profile ~image:img
            ~chunking:Softcache.Config.Basic_block
            ~edges_from:(Profiler.edges_from prof)
            ~samples_at:(fun a -> Profiler.samples_in prof ~lo:a ~hi:(a + 4))
        in
        let mk_cfg () =
          Softcache.Config.make ~tcache_bytes:4096
            ~chunking:Softcache.Config.Basic_block ()
        in
        let v =
          Check.Lockstep.chain_modes ~fuel:12_000_000 ~oracle
            ~superblock_threshold:16
            ~audit:(e.name = "sensor_modes")
            mk_cfg img
        in
        let ok =
          match v with Check.Lockstep.Modes_equivalent _ -> true | _ -> false
        in
        let s = Format.asprintf "%a" Check.Lockstep.pp_modes_verdict v in
        if not ok then fail "%s chain modes lockstep: %s" e.name s;
        Report.Table.add_row lt [ e.name; s ];
        (e.name, ok, s))
  in
  Report.Table.print lt;
  emit_json ~file:"BENCH_chain.json" ~benchmark:"chainsweep"
    [
      ( "grid",
        json_array
          (List.rev_map
             (fun (n, b, m, cyc, tr, pa, ch, rv, sb, gd, ok) ->
               Printf.sprintf
                 "    { \"name\": %S, \"tcache_bytes\": %d, \"mode\": %S, \
                  \"cycles\": %d, \"traps\": %d, \"patches\": %d, \
                  \"chained\": %d, \"reverts\": %d, \"superblocks\": %d, \
                  \"guarded\": %d, \"outputs_ok\": %b }"
                 n b m cyc tr pa ch rv sb gd ok)
             !grid) );
      ( "lockstep",
        json_array
          (List.map
             (fun (n, ok, s) ->
               Printf.sprintf "    { \"name\": %S, \"ok\": %b, \"verdict\": %S }"
                 n ok s)
             lockstep_rows) );
      ( "best_trap_reduction",
        Printf.sprintf "%.4f" !best_reduction );
      ("superblock_threshold", string_of_int threshold);
      ("gate_failures", string_of_int !failures);
    ]

(* ------------------------------------------------------------------ *)
(* Fleet sweep: one MC serving N CC clients over a shared link —
   clients x link bandwidth grid with a dedup-off twin per cell, plus
   the CI gates: shared-chunk dedup must cut aggregate wire bytes by
   at least 30% on the 4-client identical-workload fleet, every cell
   must pass Check.Audit.fleet, and a 1-client fleet must be
   cycle-identical to the plain single-client path for every registry
   workload (Check.Lockstep.fleet). Emits BENCH_fleet.json. *)

let fleetsweep () =
  Report.section
    "Fleet sweep: N clients x link bandwidth on one shared MC link (gate: \
     dedup cuts aggregate wire bytes >= 30% at 4 clients; fleet audits \
     clean; 1-client fleet cycle-identical registry-wide)";
  let app = "compress95" in
  let img =
    match Workloads.Registry.find app with
    | Some e -> e.build ()
    | None -> assert false
  in
  (* cycles/byte at 200 MHz: the ARM prototype's 10 Mbps link and a
     4x-slower variant where queueing and coalescing matter more *)
  let links = [ ("10mbps", 160); ("2.5mbps", 640) ] in
  let clients_axis = [ 1; 2; 4; 8 ] in
  let fuel = 2_000_000 in
  let cell ~clients ~cpb ~dedup =
    let net =
      Netmodel.create ~latency_cycles:100_000 ~cycles_per_byte:cpb
        ~overhead_bytes:60 ()
    in
    let mk_cfg _ =
      Softcache.Config.make ~tcache_bytes:4096
        ~chunking:Softcache.Config.Basic_block ~net ()
    in
    let fl =
      Fleet.create
        ~config:(Fleet.config ~clients ~dedup ())
        ~net mk_cfg [| img |]
    in
    Fleet.run ~fuel fl;
    (match Check.Audit.fleet fl with
    | [] -> ()
    | v :: _ as vs ->
      fail "fleet audit %s/%d clients/dedup=%b: %d violations (first: %s)"
        app clients dedup (List.length vs)
        (Format.asprintf "%a" Check.Audit.pp_violation v));
    fl
  in
  let t =
    Report.Table.create ~title:"fleet: clients x link (identical workloads)"
      ~columns:
        [ "app"; "link"; "clients"; "dedup"; "wire bytes"; "frames";
          "coalesced"; "piggyback"; "cache hits"; "stall p99" ]
  in
  let rows = ref [] in
  let field fl k = List.assoc k (Fleet.summary_fields fl) in
  List.iter
    (fun (lname, cpb) ->
      List.iter
        (fun clients ->
          List.iter
            (fun dedup ->
              let fl = cell ~clients ~cpb ~dedup in
              Report.Table.add_row t
                [
                  app; lname; string_of_int clients; string_of_bool dedup;
                  field fl "wire_bytes"; field fl "frames";
                  field fl "coalesced"; field fl "piggybacked";
                  field fl "cache_hits"; field fl "stall_p99";
                ];
              rows := (lname, clients, dedup, fl) :: !rows)
            [ true; false ])
        clients_axis)
    links;
  Report.Table.print t;
  (* gate: dedup must cut aggregate wire bytes >= 30% at 4 clients on
     every link — N identical clients share almost every chunk, so
     coalesced joins should eliminate most redundant frames *)
  let wire fl = int_of_string (field fl "wire_bytes") in
  List.iter
    (fun (lname, _) ->
      let find dedup =
        List.find_map
          (fun (l, c, d, fl) ->
            if l = lname && c = 4 && d = dedup then Some fl else None)
          !rows
      in
      match (find true, find false) with
      | Some don, Some doff ->
        let won = wire don and woff = wire doff in
        let cut =
          if woff = 0 then 0.0
          else float_of_int (woff - won) /. float_of_int woff
        in
        Report.kv
          (Printf.sprintf "dedup wire cut (%s, 4 clients)" lname)
          (Printf.sprintf "%.1f%% (%d -> %d bytes)" (100.0 *. cut) woff won);
        if cut < 0.30 then
          fail "%s/4 clients: dedup cut aggregate wire bytes only %.1f%%"
            lname (100.0 *. cut)
      | _ -> fail "%s: missing 4-client dedup twin" lname)
    links;
  (* gate: 1-client fleet is cycle-identical to the plain path, for
     every registry workload, over a faulty ethernet link (drops and
     corruption exercise the retry machinery on both sides) *)
  let lt =
    Report.Table.create ~title:"lockstep: 1-client fleet vs solo"
      ~columns:[ "app"; "verdict" ]
  in
  let lockstep_rows =
    over_registry (fun e img ->
        let mk_cfg () =
          let faults =
            Netmodel.Faults.make ~seed:11 ~drop:0.02 ~corrupt:0.01 ()
          in
          Softcache.Config.make ~tcache_bytes:4096
            ~chunking:Softcache.Config.Basic_block
            ~net:(Netmodel.ethernet_10mbps ~faults ()) ()
        in
        let v = Check.Lockstep.fleet ~fuel:2_000_000 mk_cfg img in
        let s = lockstep_cell ~name:(e.name ^ " fleet") v in
        Report.Table.add_row lt [ e.name; s ];
        let ok =
          match v with
          | Check.Lockstep.Engines_equivalent _
          | Check.Lockstep.Engines_out_of_fuel _ -> true
          | _ -> false
        in
        (e.name, ok, s))
  in
  Report.Table.print lt;
  emit_json ~file:"BENCH_fleet.json" ~benchmark:"fleetsweep"
    [
      ( "grid",
        json_array
          (List.rev_map
             (fun (lname, _, _, fl) ->
               Printf.sprintf "    { \"name\": %S, \"link\": %S, %s }" app
                 lname
                 (String.concat ", "
                    (List.map
                       (fun (k, v) -> Printf.sprintf "%S: %S" k v)
                       (Fleet.summary_fields fl))))
             !rows) );
      ( "lockstep",
        json_array
          (List.map
             (fun (n, ok, s) ->
               Printf.sprintf
                 "    { \"name\": %S, \"ok\": %b, \"verdict\": %S }" n ok s)
             lockstep_rows) );
      ("gate_failures", string_of_int !failures);
    ]

(* ------------------------------------------------------------------ *)
(* Shard sweep: harts x tcache size on one shared tcache. N hart
   contexts replay the workload under the seeded interleaving
   scheduler; concurrent misses for the same chunk coalesce onto the
   in-flight fill, so the shared tcache should need far fewer wire
   messages than N independent solo caches. Gates: the 1-hart sharded
   run is cycle-identical to the solo controller on every registry
   workload (Check.Lockstep.shards); every grid cell passes the full
   shard audit (Check.Audit.shards); and 4-hart coalescing cuts wire
   messages vs 4 independent solo runs on >= half the registry.
   Emits BENCH_shard.json. *)

let shardsweep () =
  Report.section
    "Shard sweep: harts x tcache size on one shared tcache (gates: 1-hart \
     sharded run cycle-identical to solo registry-wide; every cell audits \
     clean; 4-hart coalescing cuts wire messages vs 4 solo runs on >= \
     half the registry)";
  let app = "compress95" in
  let img =
    match Workloads.Registry.find app with
    | Some e -> e.build ()
    | None -> assert false
  in
  let harts_axis = [ 1; 2; 4; 8 ] in
  let sizes = [ 4096; 16384 ] in
  let fuel = 800_000 in
  let cell ~harts ~tcache =
    let net = Netmodel.ethernet_10mbps () in
    let cfg =
      Softcache.Config.make ~tcache_bytes:tcache
        ~chunking:Softcache.Config.Basic_block ~net ~harts
        ~shards:(if harts >= 4 then 2 else 1) ~sched_seed:7 ()
    in
    let ctrl = Softcache.Controller.create cfg img in
    let sh = Softcache.Shard.attach ctrl in
    ignore (Softcache.Shard.run ~fuel sh);
    (match Check.Audit.shards sh with
    | [] -> ()
    | v :: _ as vs ->
      fail "shard audit %s/%d harts/%d B: %d violations (first: %s)" app
        harts tcache (List.length vs)
        (Format.asprintf "%a" Check.Audit.pp_violation v));
    (sh, ctrl, Netmodel.messages net)
  in
  let t =
    Report.Table.create ~title:"shard: harts x tcache size"
      ~columns:
        [ "app"; "harts"; "tcache"; "makespan"; "total cycles"; "fills";
          "coalesced"; "fill-wait"; "mc-wait"; "wire msgs" ]
  in
  let rows = ref [] in
  List.iter
    (fun tcache ->
      List.iter
        (fun harts ->
          let sh, ctrl, msgs = cell ~harts ~tcache in
          let stats = ctrl.Softcache.Controller.stats in
          Report.Table.add_row t
            [
              app; string_of_int harts; string_of_int tcache;
              string_of_int (Softcache.Shard.makespan sh);
              string_of_int (Softcache.Shard.total_cycles sh);
              string_of_int stats.Softcache.Stats.fills;
              string_of_int stats.Softcache.Stats.fills_coalesced;
              string_of_int stats.Softcache.Stats.fill_wait_cycles;
              string_of_int stats.Softcache.Stats.mc_wait_cycles;
              string_of_int msgs;
            ];
          rows :=
            (harts, tcache, Softcache.Shard.makespan sh,
             Softcache.Shard.total_cycles sh, stats.Softcache.Stats.fills,
             stats.Softcache.Stats.fills_coalesced, msgs)
            :: !rows)
        harts_axis)
    sizes;
  Report.Table.print t;
  (* gate: a 4-hart shared tcache puts fewer messages on the wire than
     4 independent solo caches would, on >= half the registry — the
     whole point of fill coalescing over shared code *)
  let n = 4 in
  let coalesce_fuel = 600_000 in
  let ct =
    Report.Table.create ~title:"coalescing: 4-hart shared vs 4x solo"
      ~columns:[ "app"; "shared msgs"; "4x solo msgs"; "cut" ]
  in
  let coalesce_rows =
    over_registry (fun e img ->
        let shard_net = Netmodel.ethernet_10mbps () in
        let cfg =
          Softcache.Config.make ~tcache_bytes:8192
            ~chunking:Softcache.Config.Basic_block ~net:shard_net ~harts:n
            ~sched_seed:5 ()
        in
        let ctrl = Softcache.Controller.create cfg img in
        let sh = Softcache.Shard.attach ctrl in
        ignore (Softcache.Shard.run ~fuel:coalesce_fuel sh);
        (match Check.Audit.shards sh with
        | [] -> ()
        | v :: _ as vs ->
          fail "shard audit %s/coalescing: %d violations (first: %s)" e.name
            (List.length vs)
            (Format.asprintf "%a" Check.Audit.pp_violation v));
        let shared = Netmodel.messages shard_net in
        (* the N solo runs are identical, so run one and scale *)
        let solo_net = Netmodel.ethernet_10mbps () in
        let solo_cfg =
          Softcache.Config.make ~tcache_bytes:8192
            ~chunking:Softcache.Config.Basic_block ~net:solo_net ()
        in
        let solo_ctrl = Softcache.Controller.create solo_cfg img in
        ignore (Softcache.Controller.run ~fuel:coalesce_fuel solo_ctrl);
        let solo = n * Netmodel.messages solo_net in
        let win = shared < solo in
        Report.Table.add_row ct
          [
            e.name; string_of_int shared; string_of_int solo;
            (if solo = 0 then "n/a"
             else
               Printf.sprintf "%.1f%%"
                 (100.0 *. float_of_int (solo - shared) /. float_of_int solo));
          ];
        (e.name, shared, solo, win))
  in
  Report.Table.print ct;
  let wins = List.length (List.filter (fun (_, _, _, w) -> w) coalesce_rows) in
  let total = List.length coalesce_rows in
  Report.kv "coalescing wins"
    (Printf.sprintf "%d of %d workloads" wins total);
  if 2 * wins < total then
    fail "4-hart coalescing beat 4x solo on only %d of %d workloads" wins
      total;
  (* gate: the sharded engine with one hart is the solo controller,
     cycle for cycle, on every registry workload *)
  let lt =
    Report.Table.create ~title:"lockstep: 1-hart sharded vs solo"
      ~columns:[ "app"; "verdict" ]
  in
  let lockstep_rows =
    over_registry (fun e img ->
        let mk_cfg () =
          Softcache.Config.make ~tcache_bytes:4096
            ~chunking:Softcache.Config.Basic_block ()
        in
        let v = Check.Lockstep.shards ~fuel:2_000_000 mk_cfg img in
        let s = lockstep_cell ~name:(e.name ^ " shard") v in
        Report.Table.add_row lt [ e.name; s ];
        let ok =
          match v with
          | Check.Lockstep.Engines_equivalent _
          | Check.Lockstep.Engines_out_of_fuel _ -> true
          | _ -> false
        in
        (e.name, ok, s))
  in
  Report.Table.print lt;
  emit_json ~file:"BENCH_shard.json" ~benchmark:"shardsweep"
    [
      ( "grid",
        json_array
          (List.rev_map
             (fun (harts, tcache, makespan, total_cycles, fills, coalesced,
                   msgs) ->
               Printf.sprintf
                 "    { \"name\": %S, \"harts\": %d, \"tcache\": %d, \
                  \"makespan\": %d, \"total_cycles\": %d, \"fills\": %d, \
                  \"coalesced\": %d, \"wire_messages\": %d }"
                 app harts tcache makespan total_cycles fills coalesced msgs)
             !rows) );
      ( "coalescing",
        json_array
          (List.map
             (fun (name, shared, solo, win) ->
               Printf.sprintf
                 "    { \"name\": %S, \"shared_messages\": %d, \
                  \"solo_messages\": %d, \"win\": %b }"
                 name shared solo win)
             coalesce_rows) );
      ( "lockstep",
        json_array
          (List.map
             (fun (name, ok, s) ->
               Printf.sprintf
                 "    { \"name\": %S, \"ok\": %b, \"verdict\": %S }" name ok
                 s)
             lockstep_rows) );
      ("gate_failures", string_of_int !failures);
    ]

(* ------------------------------------------------------------------ *)
(* Granularity sweep: block vs whole-function caching units across a
   tcache-size ladder — the function-granularity pitch is fewer, larger
   MC round trips once the tcache can hold whole functions, at the cost
   of thrashing (and degradation) when it cannot. Gates: every cell is
   output-equivalent to native and audits clean (PLT section included);
   at the largest tcache, function mode must send strictly fewer wire
   messages than block mode on at least half the registry; and
   Check.Lockstep.granularity proves block/function observational
   equivalence registry-wide. Emits BENCH_gran.json. *)

let gransweep () =
  Report.section
    "Granularity sweep: block vs whole-function caching units x tcache \
     size (gate: at the largest tcache, function mode cuts wire messages \
     on >= half the registry; every cell audits clean and matches native \
     outputs; registry-wide block/function lockstep)";
  let sizes = [ 2048; 8192; 65536 ] in
  let large = List.fold_left max 0 sizes in
  let t =
    Report.Table.create ~title:"granularity x tcache size"
      ~columns:
        [ "app"; "tcache"; "granularity"; "cycles"; "translations"; "traps";
          "messages"; "plt slots"; "degraded"; "outputs" ]
  in
  let grid = ref [] in
  let (_ : unit list) =
    over_registry (fun e img ->
        let native = Softcache.Runner.native img in
        List.iter
          (fun bytes ->
            List.iter
              (fun (gname, g) ->
                let net = Netmodel.ethernet_10mbps () in
                let cfg =
                  Softcache.Config.make ~tcache_bytes:bytes ~net
                    ~chunking:Softcache.Config.Basic_block ~granularity:g ()
                in
                let r, ctrl = Softcache.Runner.cached_robust cfg img in
                let ok =
                  r.status = Softcache.Runner.Finished Machine.Cpu.Halted
                  && r.outputs = native.outputs
                in
                if not ok then
                  fail "%s/%s/%dB: outputs diverge from native" e.name gname
                    bytes;
                (match Check.Audit.run ctrl with
                | [] -> ()
                | v :: _ as vs ->
                  fail "%s/%s/%dB audit: %d violations (first: %s)" e.name
                    gname bytes (List.length vs)
                    (Format.asprintf "%a" Check.Audit.pp_violation v));
                let msgs = Netmodel.messages net in
                Report.Table.add_row t
                  [
                    e.name;
                    Report.fmt_bytes bytes;
                    gname;
                    string_of_int r.cycles;
                    string_of_int ctrl.stats.translations;
                    string_of_int ctrl.stats.traps;
                    string_of_int msgs;
                    string_of_int ctrl.stats.plt_slots;
                    string_of_int ctrl.stats.gran_degraded;
                    (if ok then "ok" else "MISMATCH");
                  ];
                grid :=
                  (e.name, bytes, gname, r.cycles, ctrl.stats.translations,
                   ctrl.stats.traps, msgs, ctrl.stats.plt_slots,
                   ctrl.stats.gran_degraded, ok)
                  :: !grid)
              Softcache.Config.granularity_table)
          sizes)
  in
  Report.Table.print t;
  (* wire gate: whole-function units amortize the per-message overhead
     (frame header + latency) over more payload, so once the tcache
     stops thrashing, function mode should need fewer MC round trips
     for most workloads *)
  let msgs_of name gname =
    List.find_map
      (fun (n, b, m, _, _, _, ms, _, _, _) ->
        if n = name && b = large && m = gname then Some ms else None)
      !grid
  in
  let names =
    List.map
      (fun (e : Workloads.Registry.entry) -> e.name)
      Workloads.Registry.all
  in
  let wins =
    List.filter
      (fun n ->
        match
          ( msgs_of n (Softcache.Config.granularity_name Softcache.Config.Block),
            msgs_of n
              (Softcache.Config.granularity_name Softcache.Config.Function) )
        with
        | Some bm, Some fm -> fm < bm
        | _ -> false)
      names
  in
  Report.kv
    (Printf.sprintf "wire-message wins at %s" (Report.fmt_bytes large))
    (Printf.sprintf "%d/%d workloads (%s)" (List.length wins)
       (List.length names)
       (String.concat ", " wins));
  if 2 * List.length wins < List.length names then
    fail
      "function granularity cut wire messages on only %d/%d workloads at \
       %d B"
      (List.length wins) (List.length names) large;
  (* equivalence gate: block and function granularity, each in
     data-access lockstep with native, then cross-compared — over the
     whole registry, at a mid-ladder size where function mode both
     fits whole functions and occasionally degrades *)
  let lt =
    Report.Table.create ~title:"lockstep: granularities vs native"
      ~columns:[ "app"; "verdict" ]
  in
  let lockstep_rows =
    over_registry (fun e img ->
        let mk_cfg () =
          Softcache.Config.make ~tcache_bytes:8192
            ~chunking:Softcache.Config.Basic_block ()
        in
        let v =
          Check.Lockstep.granularity ~fuel:12_000_000
            ~audit:(e.name = "sensor_modes")
            mk_cfg img
        in
        let ok =
          match v with Check.Lockstep.Modes_equivalent _ -> true | _ -> false
        in
        let s = Format.asprintf "%a" Check.Lockstep.pp_modes_verdict v in
        if not ok then fail "%s granularity lockstep: %s" e.name s;
        Report.Table.add_row lt [ e.name; s ];
        (e.name, ok, s))
  in
  Report.Table.print lt;
  emit_json ~file:"BENCH_gran.json" ~benchmark:"gransweep"
    [
      ( "grid",
        json_array
          (List.rev_map
             (fun (n, b, m, cyc, tr, tp, ms, pl, dg, ok) ->
               Printf.sprintf
                 "    { \"name\": %S, \"tcache_bytes\": %d, \
                  \"granularity\": %S, \"cycles\": %d, \"translations\": %d, \
                  \"traps\": %d, \"messages\": %d, \"plt_slots\": %d, \
                  \"degraded\": %d, \"outputs_ok\": %b }"
                 n b m cyc tr tp ms pl dg ok)
             !grid) );
      ( "lockstep",
        json_array
          (List.map
             (fun (n, ok, s) ->
               Printf.sprintf
                 "    { \"name\": %S, \"ok\": %b, \"verdict\": %S }" n ok s)
             lockstep_rows) );
      ( "wire_message_wins",
        Printf.sprintf "[%s]"
          (String.concat ", " (List.map (Printf.sprintf "%S") wins)) );
      ("gate_tcache_bytes", string_of_int large);
      ("gate_failures", string_of_int !failures);
    ]

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("table1", table1);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("associativity", associativity);
    ("fig8", fig8);
    ("fig9", fig9);
    ("tagoverhead", tagoverhead);
    ("spaceoverhead", spaceoverhead);
    ("netcost", netcost);
    ("dcache", dcache);
    ("power", power);
    ("ablation", ablation);
    ("fullsystem", fullsystem);
    ("bindablation", bindablation);
    ("netsweep", netsweep);
    ("faultsweep", faultsweep);
    ("prefetchsweep", prefetchsweep);
    ("policysweep", policysweep);
    ("sizing", sizing);
    ("chainsweep", chainsweep);
    ("fleetsweep", fleetsweep);
    ("shardsweep", shardsweep);
    ("gransweep", gransweep);
    ("tracesmoke", tracesmoke);
    ("micro", micro);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst experiments
  in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f -> f ()
      | None ->
        Printf.eprintf "unknown experiment %S; available: %s\n" name
          (String.concat " " (List.map fst experiments));
        exit 1)
    requested;
  print_newline ();
  if !failures > 0 then exit 1
