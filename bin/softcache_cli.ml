(* The softcache command-line tool.

   Subcommands:
     list                      workloads in the suite
     run      <workload>       run natively and under the SoftCache
     profile  <workload>       flat profile + footprint numbers
     sweep    <workload>       tcache miss-rate curve
     sizing   <workload>       analytic tcache-size prediction (Fig. 7 knee)
     hwsweep  <workload>       hardware-cache miss-rate curve
     dcache   <workload>       run under the software data cache
     fleet    <workload>       one MC serving N clients over a shared link
     asm      <file.s>         assemble and run an ERISC source file *)

open Cmdliner

let setup_logs verbose =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (if verbose then Some Logs.Debug else Some Logs.Warning)

let verbose_arg =
  let doc = "Log SoftCache controller events (translations, evictions)." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let find_workload name =
  match Workloads.Registry.find name with
  | Some e -> Ok e
  | None ->
    Error
      (Printf.sprintf "unknown workload %S (try: %s)" name
         (String.concat ", " (Workloads.Registry.names ())))

let workload_arg =
  let doc = "Workload name (see $(b,list))." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD" ~doc)

let tcache_arg =
  let doc = "Translation-cache size in bytes." in
  Arg.(value & opt int (48 * 1024) & info [ "tcache" ] ~docv:"BYTES" ~doc)

let chunking_arg =
  let doc = "Chunk granularity: $(b,bb) (basic blocks) or $(b,proc)." in
  Arg.(value & opt (enum [ ("bb", Softcache.Config.Basic_block);
                           ("proc", Softcache.Config.Procedure) ])
         Softcache.Config.Basic_block
       & info [ "chunking" ] ~docv:"MODE" ~doc)

(* Both the accepted values and the self-documentation come from
   [Config.eviction_table], so a policy added there is immediately
   accepted, listed in --help, and rejected-with-the-valid-set when
   misspelled — no second list to keep in sync. *)
let eviction_arg =
  let doc =
    Printf.sprintf "Eviction policy: %s."
      (String.concat " or "
         (List.map
            (fun (n, _) -> Printf.sprintf "$(b,%s)" n)
            Softcache.Config.eviction_table))
  in
  Arg.(value & opt (enum Softcache.Config.eviction_table)
         Softcache.Config.Fifo
       & info [ "eviction" ] ~docv:"POLICY" ~doc)

(* Same table-driven scheme as --eviction: values, --help text and the
   misspelling message all come from [Config.granularity_table]. *)
let granularity_arg =
  let doc =
    Printf.sprintf
      "Caching unit: %s. $(b,function) caches whole-function units and \
       routes calls through a PLT-style indirection table; functions too \
       large to cache degrade to block granularity individually."
      (String.concat " or "
         (List.map
            (fun (n, _) -> Printf.sprintf "$(b,%s)" n)
            Softcache.Config.granularity_table))
  in
  Arg.(value & opt (enum Softcache.Config.granularity_table)
         Softcache.Config.Block
       & info [ "granularity" ] ~docv:"UNIT" ~doc)

let network_arg =
  let doc = "Interconnect: $(b,local) (SPARC prototype) or $(b,ethernet) \
             (ARM prototype, 10 Mbps)." in
  Arg.(value & opt (enum [ ("local", `Local); ("ethernet", `Ethernet) ])
         `Local
       & info [ "net" ] ~docv:"NET" ~doc)

(* --faults seed=7,drop=0.05,corrupt=0.01,dup=0.02,spike=0.1,spike-cycles=20000 *)
let faults_conv =
  let parse s =
    let seed = ref 1 and spike_cycles = ref 10_000 in
    let drop = ref 0.0 and corrupt = ref 0.0 and dup = ref 0.0
    and spike = ref 0.0 in
    let field kv =
      match String.index_opt kv '=' with
      | None -> Error (Printf.sprintf "bad fault field %S (want key=value)" kv)
      | Some i -> (
        let k = String.sub kv 0 i in
        let v = String.sub kv (i + 1) (String.length kv - i - 1) in
        let into r = match int_of_string_opt v with
          | Some n -> r := n; Ok ()
          | None -> Error (Printf.sprintf "%s: not an integer: %S" k v)
        in
        let fnto r = match float_of_string_opt v with
          | Some f -> r := f; Ok ()
          | None -> Error (Printf.sprintf "%s: not a number: %S" k v)
        in
        match k with
        | "seed" -> into seed
        | "spike-cycles" -> into spike_cycles
        | "drop" -> fnto drop
        | "corrupt" -> fnto corrupt
        | "dup" -> fnto dup
        | "spike" -> fnto spike
        | _ ->
          Error
            (Printf.sprintf
               "unknown fault field %S (want seed, drop, corrupt, dup, \
                spike, spike-cycles)" k))
    in
    let rec all = function
      | [] -> (
        match
          Netmodel.Faults.make ~seed:!seed ~drop:!drop ~corrupt:!corrupt
            ~duplicate:!dup ~delay_spike:!spike ~spike_cycles:!spike_cycles
            ()
        with
        | f -> Ok f
        | exception Invalid_argument m -> Error m)
      | kv :: rest -> ( match field kv with Ok () -> all rest | Error _ as e -> e)
    in
    match all (String.split_on_char ',' s) with
    | Ok f -> Ok f
    | Error m -> Error (`Msg m)
  in
  let print ppf f = Netmodel.Faults.pp ppf f in
  Arg.conv (parse, print)

let faults_arg =
  let doc =
    "Inject interconnect faults: comma-separated $(b,seed=N), $(b,drop=P), \
     $(b,corrupt=P), $(b,dup=P), $(b,spike=P), $(b,spike-cycles=N). \
     Probabilities are per message; the schedule is deterministic in the \
     seed."
  in
  Arg.(value & opt (some faults_conv) None
       & info [ "faults" ] ~docv:"SPEC" ~doc)

let audit_arg =
  let doc =
    "Run the tcache invariant auditor after every translation, patch, \
     eviction and flush (slow; fails loudly on any bookkeeping violation)."
  in
  Arg.(value & flag & info [ "audit" ] ~doc)

let engine_arg =
  let doc =
    "CPU dispatch engine: $(b,decoded) (predecode cache, the default) or \
     $(b,interp) (re-decode every fetch; the differential-testing \
     reference)."
  in
  Arg.(value & opt (enum [ ("decoded", Machine.Cpu.Decoded);
                           ("interp", Machine.Cpu.Interpretive) ])
         Machine.Cpu.Decoded
       & info [ "engine" ] ~docv:"ENGINE" ~doc)

let prefetch_arg =
  let doc =
    "Ship up to $(docv) predicted-next chunks with every demand miss in one \
     batched frame (0 disables prefetch). Candidates are the chunk's static \
     successors, ranked by a profiling pre-run."
  in
  Arg.(value & opt int 0 & info [ "prefetch" ] ~docv:"N" ~doc)

let staging_arg =
  let doc =
    "Bound on the client-side staging buffer holding prefetched chunks \
     awaiting first touch."
  in
  Arg.(value & opt int 8 & info [ "staging" ] ~docv:"N" ~doc)

let trace_out_arg =
  let doc =
    "Record a cycle-stamped structured event trace and write it to $(docv) \
     (format per $(b,--trace-format)). Tracing is architecturally \
     invisible: the traced run is cycle- and counter-identical to an \
     untraced one."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let trace_format_arg =
  let doc =
    "Trace export format: $(b,jsonl) (one event object per line) or \
     $(b,chrome) (Chrome trace-event JSON — load into Perfetto or \
     chrome://tracing)."
  in
  Arg.(value & opt (enum [ ("jsonl", `Jsonl); ("chrome", `Chrome) ]) `Jsonl
       & info [ "trace-format" ] ~docv:"FMT" ~doc)

let chain_arg =
  let doc =
    "Eagerly chain resident blocks: when a chunk installs, every unresolved \
     exit branch already targeting it is patched tcache-direct immediately, \
     instead of each branch paying one trap on first use."
  in
  Arg.(value & flag & info [ "chain" ] ~doc)

let superblock_arg =
  let doc =
    "Fuse profile-hot chunk chains into contiguously laid-out superblocks \
     when the chain's edge counts reach $(docv) (0 disables; a non-zero \
     value implies $(b,--chain)). A profiling pre-run supplies the edge \
     temperatures."
  in
  Arg.(value & opt int 0 & info [ "superblock-threshold" ] ~docv:"N" ~doc)

let harts_arg =
  let doc =
    "Run the CC sharded across $(docv) hart contexts sharing one tcache: a \
     deterministic seeded scheduler interleaves them, concurrent misses for \
     the same chunk coalesce onto the in-flight fill, and suspended harts \
     hold read leases on their parked blocks. 1 = the solo controller."
  in
  Arg.(value & opt int 1 & info [ "harts" ] ~docv:"N" ~doc)

let shards_arg =
  let doc =
    "Partition the tcache into $(docv) per-shard arenas (chunks home by \
     address, lookups cross shards). 1 = one shared arena."
  in
  Arg.(value & opt int 1 & info [ "shards" ] ~docv:"K" ~doc)

let sched_seed_arg =
  let doc =
    "Seed for the hart interleaving scheduler; the schedule (and thus the \
     whole run) is deterministic in it."
  in
  Arg.(value & opt int 1 & info [ "sched-seed" ] ~docv:"SEED" ~doc)

let trace_limit_arg =
  let doc =
    "Trace ring capacity: at most $(docv) events are retained; on overflow \
     the oldest are overwritten and the drop count is reported."
  in
  Arg.(value & opt int 65_536 & info [ "trace-limit" ] ~docv:"N" ~doc)

let print_trace_summary ~total tr =
  let s = Trace.summary tr in
  Report.trace_summary ~total ~execute:s.Trace.s_execute
    ~translate:s.Trace.s_translate ~wire:s.Trace.s_wire ~trap:s.Trace.s_trap
    ~dcache:s.Trace.s_dcache ~patch:s.Trace.s_patch ~scrub:s.Trace.s_scrub
    ~lookup:s.Trace.s_lookup ~events:s.Trace.s_emitted
    ~dropped:s.Trace.s_dropped ~capacity:s.Trace.s_capacity

let export_trace ~format path tr =
  Trace.export tr ~format path;
  Report.kv "trace"
    (Printf.sprintf "%d events -> %s (%s)" (Trace.emitted tr) path
       (match format with `Jsonl -> "jsonl" | `Chrome -> "chrome"))

let make_config ?faults ?(engine = Machine.Cpu.Decoded) ?(prefetch = 0)
    ?(staging = 8) ?(trace_limit = 65_536) ?(chain = false)
    ?(superblock_threshold = 0) ?(granularity = Softcache.Config.Block)
    ?(harts = 1) ?(shards = 1) ?(sched_seed = 1) tcache chunking eviction
    network =
  let net =
    match network with
    | `Local -> Netmodel.local ?faults ()
    | `Ethernet -> Netmodel.ethernet_10mbps ?faults ()
  in
  (* a superblock threshold implies chaining on the command line *)
  let chain = chain || superblock_threshold > 0 in
  Softcache.Config.make ~tcache_bytes:tcache ~chunking ~eviction ~net ~engine
    ~prefetch_degree:prefetch ~staging_chunks:staging ~trace_limit
    ~chain ~superblock_threshold ~granularity ~harts ~shards ~sched_seed ()

let list_cmd =
  let run () =
    List.iter
      (fun (e : Workloads.Registry.entry) ->
        Printf.printf "%-14s %s\n" e.name e.description)
      Workloads.Registry.all;
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List the workload suite") Term.(const run $ const ())

(* 0 = halted with the native outputs, 2 = output mismatch, 3 = the
   run stopped on a typed failure (dead link, tcache too small, chunk
   too large) *)
let exit_code (status : Softcache.Runner.status) ~ok =
  match status with
  | Finished _ -> if ok then 0 else 2
  | Unavailable _ | Tcache_too_small | Chunk_too_large _ -> 3

let run_cmd =
  let run name tcache chunking eviction granularity network faults audit
      engine prefetch staging chain superblock_threshold harts shards
      sched_seed trace_out trace_format trace_limit verbose =
    setup_logs verbose;
    match find_workload name with
    | Error e -> prerr_endline e; 1
    | Ok entry -> (
      let img = entry.build () in
      Format.printf "%a@." Isa.Image.pp_summary img;
      (* a rejected setting is the user's error, reported before any
         simulation runs *)
      match
        let cfg =
          make_config ?faults ~engine ~prefetch ~staging ~trace_limit
            ~chain ~superblock_threshold ~granularity ~harts ~shards
            ~sched_seed tcache chunking eviction network
        in
        (cfg, Softcache.Controller.create cfg img)
      with
      | exception Invalid_argument m -> prerr_endline m; 1
      | cfg, ctrl ->
      let native = Softcache.Runner.native img in
      (* profile-guided oracles: one profiling pre-run supplies the
         prefetch hot-set ranker, the superblock edge temperatures and
         the trrip block-temperature prior *)
      let prof =
        if
          prefetch > 0 || superblock_threshold > 0
          || eviction = Softcache.Config.Trrip
        then Some (fst (Profiler.profile img))
        else None
      in
      let ranker =
        if prefetch > 0 then
          Option.map
            (fun p -> fun ~lo ~hi -> Profiler.samples_in p ~lo ~hi)
            prof
        else None
      in
      let oracle =
        if superblock_threshold > 0 then
          Option.map
            (fun p ->
              Softcache.Cc_chain.oracle_of_profile ~image:img
                ~chunking:cfg.Softcache.Config.chunking
                ~edges_from:(Profiler.edges_from p)
                ~samples_at:(fun a -> Profiler.samples_in p ~lo:a ~hi:(a + 4)))
            prof
        else None
      in
      (* trrip primes its temperature prior only in deep thrash: the
         sizing estimate decides, and around or above the knee the
         unprimed policy is plain RRIP *)
      let temperature, trrip_note =
        match (eviction, prof) with
        | Softcache.Config.Trrip, Some p ->
          let est =
            Softcache.Sizing.estimate ~image:img
              ~chunking:cfg.Softcache.Config.chunking
              ~samples_in:(fun ~lo ~hi -> Profiler.samples_in p ~lo ~hi)
              ~sizes:[] ()
          in
          if Softcache.Sizing.deep_thrash est ~tcache_bytes:tcache then
            let classify = Profiler.temperature_classifier p in
            ( Some
                (fun ~lo ~hi ->
                  match classify ~lo ~hi with
                  | Profiler.Hot -> Softcache.Policy.Hot
                  | Profiler.Warm -> Softcache.Policy.Warm
                  | Profiler.Cold -> Softcache.Policy.Cold),
              Some
                (Printf.sprintf
                   "primed (predicted need %d B, tcache %d B: deep thrash)"
                   est.Softcache.Sizing.predicted_bytes tcache) )
          else
            ( None,
              Some
                (Printf.sprintf
                   "unprimed (predicted need %d B, tcache %d B: plain RRIP)"
                   est.Softcache.Sizing.predicted_bytes tcache) )
        | _ -> (None, None)
      in
      ctrl.prefetch_ranker <- ranker;
      ctrl.chain_oracle <- oracle;
      Softcache.Controller.set_temperature_oracle ctrl temperature;
      ctrl.dynamic_text_hint <-
        Option.map (fun p -> Profiler.dynamic_text_bytes p) prof;
      let tracer =
        Option.map
          (fun _ ->
            let tr = Trace.create ~limit:cfg.trace_limit () in
            Softcache.Controller.attach_tracer ctrl tr;
            tr)
          trace_out
      in
      let audits =
        if audit then Some (Check.Audit.install ctrl) else None
      in
      if harts > 1 then begin
        (* sharded multi-hart path: N hart contexts replay the workload
           over one shared tcache under the seeded interleaving
           scheduler *)
        let sh = Softcache.Shard.attach ctrl in
        let status =
          Softcache.Runner.status_of (fun () -> Softcache.Shard.run sh)
        in
        Report.kv "native cycles" (string_of_int native.cycles);
        (match status with
        | Softcache.Runner.Finished _ -> ()
        | stopped ->
          Report.kv "status"
            (Format.asprintf "%a" Softcache.Runner.pp_status stopped));
        Report.kv "harts"
          (Printf.sprintf "%d over %d tcache shard(s), sched seed %d" harts
             shards sched_seed);
        Report.kv "makespan" (string_of_int (Softcache.Shard.makespan sh));
        Report.kv "total cpu cycles"
          (string_of_int (Softcache.Shard.total_cycles sh));
        List.iter
          (fun (h : Softcache.Shard.hart) ->
            Format.printf "  %a@." Softcache.Shard.pp_hart h)
          (Softcache.Shard.harts sh);
        let ok =
          List.for_all
            (fun (h : Softcache.Shard.hart) ->
              h.h_cpu.halted && Machine.Cpu.outputs h.h_cpu = native.outputs)
            (Softcache.Shard.harts sh)
        in
        Report.kv "outputs match (all harts)" (string_of_bool ok);
        (match audits with
        | Some n ->
          Report.kv "audit" (Printf.sprintf "on, %d audits passed" !n)
        | None -> ());
        let shard_viols = if audit then Check.Audit.shards sh else [] in
        if audit then
          Report.kv "shard audit"
            (if shard_viols = [] then "clean"
             else Printf.sprintf "%d violations" (List.length shard_viols));
        List.iter
          (fun v ->
            Format.printf "  audit violation: %a@." Check.Audit.pp_violation
              v)
          shard_viols;
        (* no attribution summary: its ledger conserves against one
           cycle counter, and the ring's clock hops between harts *)
        (match (trace_out, tracer) with
        | Some path, Some tr -> export_trace ~format:trace_format path tr
        | _ -> ());
        Format.printf "  stats: %a@." Softcache.Stats.pp ctrl.stats;
        exit_code status ~ok:(ok && shard_viols = [])
      end
      else begin
      let status =
        Softcache.Runner.status_of (fun () -> Softcache.Controller.run ctrl)
      in
      let cycles = ctrl.cpu.cycles and retired = ctrl.cpu.retired in
      Report.kv "native cycles" (string_of_int native.cycles);
      Report.kv "softcache cycles" (string_of_int cycles);
      Report.kv "status"
        (Format.asprintf "%a" Softcache.Runner.pp_status status);
      (match status with
      | Softcache.Runner.Finished _ ->
        Report.kv "relative execution time"
          (Printf.sprintf "%.3f"
             (if native.cycles = 0 then nan
              else float_of_int cycles /. float_of_int native.cycles));
        Report.kv "tcache miss rate"
          (Printf.sprintf "%.6f (%d translations / %d instrs)"
             (Softcache.Stats.miss_rate ctrl.stats ~retired)
             ctrl.stats.translations retired)
      | Softcache.Runner.Unavailable _ | Softcache.Runner.Tcache_too_small
      | Softcache.Runner.Chunk_too_large _ ->
        ());
      let ok =
        status = Softcache.Runner.Finished Machine.Cpu.Halted
        && native.outputs = Machine.Cpu.outputs ctrl.cpu
      in
      Report.kv "outputs match" (string_of_bool ok);
      Report.kv "replacement policy"
        (Softcache.Config.eviction_name eviction);
      (match trrip_note with
      | Some s -> Report.kv "trrip prior" s
      | None -> ());
      (match audits with
      | Some n -> Report.kv "audit" (Printf.sprintf "on, %d audits passed" !n)
      | None -> ());
      (match (trace_out, tracer) with
      | Some path, Some tr ->
        export_trace ~format:trace_format path tr;
        print_trace_summary ~total:ctrl.cpu.cycles tr
      | _ -> ());
      Format.printf "  stats: %a@." Softcache.Stats.pp ctrl.stats;
      Format.printf "  %a@." Netmodel.pp cfg.net;
      exit_code status ~ok
      end)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a workload natively and under the SoftCache")
    Term.(const run $ workload_arg $ tcache_arg $ chunking_arg $ eviction_arg
          $ granularity_arg $ network_arg $ faults_arg $ audit_arg
          $ engine_arg $ prefetch_arg $ staging_arg $ chain_arg
          $ superblock_arg $ harts_arg $ shards_arg $ sched_seed_arg
          $ trace_out_arg $ trace_format_arg $ trace_limit_arg $ verbose_arg)

let profile_cmd =
  let run name =
    match find_workload name with
    | Error e -> prerr_endline e; 1
    | Ok entry ->
      let img = entry.build () in
      let prof, cpu = Profiler.profile img in
      Format.printf "%a@." Profiler.pp prof;
      Report.kv "retired instructions" (string_of_int cpu.retired);
      Report.kv "static .text" (Report.fmt_bytes (Isa.Image.static_text_bytes img));
      Report.kv "dynamic .text" (Report.fmt_bytes (Profiler.dynamic_text_bytes prof));
      Report.kv "hot code (90%)" (Report.fmt_bytes (Profiler.hot_bytes prof));
      0
  in
  Cmd.v (Cmd.info "profile" ~doc:"Flat profile and footprints")
    Term.(const run $ workload_arg)

let sweep_cmd =
  let run name chunking =
    match find_workload name with
    | Error e -> prerr_endline e; 1
    | Ok entry ->
      let img = entry.build () in
      let series =
        Report.Series.create
          ~title:(Printf.sprintf "tcache miss rate vs size — %s" name)
          ~xlabel:"tcache KB" ~ylabel:"miss rate %"
      in
      List.iter
        (fun kb ->
          let cfg =
            Softcache.Config.make ~tcache_bytes:(kb * 1024 / 8) ~chunking ()
          in
          (* kb is in eighths of a KB to get sub-KB points *)
          match Softcache.Runner.cached cfg img with
          | cached, ctrl ->
            Report.Series.add series
              (float_of_int kb /. 8.0)
              (100.0
              *. Softcache.Stats.miss_rate ctrl.stats ~retired:cached.retired)
          | exception Softcache.Controller.Chunk_too_large _ -> ())
        [ 2; 4; 8; 16; 32; 64; 128; 256; 512; 800 ];
      Report.Series.print series;
      0
  in
  Cmd.v (Cmd.info "sweep" ~doc:"Software-cache miss rate vs tcache size")
    Term.(const run $ workload_arg $ chunking_arg)

let threshold_arg =
  let doc =
    "Dominant-set cumulative sample share (the paper's gprof 90% rule)."
  in
  Arg.(value & opt float 0.9 & info [ "threshold" ] ~docv:"SHARE" ~doc)

let headroom_arg =
  let doc =
    "Inflation over the rewritten dominant footprint, covering the \
     persistent stub area, sweep fragmentation and tail duplication."
  in
  Arg.(value & opt float 1.4 & info [ "headroom" ] ~docv:"FACTOR" ~doc)

let sizing_cmd =
  let run name chunking threshold headroom =
    match find_workload name with
    | Error e -> prerr_endline e; 1
    | Ok entry -> (
      let img = entry.build () in
      let prof, _ = Profiler.profile img in
      match
        Softcache.Sizing.estimate ~threshold ~headroom ~image:img ~chunking
          ~samples_in:(fun ~lo ~hi -> Profiler.samples_in prof ~lo ~hi)
          ~sizes:[ 256; 512; 1024; 2048; 4096; 8192; 16384; 32768; 65536 ]
          ()
      with
      | exception Invalid_argument m -> prerr_endline m; 1
      | est ->
        Report.kv "chunks walked" (string_of_int est.chunks_walked);
        Report.kv "dominant chunks"
          (Printf.sprintf "%d (%.0f%% of samples)" est.dominant_chunks
             (100.0 *. threshold));
        Report.kv "dominant source"
          (Report.fmt_bytes est.dominant_source_bytes);
        Report.kv "dominant rewritten"
          (Report.fmt_bytes est.dominant_tcache_bytes);
        Report.kv "predicted tcache need"
          (Report.fmt_bytes est.predicted_bytes);
        Report.kv "predicted knee"
          (match est.predicted_knee with
          | Some b -> Report.fmt_bytes b
          | None -> "beyond 64 KB");
        (* deep_thrash holds exactly below half the predicted need *)
        Report.kv "trrip prior primed below"
          (Report.fmt_bytes (est.predicted_bytes / 2));
        let t =
          Report.Table.create ~title:"hottest chunks"
            ~columns:[ "vaddr"; "source"; "rewritten"; "samples" ]
        in
        List.iteri
          (fun i (c : Softcache.Sizing.chunk_info) ->
            if i < 12 && c.ci_samples > 0 then
              Report.Table.add_row t
                [
                  Printf.sprintf "0x%x" c.ci_vaddr;
                  Report.fmt_bytes c.ci_span_bytes;
                  Report.fmt_bytes c.ci_tcache_bytes;
                  string_of_int c.ci_samples;
                ])
          est.chunks;
        Report.Table.print t;
        0)
  in
  Cmd.v
    (Cmd.info "sizing"
       ~doc:
         "Predict the smallest acceptable tcache size from a static CFG \
          walk plus a profiling pre-run (the Fig. 7 knee, analytically)")
    Term.(const run $ workload_arg $ chunking_arg $ threshold_arg
          $ headroom_arg)

let hwsweep_cmd =
  let run name =
    match find_workload name with
    | Error e -> prerr_endline e; 1
    | Ok entry ->
      let img = entry.build () in
      let sizes = [ 128; 256; 512; 1024; 2048; 4096; 8192; 16384; 32768 ] in
      let caches =
        List.map (fun s -> (s, Hwcache.create ~size_bytes:s ())) sizes
      in
      let cpu = Machine.Cpu.of_image img in
      cpu.on_fetch <-
        Some (fun a -> List.iter (fun (_, c) -> ignore (Hwcache.access c a)) caches);
      let _ = Machine.Cpu.run cpu in
      let series =
        Report.Series.create
          ~title:(Printf.sprintf "hardware I-cache miss rate vs size — %s" name)
          ~xlabel:"cache KB" ~ylabel:"miss rate %"
      in
      List.iter
        (fun (s, c) ->
          Report.Series.add series
            (float_of_int s /. 1024.0)
            (100.0 *. Hwcache.miss_rate c))
        caches;
      Report.Series.print series;
      0
  in
  Cmd.v
    (Cmd.info "hwsweep" ~doc:"Hardware-cache miss rate vs size (baseline)")
    Term.(const run $ workload_arg)

let dcache_cmd =
  let run name trace_out trace_format trace_limit =
    match find_workload name with
    | Error e -> prerr_endline e; 1
    | Ok entry ->
      let img = entry.build () in
      let cfg = Dcache.Config.make () in
      let tracer =
        match trace_out with
        | Some _ -> Some (Trace.create ~limit:trace_limit ())
        | None -> None
      in
      let outcome, cpu, stats = Dcache.Sim.run ?tracer cfg img in
      Report.kv "outcome"
        (match outcome with
        | Machine.Cpu.Halted -> "halted"
        | Machine.Cpu.Out_of_fuel -> "out of fuel");
      Format.printf "  %a@." Dcache.Sim.pp_stats stats;
      Report.kv "cycles (with d-cache)" (string_of_int cpu.cycles);
      Report.kv "guaranteed latency"
        (Printf.sprintf "%d cycles (slow hit)"
           (Dcache.Sim.guaranteed_latency_cycles cfg));
      (match (trace_out, tracer) with
      | Some path, Some tr ->
        export_trace ~format:trace_format path tr;
        print_trace_summary ~total:cpu.cycles tr
      | _ -> ());
      0
  in
  Cmd.v (Cmd.info "dcache" ~doc:"Run under the Section 3 software data cache")
    Term.(const run $ workload_arg $ trace_out_arg $ trace_format_arg
          $ trace_limit_arg)

let fullsystem_cmd =
  let run name tcache =
    match find_workload name with
    | Error e -> prerr_endline e; 1
    | Ok entry -> (
      let img = entry.build () in
      match
        let icfg = Softcache.Config.make ~tcache_bytes:tcache () in
        (icfg, Dcache.Config.make (), Softcache.Controller.create icfg img)
      with
      | exception Invalid_argument m -> prerr_endline m; 1
      | icfg, dcfg, ctrl ->
      let native = Softcache.Runner.native img in
      let full = Dcache.Fullsystem.run ctrl dcfg in
      Report.kv "local memory"
        (Report.fmt_bytes (Dcache.Fullsystem.local_memory_bytes icfg dcfg));
      Report.kv "I+D slowdown"
        (Printf.sprintf "%.3f"
           (float_of_int full.cycles /. float_of_int native.cycles));
      Format.printf "  icache: %a@." Softcache.Stats.pp full.icache_stats;
      Format.printf "  dcache: %a@." Dcache.Sim.pp_stats full.dcache_stats;
      Report.kv "outputs match" (string_of_bool (full.outputs = native.outputs));
      if full.outputs = native.outputs then 0 else 2)
  in
  Cmd.v
    (Cmd.info "fullsystem"
       ~doc:"Run with the complete memory system: tcache + scache + dcache")
    Term.(const run $ workload_arg $ tcache_arg)

let fleet_cmd =
  let clients_arg =
    let doc = "Number of CC clients sharing the one MC uplink." in
    Arg.(value & opt int 4 & info [ "clients" ] ~docv:"N" ~doc)
  in
  let no_dedup_arg =
    let doc =
      "Disable the MC's shared content-addressed chunk cache (each client's \
       requests are chunked, CRC-stamped and coalesced independently)."
    in
    Arg.(value & flag & info [ "no-dedup" ] ~doc)
  in
  let fuel_arg =
    let doc = "Instruction budget per client." in
    Arg.(value & opt int 2_000_000 & info [ "fuel" ] ~docv:"N" ~doc)
  in
  let workloads_arg =
    let doc =
      "Heterogeneous fleet: comma-separated workload names assigned \
       round-robin to the clients (client $(i,i) runs the $(i,i) mod \
       $(i,len)-th name). Overrides the positional workload."
    in
    Arg.(value & opt (some string) None
         & info [ "workloads" ] ~docv:"W1,W2,..." ~doc)
  in
  let auto_size_arg =
    let doc =
      "Size each client's tcache by the analytic model: a profiling \
       pre-run of its workload feeds $(b,Sizing.estimate), and a client \
       configured below the predicted need is admitted at the predicted \
       size instead. The summary reports predicted vs configured."
    in
    Arg.(value & flag & info [ "auto-size" ] ~doc)
  in
  let run name clients no_dedup fuel tcache chunking eviction granularity
      harts shards sched_seed workloads auto_size network faults audit verbose
      =
    setup_logs verbose;
    let named =
      match workloads with
      | None -> Ok [ name ]
      | Some s ->
        Ok (List.filter (fun w -> w <> "") (String.split_on_char ',' s))
    in
    let resolve acc n =
      match (acc, find_workload n) with
      | (Error _ as e), _ -> e
      | Ok _, Error e -> Error e
      | Ok es, Ok e -> Ok (es @ [ e ])
    in
    match Result.bind named (List.fold_left resolve (Ok [])) with
    | Error e -> prerr_endline e; 1
    | Ok [] -> prerr_endline "no workloads given"; 1
    | Ok entries -> (
      let images =
        Array.of_list
          (List.map (fun (e : Workloads.Registry.entry) -> e.build ()) entries)
      in
      let net =
        match network with
        | `Local -> Netmodel.local ?faults ()
        | `Ethernet -> Netmodel.ethernet_10mbps ?faults ()
      in
      let mk_cfg _ =
        Softcache.Config.make ~tcache_bytes:tcache ~chunking ~eviction
          ~granularity ~harts ~shards ~sched_seed ~net ()
      in
      (* the analytic admission model: one profiling pre-run per distinct
         image (memoized), then Sizing.estimate's predicted need *)
      let sizing =
        if not auto_size then None
        else begin
          let memo = Hashtbl.create 4 in
          Some
            (fun i ->
              let img = images.(i mod Array.length images) in
              match Hashtbl.find_opt memo img.Isa.Image.name with
              | Some p -> p
              | None ->
                let prof, _ = Profiler.profile img in
                let est =
                  Softcache.Sizing.estimate ~image:img ~chunking
                    ~samples_in:(fun ~lo ~hi ->
                      Profiler.samples_in prof ~lo ~hi)
                    ~sizes:[] ()
                in
                let p = Some est.Softcache.Sizing.predicted_bytes in
                Hashtbl.replace memo img.Isa.Image.name p;
                p)
        end
      in
      match
        Fleet.create ~clients ~dedup:(not no_dedup) ?sizing ~net mk_cfg images
      with
      | exception Invalid_argument m -> prerr_endline m; 1
      | fl ->
        Fleet.run ~fuel fl;
        Fleet.print_summary fl;
        if audit then begin
          let violations = Check.Audit.fleet fl in
          Report.kv "audit"
            (if violations = [] then "clean"
             else Printf.sprintf "%d violations" (List.length violations));
          List.iter
            (fun v ->
              Format.printf "  audit violation: %a@." Check.Audit.pp_violation
                v)
            violations;
          if violations <> [] then 2 else 0
        end
        else 0)
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:"Simulate one MC serving N clients over a shared link")
    Term.(const run $ workload_arg $ clients_arg $ no_dedup_arg $ fuel_arg
          $ tcache_arg $ chunking_arg $ eviction_arg $ granularity_arg
          $ harts_arg $ shards_arg $ sched_seed_arg $ workloads_arg
          $ auto_size_arg $ network_arg $ faults_arg $ audit_arg $ verbose_arg)

let trace_cmd =
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE" ~doc:"Write CSV there (default stdout).")
  in
  let limit_arg =
    Arg.(value & opt int 10_000
         & info [ "limit" ] ~docv:"N" ~doc:"Record at most N events.")
  in
  let run name out limit =
    match find_workload name with
    | Error e -> prerr_endline e; 1
    | Ok entry ->
      let img = entry.build () in
      let cpu = Machine.Cpu.of_image img in
      let buf = Buffer.create (limit * 16) in
      Buffer.add_string buf "kind,address\n";
      let n = ref 0 in
      let record kind a =
        if !n < limit then begin
          incr n;
          Buffer.add_string buf (Printf.sprintf "%s,0x%x\n" kind a)
        end
      in
      cpu.on_fetch <- Some (record "fetch");
      cpu.on_load <- Some (record "load");
      cpu.on_store <- Some (record "store");
      let _ = Machine.Cpu.run ~fuel:(limit * 2) cpu in
      (match out with
      | Some f -> Out_channel.with_open_text f (fun oc ->
          Out_channel.output_string oc (Buffer.contents buf));
        Printf.printf "wrote %d events to %s\n" !n f
      | None -> print_string (Buffer.contents buf));
      0
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Export a fetch/load/store address trace as CSV")
    Term.(const run $ workload_arg $ out_arg $ limit_arg)

let disasm_cmd =
  let tcache_flag =
    Arg.(value & flag
         & info [ "tcache-view" ]
             ~doc:"Run briefly under the SoftCache and dump the rewritten \
                   translation-cache contents instead of the source image.")
  in
  let run name tcache_view =
    match find_workload name with
    | Error e -> prerr_endline e; 1
    | Ok entry ->
      let img = entry.build () in
      if not tcache_view then begin
        print_string (Isa.Disasm.image img);
        0
      end
      else begin
        let ctrl =
          Softcache.Controller.create
            (Softcache.Config.make ~tcache_bytes:4096 ())
            img
        in
        let _ = Softcache.Controller.run ~fuel:50_000 ctrl in
        print_string (Softcache.Debug.summary ctrl);
        print_newline ();
        print_string (Softcache.Debug.dump_blocks ctrl);
        (match Softcache.Debug.disasm_block ctrl img.entry with
        | Some s ->
          Printf.printf "\nentry chunk as rewritten:\n%s" s
        | None -> ());
        0
      end
  in
  Cmd.v
    (Cmd.info "disasm"
       ~doc:"Disassemble a workload (or its rewritten tcache contents)")
    Term.(const run $ workload_arg $ tcache_flag)

let asm_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"ERISC assembly source")
  in
  let run file tcache =
    let source = In_channel.with_open_text file In_channel.input_all in
    match Isa.Assembler.assemble ~name:file source with
    | Error e -> Printf.eprintf "%s: %s\n" file e; 1
    | Ok img -> (
      match
        Softcache.Controller.create
          (Softcache.Config.make ~tcache_bytes:tcache ())
          img
      with
      | exception Invalid_argument m -> prerr_endline m; 1
      | ctrl ->
      let native = Softcache.Runner.native img in
      ignore (Softcache.Controller.run ctrl : Machine.Cpu.outcome);
      let ok = native.outputs = Machine.Cpu.outputs ctrl.cpu in
      Report.kv "outputs"
        (String.concat ", " (List.map string_of_int native.outputs));
      Report.kv "native cycles" (string_of_int native.cycles);
      Report.kv "softcache cycles" (string_of_int ctrl.cpu.cycles);
      Report.kv "outputs match" (string_of_bool ok);
      Format.printf "  stats: %a@." Softcache.Stats.pp ctrl.stats;
      if ok then 0 else 2)
  in
  Cmd.v (Cmd.info "asm" ~doc:"Assemble and run an ERISC source file")
    Term.(const run $ file_arg $ tcache_arg)

let () =
  let doc = "software caching using dynamic binary rewriting" in
  let info = Cmd.info "softcache" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ list_cmd; run_cmd; profile_cmd; sweep_cmd; sizing_cmd;
            hwsweep_cmd; dcache_cmd; fullsystem_cmd; fleet_cmd; disasm_cmd;
            trace_cmd; asm_cmd ]))
