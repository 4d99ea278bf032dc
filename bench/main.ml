(* Benchmark harness: regenerates every table and figure of the paper.

     dune exec bench/main.exe              -- run everything
     dune exec bench/main.exe -- fig5 fig7 -- run selected experiments

   The experiments are listed in [experiments] at the end of the file.
   Absolute numbers come from the simulator's cost model; the claims
   reproduced are the paper's *shapes* (who wins, where the knees fall,
   which ratios hold). *)

let fmt_f = Printf.sprintf "%.3f"

(* ------------------------------------------------------------------ *)
(* Shared harness plumbing. Every softcache run goes through [cell], and
   a gated sweep names each cell's fields once, in a row rendered both
   as a table row and as a BENCH_*.json object. *)

(* Gate failures of the running experiment; the exit status counts
   every experiment's. *)
let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      Report.kv "FAIL" s)
    fmt

(* A workload image and its native reference, run at most once. *)
type subject = {
  name : string;
  img : Isa.Image.t;
  native : Softcache.Runner.result Lazy.t;
}

let subject name img =
  { name; img; native = lazy (Softcache.Runner.native img) }

let compress () = subject Workloads.Compress.name (Workloads.Compress.image ())

let adpcm_encode () =
  subject Workloads.Adpcm.name_encode (Workloads.Adpcm.encode_image ())

let subjects =
  List.map (fun (e : Workloads.Registry.entry) -> subject e.name (e.build ()))

let registry () = subjects Workloads.Registry.all

let only names =
  subjects
    (List.filter
       (fun (e : Workloads.Registry.entry) -> List.mem e.name names)
       Workloads.Registry.all)

(* Report an audit's violations as one gate failure. *)
let audit_gate label = function
  | [] -> ()
  | v :: _ as vs ->
    fail "%s: %d violations (first: %s)" label (List.length vs)
      (Format.asprintf "%a" Check.Audit.pp_violation v)

type cell = {
  run : Softcache.Runner.robust;
  ctrl : Softcache.Controller.t;
  ok : bool;  (** halted with the native outputs *)
}

(* The bench's one softcache run: [cfg] on [w], with [prepare] applied
   to the fresh controller. A cell that is not [ok] is a gate failure
   (named [label], by default workload/tcache size) unless
   [~check:false]: runs cut short by [fuel], runs over a lossy link;
   [~audit] also gates on Check.Audit.run of the final state. [None]
   when the tcache cannot place the workload's largest chunk, a gate
   failure unless [~too_large_ok:true]. *)
let cell ?fuel ?prepare ?label ?(check = true) ?(audit = false)
    ?(too_large_ok = false) w (cfg : Softcache.Config.t) =
  let label =
    match label with
    | Some l -> l
    | None -> Printf.sprintf "%s/%dB" w.name cfg.tcache_bytes
  in
  match Softcache.Runner.cached_robust ?fuel ?prepare cfg w.img with
  | { status = Softcache.Runner.Chunk_too_large _; _ }, _ ->
    if not too_large_ok then fail "%s: chunk too large" label;
    None
  | run, ctrl ->
    let ok =
      run.status = Softcache.Runner.Finished Machine.Cpu.Halted
      && run.outputs = (Lazy.force w.native).outputs
    in
    if check && not ok then fail "%s: outputs diverge from native" label;
    if audit then audit_gate (label ^ " audit") (Check.Audit.run ctrl);
    Some { run; ctrl; ok }

let slowdown w c =
  float_of_int c.run.cycles /. float_of_int (Lazy.force w.native).cycles

let miss_rate c = Softcache.Stats.miss_rate c.ctrl.stats ~retired:c.run.retired

(* A field's value, typed so that one row renders both as a table row
   and as a JSON object. *)
type value =
  | Int of int
  | Bytes of int  (** [Report.fmt_bytes] in tables *)
  | Str of string
  | Bool of bool
  | Outputs of bool  (** "ok"/"MISMATCH" in tables *)
  | Ratio of float  (** %.3f in tables, %.4f in JSON *)
  | Secs of float  (** milliseconds in tables *)
  | Opt of value option  (** "-" in tables, null in JSON *)
  | Names of string list
  | Text of string  (** tables only *)

type row = (string * value) list

let rec text = function
  | Int n -> string_of_int n
  | Bytes n -> Report.fmt_bytes n
  | Str s | Text s -> s
  | Bool b -> string_of_bool b
  | Outputs ok -> if ok then "ok" else "MISMATCH"
  | Ratio x -> fmt_f x
  | Secs s -> Printf.sprintf "%.3f" (1e3 *. s)
  | Opt v -> Option.fold ~none:"-" ~some:text v
  | Names l -> String.concat ", " l

let rec json = function
  | Int n | Bytes n -> string_of_int n
  | Str s | Text s -> Printf.sprintf "%S" s
  | Bool b | Outputs b -> string_of_bool b
  | Ratio x -> Printf.sprintf "%.4f" x
  | Secs s -> Printf.sprintf "%.6f" s
  | Opt v -> Option.fold ~none:"null" ~some:json v
  | Names l ->
    Printf.sprintf "[%s]"
      (String.concat ", " (List.map (Printf.sprintf "%S") l))

(* A JSON array of one-line objects, table-only fields left out. *)
let json_rows (rows : row list) =
  let field = function
    | _, Text _ -> None
    | k, v -> Some (Printf.sprintf "%S: %s" k (json v))
  in
  let obj r = "    { " ^ String.concat ", " (List.filter_map field r) ^ " }" in
  Printf.sprintf "[\n%s\n  ]" (String.concat ",\n" (List.map obj rows))

(* A table that keeps its rows for the JSON grid. [columns] pairs each
   header with the key of the field it shows; a row without that field
   shows "-". *)
type sheet = {
  table : Report.Table.t;
  keys : string list;
  mutable kept : row list;  (** newest first *)
}

let sheet ~title columns =
  let table = Report.Table.create ~title ~columns:(List.map fst columns) in
  { table; keys = List.map snd columns; kept = [] }

(* [show] prints a row; [add] also keeps it. *)
let show s (r : row) =
  Report.Table.add_row s.table
    (List.map (fun k -> Option.fold ~none:"-" ~some:text (List.assoc_opt k r))
       s.keys)

let add s r =
  show s r;
  s.kept <- r :: s.kept

let rows s = List.rev s.kept

(* The [key] field of the first row holding every [where] field. *)
let lookup rows where key =
  List.find_map
    (fun r ->
      if List.for_all (fun f -> List.mem f r) where then List.assoc_opt key r
      else None)
    rows

(* Emit a BENCH_*.json artifact: the "benchmark" tag, then [fields] as
   (key, rendered JSON) pairs. *)
let emit_json ~file ~benchmark fields =
  let oc = open_out file in
  Printf.fprintf oc "{\n  \"benchmark\": %S%s\n}\n" benchmark
    (String.concat ""
       (List.map (fun (k, v) -> Printf.sprintf ",\n  %S: %s" k v) fields));
  close_out oc;
  Report.kv "written" file

(* The workload x tcache size x variant grid of the policy, chain and
   granularity sweeps, one cell per point. [variants w] gives each
   variant's name, config for a tcache size and prepare hook; [fields]
   reads a finished cell's numbers for the middle [columns]. *)
let grid_sweep ~title ~axis ?(workloads = registry ()) ~sizes ?audit
    ?too_large_ok ~variants columns fields =
  let t =
    sheet ~title
      ([ ("app", "name"); ("tcache", "tcache_bytes"); (axis, axis) ]
      @ columns @ [ ("outputs", "outputs_ok") ])
  in
  List.iter
    (fun w ->
      let vs = variants w in
      List.iter
        (fun bytes ->
          List.iter
            (fun (v, cfg, prepare) ->
              let key =
                [ ("name", Str w.name); ("tcache_bytes", Bytes bytes);
                  (axis, Str v) ]
              in
              let label = Printf.sprintf "%s/%s/%dB" w.name v bytes in
              match
                cell ~label ?audit ?too_large_ok ~prepare w (cfg bytes)
              with
              | Some c ->
                add t (key @ fields c @ [ ("outputs_ok", Outputs c.ok) ])
              | None -> show t (key @ [ ("cycles", Text "chunk too large") ]))
            vs)
        sizes)
    workloads;
  Report.Table.print t.table;
  rows t

(* The [key] number of grid cell ([name], [bytes], [v]). *)
let at grid ~axis name bytes v key =
  match
    lookup grid
      [ ("name", Str name); ("tcache_bytes", Bytes bytes); (axis, Str v) ]
      key
  with
  | Some (Int n) -> Some n
  | _ -> None

let each_cell names sizes f = List.iter (fun n -> List.iter (f n) sizes) names

(* Lockstep verdicts as (ok, text). *)
let engines_verdict = function
  | Check.Lockstep.Engines_equivalent { steps } ->
    (true, Printf.sprintf "ok (%d steps)" steps)
  | Check.Lockstep.Engines_out_of_fuel { steps } ->
    (true, Printf.sprintf "ok (fuel, %d steps)" steps)
  | v -> (false, Format.asprintf "%a" Check.Lockstep.pp_engine_verdict v)

let modes_verdict v =
  ( (match v with Check.Lockstep.Modes_equivalent _ -> true | _ -> false),
    Format.asprintf "%a" Check.Lockstep.pp_modes_verdict v )

(* A verdict that is not ok is a gate failure. *)
let gate_verdict name ((ok, text) as v) =
  if not ok then fail "%s lockstep: %s" name text;
  v

(* The registry-wide lockstep table, one [verdict] per workload; returns
   the JSON "lockstep" rows. *)
let lockstep_table ~title ~what verdict =
  let t = sheet ~title [ ("app", "name"); ("verdict", "verdict") ] in
  List.iter
    (fun w ->
      let ok, s = gate_verdict (w.name ^ " " ^ what) (verdict w) in
      add t [ ("name", Str w.name); ("ok", Bool ok); ("verdict", Str s) ])
    (registry ());
  Report.Table.print t.table;
  json_rows (rows t)

(* What one profiling pre-run yields: sample counts per address range
   (the prefetch ranker, the sizing estimate), the superblock chain
   oracle, trrip's temperature prior and the dynamic text size the
   superblock knee guard reads. *)
type oracles = {
  samples_in : lo:int -> hi:int -> int;
  chain : int -> (int * int) option;
  temperature : lo:int -> hi:int -> Softcache.Policy.temperature;
  dynamic_text : int;
}

let profile_oracles ?fuel img =
  let prof, _ = Profiler.profile ?fuel img in
  let samples_in ~lo ~hi = Profiler.samples_in prof ~lo ~hi in
  let classify = Profiler.temperature_classifier prof in
  {
    samples_in;
    chain =
      Softcache.Cc_chain.oracle_of_profile ~image:img
        ~chunking:Softcache.Config.Basic_block
        ~edges_from:(Profiler.edges_from prof)
        ~samples_at:(fun a -> samples_in ~lo:a ~hi:(a + 4));
    temperature =
      (fun ~lo ~hi ->
        match classify ~lo ~hi with
        | Profiler.Hot -> Softcache.Policy.Hot
        | Profiler.Warm -> Softcache.Policy.Warm
        | Profiler.Cold -> Softcache.Policy.Cold);
    dynamic_text = Profiler.dynamic_text_bytes prof;
  }

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
  let w = compress () in
  Report.kv "ideal (native)" "1.000";
  List.iter
    (fun (label, bytes) ->
      let cfg = Softcache.Config.sparc_prototype ~tcache_bytes:bytes () in
      Option.iter
        (fun c ->
          Report.kv label
            (Printf.sprintf "%.3f  (%d translations, %d evicted blocks)"
               (slowdown w c) c.ctrl.stats.translations
               c.ctrl.stats.evicted_blocks))
        (cell w cfg))
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
    (fun w ->
      let series =
        Report.Series.create
          ~title:(Printf.sprintf "%s (software)" w.name)
          ~xlabel:"tcache KB" ~ylabel:"miss %"
      in
      List.iter
        (fun bytes ->
          let cfg = Softcache.Config.sparc_prototype ~tcache_bytes:bytes () in
          Option.iter
            (fun c ->
              Report.Series.add series
                (float_of_int bytes /. 1024.)
                (100. *. miss_rate c))
            (cell ~too_large_ok:true w cfg))
        sweep_sizes;
      Report.Series.print series)
    (subjects Workloads.Registry.table1)

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
  let w = subject "alias" img in
  let pct x = Printf.sprintf "%.3f%%" (100. *. x) in
  Report.kv "HW direct-mapped miss rate"
    (pct (Hwcache.miss_rate dm) ^ "  (the two modes evict each other)");
  Report.kv "HW fully associative" (pct (Hwcache.miss_rate fa_c));
  Option.iter
    (fun c ->
      Report.kv "softcache miss rate"
        (Printf.sprintf "%s  (slowdown %.3f; both modes coexist regardless of \
                         their addresses)"
           (pct (miss_rate c)) (slowdown w c)))
    (cell w (Softcache.Config.sparc_prototype ~tcache_bytes:cache_size ()))

(* ------------------------------------------------------------------ *)
(* Figure 8: paging vs CC memory size over time *)

let fig8 () =
  Report.section
    "Figure 8: evictions over time vs CC memory (adpcm encode, procedure \
     chunks; paper: 800B pages in steady state, 900B only at start + end \
     blip, 1KB less still; every cell audited after every event)";
  let w = adpcm_encode () in
  List.iter
    (fun bytes ->
      let cfg =
        Softcache.Config.make ~tcache_bytes:bytes
          ~chunking:Softcache.Config.Procedure ()
      in
      (* every eviction, stamped with the cycle it happened at *)
      let evictions = ref [] in
      let audits = ref (ref 0) in
      let prepare (ctrl : Softcache.Controller.t) =
        let prev = ctrl.on_event in
        ctrl.on_event <-
          Some
            (fun ev ->
              (match ev with
              | Softcache.Controller.Evicted n ->
                evictions := (ctrl.cpu.cycles, n) :: !evictions
              | _ -> ());
              Option.iter (fun f -> f ev) prev);
        audits := Check.Audit.install ctrl
      in
      let label = Printf.sprintf "%s/%dB" w.name bytes in
      (* an event whose audit fails stops the run; report it as a gate
         failure like any other *)
      match cell ~prepare ~audit:true w cfg with
      | exception Check.Audit.Audit_failure vs ->
        audit_gate (Printf.sprintf "%s audit %d" label !(!audits)) vs
      | None -> ()
      | Some c ->
        Report.kv (label ^ " audits clean") (string_of_int !(!audits));
        let total_cycles = max 1 c.run.cycles in
        let buckets = 10 in
        let counts = Array.make buckets 0 in
        List.iter
          (fun (cycle, n) ->
            let i = min (buckets - 1) (cycle * buckets / total_cycles) in
            counts.(i) <- counts.(i) + n)
          !evictions;
        let total = Array.fold_left ( + ) 0 counts in
        if total <> c.ctrl.stats.evicted_blocks then
          fail "%d B: bars sum to %d evictions, stats count %d" bytes total
            c.ctrl.stats.evicted_blocks;
        let series =
          Report.Series.create
            ~title:(Printf.sprintf "CC memory = %d B" bytes)
            ~xlabel:"run decile" ~ylabel:"evictions"
        in
        Array.iteri
          (fun i n ->
            Report.Series.add series (float_of_int (i + 1)) (float_of_int n))
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
  let w = compress () in
  let t =
    Report.Table.create ~title:"softcache space overheads (compress95)"
      ~columns:
        [ "tcache"; "code expansion"; "map+stub metadata"; "total";
          "hw tag array" ]
  in
  List.iter
    (fun size ->
      let cfg = Softcache.Config.sparc_prototype ~tcache_bytes:size () in
      Option.iter
        (fun c ->
          let s = c.ctrl.stats in
          let expansion =
            float_of_int s.overhead_words /. float_of_int s.translated_words
          in
          let metadata =
            float_of_int (Softcache.Controller.metadata_bytes c.ctrl)
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
        (cell w cfg))
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
  let w = adpcm_encode () in
  let net = Netmodel.ethernet_10mbps () in
  let cfg =
    Softcache.Config.make ~tcache_bytes:4096
      ~chunking:Softcache.Config.Procedure ~net ()
  in
  let (_ : cell option) = cell w cfg in
  let msgs = Netmodel.messages net in
  Report.kv "chunks downloaded" (string_of_int msgs);
  Report.kv "application payload" (Report.fmt_bytes (Netmodel.payload_bytes net));
  Report.kv "protocol overhead"
    (Printf.sprintf "%d B (= %d B/chunk)"
       (msgs * Netmodel.overhead_bytes_per_message net)
       (Netmodel.overhead_bytes_per_message net));
  Report.kv "total on the wire" (Report.fmt_bytes (Netmodel.total_bytes net))

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
    (fun w ->
      (* hardware data-cache baseline on the same access stream *)
      let hw = Hwcache.create ~assoc:2 ~block_bytes:32 ~size_bytes:8192 () in
      let native_cycles =
        let cpu = Machine.Cpu.of_image w.img in
        let feed a = ignore (Hwcache.access hw a) in
        cpu.on_load <- Some feed;
        cpu.on_store <- Some feed;
        ignore (Machine.Cpu.run cpu);
        cpu.cycles
      in
      List.iter
        (fun (pname, pred) ->
          let cfg = Dcache.Config.make ~prediction:pred () in
          let outcome, cpu, st = Dcache.Sim.run cfg w.img in
          if outcome <> Machine.Cpu.Halted then
            fail "%s/%s: dcache run did not halt" w.name pname;
          let pct n =
            if st.data_accesses = 0 then "-"
            else
              Printf.sprintf "%.1f%%"
                (100. *. float_of_int n /. float_of_int st.data_accesses)
          in
          Report.Table.add_row t
            [
              w.name;
              pname;
              pct st.const_hits;
              pct (st.fast_hits + st.second_chance_hits);
              pct st.slow_hits;
              pct st.misses;
              Printf.sprintf "%.1f%%" (100. *. Dcache.Sim.tag_checks_avoided st);
              Printf.sprintf "+%.1f%%"
                (100.
                *. float_of_int (cpu.cycles - native_cycles)
                /. float_of_int native_cycles);
              Printf.sprintf "%.2f%%" (100. *. Hwcache.miss_rate hw);
            ])
        [ ("same-idx", Dcache.Config.Same_index);
          ("2nd-chance", Dcache.Config.Second_chance) ])
    (only [ "compress95"; "hextobdd"; "gzip" ]);
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
  let w = compress () in
  Option.iter
    (fun c ->
      let native = Lazy.force w.native in
      let overhead = c.run.retired - native.retired in
      List.iter
        (fun size ->
          let te =
            Powermodel.Tag_energy.of_cache ~size_bytes:size ~block_bytes:16
              ~assoc:1
          in
          Report.kv
            (Printf.sprintf "tag energy saved (%s I-cache)"
               (Report.fmt_bytes size))
            (Printf.sprintf "%.1f%%"
               (100.
               *. Powermodel.Tag_energy.sw_saving te ~accesses:native.retired
                    ~overhead_instrs:overhead)))
        [ 8192; 32768 ])
    (cell w (Softcache.Config.sparc_prototype ()))

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
    (fun w ->
      List.iter
        (fun (cname, chunking, eviction) ->
          let net = Netmodel.create ~overhead_bytes:60 () in
          let cfg =
            Softcache.Config.make ~tcache_bytes:4096 ~chunking ~eviction ~net
              ()
          in
          Report.Table.add_row t
            (match
               cell ~label:(w.name ^ "/" ^ cname) ~too_large_ok:true w cfg
             with
            | Some c ->
              [
                w.name;
                cname;
                fmt_f (slowdown w c);
                string_of_int c.ctrl.stats.translations;
                string_of_int c.ctrl.stats.evicted_blocks;
                string_of_int c.ctrl.stats.flushes;
                Report.fmt_bytes (Netmodel.total_bytes net);
              ]
            | None -> [ w.name; cname; "chunk too large"; "-"; "-"; "-"; "-" ]))
        [
          ("bb/fifo", Softcache.Config.Basic_block, Softcache.Config.Fifo);
          ("bb/flush", Softcache.Config.Basic_block, Softcache.Config.Flush_all);
          ("proc/fifo", Softcache.Config.Procedure, Softcache.Config.Fifo);
          ("proc/flush", Softcache.Config.Procedure, Softcache.Config.Flush_all);
        ])
    (only [ "compress95"; "hextobdd" ]);
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
    (fun w ->
      let icfg = Softcache.Config.make ~tcache_bytes:(16 * 1024) () in
      let dcfg = Dcache.Config.make () in
      Option.iter
        (fun c ->
          let native = Lazy.force w.native in
          let full =
            Dcache.Fullsystem.run
              (Softcache.Controller.create icfg w.img)
              dcfg
          in
          if full.outputs <> native.outputs then
            fail "%s: full-system outputs diverge from native" w.name;
          Report.Table.add_row t
            [
              w.name;
              Report.fmt_bytes (Dcache.Fullsystem.local_memory_bytes icfg dcfg);
              fmt_f (slowdown w c);
              fmt_f (float_of_int full.cycles /. float_of_int native.cycles);
              Printf.sprintf "%.1f%%"
                (100. *. Dcache.Sim.tag_checks_avoided full.dcache_stats);
            ])
        (cell w icfg))
    (only [ "compress95"; "adpcm_encode"; "sensor_modes" ]);
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
    (fun w ->
      List.iter
        (fun (label, bind) ->
          let cfg =
            Softcache.Config.make ~tcache_bytes:(16 * 1024)
              ~bind_at_translate:bind ()
          in
          Option.iter
            (fun c ->
              Report.Table.add_row t
                [
                  w.name;
                  label;
                  fmt_f (slowdown w c);
                  string_of_int c.ctrl.stats.patches;
                  string_of_int c.run.cycles;
                ])
            (cell ~label:(w.name ^ "/" ^ label) w cfg))
        [ ("at translate", true); ("trap first", false) ])
    (only [ "compress95"; "adpcm_encode" ]);
  Report.Table.print t

(* ------------------------------------------------------------------ *)
(* Network latency sweep: when is remote paging viable? *)

let netsweep () =
  Report.section
    "Network latency sweep (adpcm encode, procedure chunks): remote paging      is viable when the working set fits; thrashing multiplies every RTT";
  let w = adpcm_encode () in
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
        let label = Printf.sprintf "%s/%dB/rtt %d" w.name bytes rtt in
        match cell ~label w cfg with
        | Some c -> fmt_f (slowdown w c)
        | None -> "-"
      in
      Report.Table.add_row t [ string_of_int rtt; run 1024; run 800 ])
    [ 0; 1_000; 10_000; 100_000; 1_000_000 ];
  Report.Table.print t

let faultsweep () =
  Report.section
    "Fault sweep (adpcm encode, procedure chunks, 10 Mbps ethernet): how \
     much does a lossy interconnect cost, and when does paging collapse";
  let w = adpcm_encode () in
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
      Option.iter
        (fun c ->
          let status =
            match c.run.status with
            | Softcache.Runner.Finished Machine.Cpu.Halted ->
              if c.ok then "ok" else "MISMATCH"
            | Softcache.Runner.Finished Machine.Cpu.Out_of_fuel -> "fuel"
            | Softcache.Runner.Unavailable _ -> "unavailable"
            | Softcache.Runner.Tcache_too_small -> "tcache too small"
            | Softcache.Runner.Chunk_too_large _ -> "chunk too large"
          in
          Report.Table.add_row t
            [
              Printf.sprintf "%.2f" drop;
              Printf.sprintf "%.2f" corrupt;
              status;
              fmt_f (slowdown w c);
              string_of_int c.ctrl.stats.net_retries;
              string_of_int c.ctrl.stats.net_timeouts;
              string_of_int c.ctrl.stats.crc_failures;
              string_of_int c.ctrl.stats.recoveries;
            ])
        (cell ~check:false w cfg))
    [
      (0.0, 0.0); (0.01, 0.0); (0.05, 0.0); (0.2, 0.0); (0.0, 0.01);
      (0.0, 0.05); (0.0, 0.2); (0.1, 0.1); (0.3, 0.3); (0.6, 0.6);
    ];
  Report.Table.print t;
  Report.kv "note"
    "every surviving run is output-equivalent to native; 'unavailable' \
     means the retry budget was exhausted and the run stopped cleanly"

(* ------------------------------------------------------------------ *)
(* Prefetch/batching sweep: link bandwidth x prefetch degree, and the
   gate that degree-2 profile-guided prefetch beats prefetch-off on
   ethernet for every workload while staying architecturally invisible
   (Check.Lockstep.prefetch). Emits BENCH_prefetch.json. *)

let prefetchsweep () =
  Report.section
    "Prefetch sweep: batched profile-guided chunk prefetch on the MC-CC \
     link (bandwidth x degree sensitivity; gate: on 10 Mbps ethernet \
     degree 2 must beat degree 0 for every workload)";
  let tcache = 48 * 1024 in
  let run w ~ranker ~cycles_per_byte ~degree =
    let net =
      Netmodel.create ~latency_cycles:100_000 ~cycles_per_byte
        ~overhead_bytes:60 ()
    in
    let cfg =
      Softcache.Config.make ~tcache_bytes:tcache ~net ~prefetch_degree:degree
        ()
    in
    let prepare (ctrl : Softcache.Controller.t) =
      ctrl.prefetch_ranker <- Some ranker
    in
    let label =
      Printf.sprintf "%s/%d cpb/degree %d" w.name cycles_per_byte degree
    in
    (cell ~label ~prepare w cfg, net)
  in
  (* bandwidth x degree sensitivity on one paging-heavy workload *)
  let sw = adpcm_encode () in
  let ranker = (profile_oracles sw.img).samples_in in
  let st =
    sheet ~title:"adpcm encode: cycles/messages per link x degree"
      [ ("link", "link"); ("degree", "degree"); ("cycles", "cycles");
        ("messages", "messages"); ("wire bytes", "wire_bytes");
        ("prefetch", "prefetch") ]
  in
  List.iter
    (fun (link, cpb) ->
      List.iter
        (fun d ->
          match run sw ~ranker ~cycles_per_byte:cpb ~degree:d with
          | None, _ -> ()
          | Some c, net ->
            let s = c.ctrl.stats in
            add st
              [ ("link", Str link); ("cycles_per_byte", Int cpb);
                ("degree", Int d); ("cycles", Int c.run.cycles);
                ("messages", Int (Netmodel.messages net));
                ("wire_bytes", Text (string_of_int (Netmodel.total_bytes net)));
                ( "prefetch",
                  Text
                    (Printf.sprintf "%d issued / %d installed / %d wasted"
                       s.prefetch_issued s.prefetch_installs s.prefetch_wasted)
                ) ])
        [ 0; 1; 2; 4; 8 ])
    [ ("1 Mbps", 1600); ("10 Mbps", 160); ("100 Mbps", 16) ];
  Report.Table.print st.table;
  let gt =
    sheet ~title:"gate: 10 Mbps ethernet, degree 2 vs prefetch off"
      [ ("app", "name"); ("cycles off", "cycles_off");
        ("cycles on", "cycles_on"); ("ratio", "cycle_ratio");
        ("msgs off", "messages_off"); ("msgs on", "messages_on");
        ("lockstep", "lockstep") ]
  in
  List.iter
    (fun w ->
      let ranker = (profile_oracles w.img).samples_in in
      let off, net_off = run w ~ranker ~cycles_per_byte:160 ~degree:0 in
      let on, net_on = run w ~ranker ~cycles_per_byte:160 ~degree:2 in
      match (off, on) with
      | Some off, Some on ->
        let m_off = Netmodel.messages net_off in
        let m_on = Netmodel.messages net_on in
        if m_on >= m_off then
          fail "%s: prefetch does not reduce messages (%d -> %d)" w.name
            m_off m_on;
        if on.run.cycles >= off.run.cycles then
          fail "%s: prefetch regresses cycles (%d -> %d)" w.name
            off.run.cycles on.run.cycles;
        let mk_cfg () =
          Softcache.Config.make ~tcache_bytes:tcache
            ~net:(Netmodel.ethernet_10mbps ()) ~prefetch_degree:2 ()
        in
        let ok, verdict =
          gate_verdict w.name
            (engines_verdict
               (Check.Lockstep.prefetch ~fuel:150_000 ~audit:true mk_cfg
                  w.img))
        in
        let ratio = float_of_int on.run.cycles /. float_of_int off.run.cycles in
        add gt
          [ ("name", Str w.name); ("cycles_off", Int off.run.cycles);
            ("cycles_on", Int on.run.cycles); ("messages_off", Int m_off);
            ("messages_on", Int m_on); ("cycle_ratio", Ratio ratio);
            ("lockstep", Text verdict); ("lockstep_ok", Bool ok) ]
      | _ -> ())
    (registry ());
  Report.Table.print gt.table;
  emit_json ~file:"BENCH_prefetch.json" ~benchmark:"prefetchsweep"
    [ ("tcache_bytes", json (Int tcache)); ("workloads", json_rows (rows gt));
      ("sweep", json_rows (rows st)); ("gate_failures", json (Int !failures)) ]

(* ------------------------------------------------------------------ *)
(* Decoded vs interpretive dispatch: host wall time of the two CPU
   engines over the full workload registry, emitted as
   BENCH_micro.json so CI can gate on the speedup. The hooked column
   (decoded, with a no-op fetch hook) is the stepped path the profiler
   and [Dcache.Sim] take; it is reported, not gated. *)

let micro_engines ~copy_path () =
  Report.section
    "Dispatch engines (host wall time): predecoded fetch vs per-fetch \
     interpretive decode";
  let t =
    sheet ~title:"native run, per engine"
      [ ("app", "name"); ("interpretive (ms)", "interpretive_s");
        ("decoded (ms)", "decoded_s"); ("decoded, hooked (ms)", "hooked_s");
        ("speedup", "speedup") ]
  in
  let speedups =
    List.map
      (fun w ->
        let mk engine () =
          Machine.Cpu.of_image ~engine ~mem_bytes:(2 * 1024 * 1024) w.img
        in
        let hooked () =
          let cpu = mk Machine.Cpu.Decoded () in
          cpu.on_fetch <- Some ignore;
          cpu
        in
        let ti = best_of (mk Machine.Cpu.Interpretive) Machine.Cpu.run in
        let td = best_of (mk Machine.Cpu.Decoded) Machine.Cpu.run in
        let th = best_of hooked Machine.Cpu.run in
        add t
          [ ("name", Str w.name); ("interpretive_s", Secs ti);
            ("decoded_s", Secs td); ("hooked_s", Secs th);
            ("speedup", Ratio (ti /. td)) ];
        ti /. td)
      (registry ())
  in
  Report.Table.print t.table;
  let gm = Report.geomean speedups in
  Report.kv "geomean speedup" (fmt_f gm);
  emit_json ~file:"BENCH_micro.json" ~benchmark:"micro_engines"
    [ ("workloads", json_rows (rows t)); ("geomean_speedup", json (Ratio gm));
      ("copy_path", json_rows copy_path) ];
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
  (* the miss path's copy steps, piece by piece: one compress95 block
     (its entry chunk) and one 32-byte payload, the size of a typical
     thrashing chunk's emission *)
  let compress = (Option.get (Workloads.Registry.find "compress95")).build () in
  let payload = Bytes.init 32 (fun i -> Char.chr (i * 37 land 0xFF)) in
  let copy_path_tests =
    [
      Test.make ~name:"crc32 of a 32-byte payload"
        (Staged.stage (fun () -> Softcache.Crc32.bytes payload));
      Test.make ~name:"chunk + layout + rewrite of one compress95 block"
        (Staged.stage (fun () ->
             let chunk =
               Softcache.Chunker.chunk_at compress
                 Softcache.Config.Basic_block compress.entry
             in
             Softcache.Rewriter.translate
               (Softcache.Rewriter.layout chunk)
               ~block_id:0 ~base:Softcache.Config.tcache_base
               ~resident:(fun _ -> None)
               ~alloc_stub:(fun make ->
                 ignore (make 0 : Softcache.Stub.t);
                 0)));
    ]
  in
  let tests =
    Test.make_grouped ~name:"softcache"
      (copy_path_tests @ [
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
      ])
  in
  let instances = Bechamel.Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~quota:(Time.second 0.25) ~stabilize:false () in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols (List.hd instances) raw in
  let rows = Hashtbl.fold (fun name res acc -> (name, res) :: acc) results [] in
  let estimate res =
    match Analyze.OLS.estimates res with Some [ ns ] -> Some ns | _ -> None
  in
  List.iter
    (fun (name, res) ->
      match estimate res with
      | Some ns -> Report.kv name (Printf.sprintf "%.1f ns/run" ns)
      | None -> Report.kv name "n/a")
    (List.sort compare rows);
  (* reported in BENCH_micro.json, not gated *)
  let copy_path =
    List.map
      (fun test ->
        let ns =
          Option.bind
            (List.assoc_opt ("softcache/" ^ Test.name test) rows)
            estimate
        in
        [ ("step", Str (Test.name test));
          ("ns_per_run", Opt (Option.map (fun ns -> Ratio ns) ns)) ])
      copy_path_tests
  in
  micro_engines ~copy_path ()

(* ------------------------------------------------------------------ *)
(* Traced smoke run: the CI gate for the tracing subsystem. Every
   registry workload runs once with a tracer attached; the JSONL
   rendering is validated line by line against the event schema, the
   Chrome rendering as well-formed JSON with nondecreasing timestamps
   and matched async residency spans, the attribution ledger must
   conserve exactly against the cycle counter, and the trace-on/off
   lockstep confirms tracing is architecturally invisible. One more row
   traces compress95 on four harts, which share the ring and stamp it
   from their own clocks: both exports must validate, the Chrome one
   only because it is rendered in stamp order. That row has no
   conservation check (the ledger follows one cycle counter) and no
   lockstep. Exports BENCH_trace.jsonl and BENCH_trace_chrome.json (the
   first single-hart workload's), re-validates them from disk, and
   writes their digests to the committed BENCH_trace.digest. *)

let tracesmoke () =
  Report.section
    "Trace smoke: traced runs validated per exporter (gate: schema-valid \
     exports, exact cycle attribution, zero perturbation)";
  let mk_cfg ?harts () =
    Softcache.Config.make ~tcache_bytes:(2 * 1024)
      ~net:(Netmodel.ethernet_10mbps ()) ?harts ()
  in
  let t =
    Report.Table.create ~title:"traced runs (2 KB tcache, 10 Mbps ethernet)"
      ~columns:
        [ "app"; "cycles"; "events"; "dropped"; "jsonl"; "chrome"; "lockstep" ]
  in
  let validated name what = function
    | Ok n -> Printf.sprintf "ok (%d %s)" n what
    | Error err ->
      fail "%s: %s" name err;
      "FAIL"
  in
  let validate_both name tr =
    ( validated (name ^ " jsonl") "lines"
        (Trace.Schema.validate_jsonl (Trace.to_jsonl tr)),
      validated (name ^ " chrome") "events"
        (Trace.Schema.validate_chrome (Trace.to_chrome tr)) )
  in
  let artifact = ref None in
  List.iter
    (fun w ->
      let tr = Trace.create () in
      let prepare ctrl = Softcache.Controller.attach_tracer ctrl tr in
      Option.iter
        (fun c ->
          if !artifact = None then artifact := Some tr;
          if not (Trace.conserved tr ~total:c.run.cycles) then
            fail "%s: attribution does not conserve (sum %d vs %d)" w.name
              (Trace.summary tr).Trace.s_total c.run.cycles;
          let jsonl, chrome = validate_both w.name tr in
          let _, lockstep =
            gate_verdict w.name
              (engines_verdict
                 (Check.Lockstep.trace ~fuel:150_000 mk_cfg w.img))
          in
          Report.Table.add_row t
            [ w.name; string_of_int c.run.cycles;
              string_of_int (Trace.emitted tr);
              string_of_int (Trace.dropped tr); jsonl; chrome; lockstep ])
        (cell ~prepare w (mk_cfg ())))
    (registry ());
  (let w = compress () and tr = Trace.create () in
   let name = w.name ^ " (4 harts)" in
   let ctrl = Softcache.Controller.create (mk_cfg ~harts:4 ()) w.img in
   Softcache.Controller.attach_tracer ctrl tr;
   let sh = Softcache.Shard.attach ctrl in
   ignore (Softcache.Shard.run sh);
   if
     not
       (List.for_all
          (fun (h : Softcache.Shard.hart) ->
            h.h_cpu.halted
            && Machine.Cpu.outputs h.h_cpu = (Lazy.force w.native).outputs)
          (Softcache.Shard.harts sh))
   then fail "%s: outputs diverge from native" name;
   let jsonl, chrome = validate_both name tr in
   Report.Table.add_row t
     [ name; string_of_int (Softcache.Shard.makespan sh);
       string_of_int (Trace.emitted tr); string_of_int (Trace.dropped tr);
       jsonl; chrome; "-" ]);
  Report.Table.print t;
  (* artifacts: export the first workload's trace in both formats and
     validate what actually landed on disk *)
  match !artifact with
  | None -> fail "no trace to export"
  | Some tr ->
    let slurp f = In_channel.with_open_text f In_channel.input_all in
    Trace.export tr ~format:`Jsonl "BENCH_trace.jsonl";
    Trace.export tr ~format:`Chrome "BENCH_trace_chrome.json";
    ignore
      (validated "BENCH_trace.jsonl" "lines"
         (Trace.Schema.validate_jsonl (slurp "BENCH_trace.jsonl")));
    ignore
      (validated "BENCH_trace_chrome.json" "events"
         (Trace.Schema.validate_chrome (slurp "BENCH_trace_chrome.json")));
    (* both exports are deterministic: pin them by digest (md5sum
       format) in a committed file that CI diffs, so a reordered or
       lost event shows up as a changed line *)
    Out_channel.with_open_text "BENCH_trace.digest" (fun oc ->
        List.iter
          (fun f ->
            Printf.fprintf oc "%s  %s\n" (Digest.to_hex (Digest.file f)) f)
          [ "BENCH_trace.jsonl"; "BENCH_trace_chrome.json" ]);
    Report.kv "written"
      "BENCH_trace.jsonl, BENCH_trace_chrome.json, BENCH_trace.digest"

(* ------------------------------------------------------------------ *)
(* Replacement-policy sweep: policy x tcache size over the paging
   workloads, with its gates. Emits BENCH_policy.json.

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
  let variants w =
    (* one profiling pre-run per workload; the sizing estimate decides
       where the temperature prior pays: primed only in deep thrash *)
    let o = profile_oracles w.img in
    let est =
      Softcache.Sizing.estimate ~image:w.img
        ~chunking:Softcache.Config.Basic_block ~samples_in:o.samples_in ~sizes
        ()
    in
    let prime (c : Softcache.Controller.t) =
      if Softcache.Sizing.deep_thrash est ~tcache_bytes:c.cfg.tcache_bytes then
        Softcache.Controller.set_temperature_oracle c (Some o.temperature)
    in
    List.concat_map
      (fun (pname, ev) ->
        let cfg bytes =
          Softcache.Config.make ~tcache_bytes:bytes ~eviction:ev ()
        in
        if ev = Softcache.Config.Trrip then
          [ ("trrip-unprimed", cfg, ignore); (pname, cfg, prime) ]
        else [ (pname, cfg, ignore) ])
      Softcache.Config.eviction_table
  in
  (* flush-all cannot place every workload's largest chunk at every
     size; that is a configuration limit, not a gate failure *)
  let grid =
    grid_sweep ~title:"policy x tcache size" ~axis:"policy"
      ~workloads:(only gate_workloads) ~sizes ~too_large_ok:true ~variants
      [ ("cycles", "cycles"); ("translations", "translations");
        ("evicted", "evicted") ]
      (fun c ->
        [ ("cycles", Int c.run.cycles);
          ("translations", Int c.ctrl.stats.translations);
          ("evicted", Int c.ctrl.stats.evicted_blocks) ])
  in
  let translations name bytes p =
    at grid ~axis:"policy" name bytes p "translations"
  in
  (* at every size where both completed, a recency policy must not
     translate more than fifo *)
  each_cell gate_workloads sizes (fun name bytes ->
      match translations name bytes "fifo" with
      | None -> ()
      | Some fifo_tr ->
        List.iter
          (fun pname ->
            match translations name bytes pname with
            | Some tr when tr > fifo_tr ->
              fail "%s/%dB: %s translates more than fifo (%d > %d)" name bytes
                pname tr fifo_tr
            | Some _ | None -> ())
          [ "lru"; "trrip-unprimed"; "trrip" ]);
  (* the temperature prior must pay for itself: never more translations
     than unprimed trrip anywhere, strictly fewer on at least three
     cells *)
  let trrip_wins = ref 0 and trrip_cells = ref 0 in
  each_cell gate_workloads sizes (fun name bytes ->
      match
        ( translations name bytes "trrip-unprimed",
          translations name bytes "trrip" )
      with
      | Some unprimed_tr, Some trrip_tr ->
        incr trrip_cells;
        if trrip_tr > unprimed_tr then
          fail "%s/%dB: trrip translates more than unprimed (%d > %d)" name
            bytes trrip_tr unprimed_tr
        else if trrip_tr < unprimed_tr then incr trrip_wins
      | _ -> ());
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
  let lockstep =
    lockstep_table ~title:"lockstep: all policies vs native" ~what:"policies"
      (fun w ->
        modes_verdict
          (Check.Lockstep.policies ~fuel:8_000_000
             ~audit:(w.name = "sensor_modes")
             (fun () -> Softcache.Config.make ~tcache_bytes:8192 ())
             w.img))
  in
  emit_json ~file:"BENCH_policy.json" ~benchmark:"policysweep"
    [ ("grid", json_rows grid); ("lockstep", lockstep);
      ("trrip_cells", json (Int !trrip_cells));
      ("trrip_wins", json (Int !trrip_wins));
      ("gate_failures", json (Int !failures)) ]

(* ------------------------------------------------------------------ *)
(* Analytic sizing: the dominant-block estimator against the measured
   Fig. 7 knee. Emits BENCH_sizing.json.

   The measured knee is read off the fifo translation curve: the
   smallest tcache size whose translation count sits within 2x of the
   count at the largest completing size — where the Fig. 7 curve has
   gone flat, capacity misses are gone and what remains is the cold
   footprint. *)

let sizing () =
  Report.section
    "Sizing: dominant-block analytic knee vs measured Fig. 7 knee (gate: \
     within one ladder step on >= 6 of 8 registry workloads)";
  let step_of bytes =
    let rec go i = function
      | [] -> -1
      | b :: rest -> if b = bytes then i else go (i + 1) rest
    in
    go 0 sweep_sizes
  in
  let t =
    sheet ~title:"predicted vs measured tcache knee"
      [ ("app", "name"); ("chunks", "chunks_walked");
        ("dominant", "dominant_chunks");
        ("dom tcache", "dominant_tcache_bytes");
        ("predicted", "predicted_bytes"); ("knee", "predicted_knee");
        ("measured", "measured_knee"); ("steps off", "step_delta");
        ("verdict", "verdict") ]
  in
  let hits = ref 0 in
  List.iter
    (fun w ->
      let est =
        Softcache.Sizing.estimate ~image:w.img
          ~chunking:Softcache.Config.Basic_block
          ~samples_in:(profile_oracles w.img).samples_in ~sizes:sweep_sizes
          ()
      in
      let curve =
        List.filter_map
          (fun bytes ->
            let cfg = Softcache.Config.sparc_prototype ~tcache_bytes:bytes () in
            Option.map
              (fun c -> (bytes, c.ctrl.stats.translations))
              (cell ~too_large_ok:true w cfg))
          sweep_sizes
      in
      let measured =
        match List.rev curve with
        | [] -> None
        | (_, tail_tr) :: _ ->
          List.find_map
            (fun (bytes, tr) -> if tr <= 2 * tail_tr then Some bytes else None)
            curve
      in
      let delta =
        match (est.predicted_knee, measured) with
        | Some p, Some m -> Some (abs (step_of p - step_of m))
        | _ -> None
      in
      let ok = match delta with Some d -> d <= 1 | None -> false in
      if ok then incr hits;
      let bytes_opt b = Opt (Option.map (fun b -> Bytes b) b) in
      add t
        [ ("name", Str w.name); ("chunks_walked", Int est.chunks_walked);
          ("dominant_chunks", Int est.dominant_chunks);
          ("dominant_tcache_bytes", Bytes est.dominant_tcache_bytes);
          ("predicted_bytes", Bytes est.predicted_bytes);
          ("predicted_knee", bytes_opt est.predicted_knee);
          ("measured_knee", bytes_opt measured);
          ("step_delta", Opt (Option.map (fun d -> Int d) delta));
          ("verdict", Text (if ok then "ok" else "OFF")); ("ok", Bool ok) ])
    (registry ());
  Report.Table.print t.table;
  let n = List.length t.kept in
  Report.kv "knee accuracy"
    (Printf.sprintf "within one ladder step on %d of %d workloads" !hits n);
  if !hits < 6 then
    fail "sizing knee within one step on only %d of %d workloads (need >= 6)"
      !hits n;
  emit_json ~file:"BENCH_sizing.json" ~benchmark:"sizing"
    [ ("workloads", json_rows (rows t)); ("knee_hits", json (Int !hits));
      ("gate_failures", json (Int !failures)) ]

(* ------------------------------------------------------------------ *)
(* Chaining sweep: trap elimination from eager branch chaining and
   profile-guided superblock formation, with its gates. Emits
   BENCH_chain.json.

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
  let variants w =
    let o = profile_oracles w.img in
    let prepare (c : Softcache.Controller.t) =
      c.chain_oracle <- Some o.chain;
      c.dynamic_text_hint <- Some o.dynamic_text
    in
    List.map
      (fun (mode, chain, superblock_threshold) ->
        ( mode,
          (fun bytes ->
            Softcache.Config.make ~tcache_bytes:bytes
              ~chunking:Softcache.Config.Basic_block ~chain
              ~superblock_threshold ()),
          prepare ))
      [ ("off", false, 0); ("chain", true, 0);
        ("chain+superblock", true, threshold) ]
  in
  let grid =
    grid_sweep ~title:"chaining x tcache size" ~axis:"mode"
      ~workloads:(only gate_workloads) ~sizes ~variants
      [ ("cycles", "cycles"); ("traps", "traps"); ("patches", "patches");
        ("chained", "chained"); ("reverts", "reverts");
        ("superblocks", "superblocks"); ("guarded", "guarded") ]
      (fun c ->
        let s = c.ctrl.stats in
        [ ("cycles", Int c.run.cycles); ("traps", Int s.traps);
          ("patches", Int s.patches); ("chained", Int s.chained);
          ("reverts", Int s.reverts); ("superblocks", Int s.superblocks);
          ("guarded", Int s.superblock_guard_skips) ])
  in
  let traps name bytes mode = at grid ~axis:"mode" name bytes mode "traps" in
  (* gate 1: plain chaining may never trap more than off on any cell,
     and superblock formation — knee-guarded, so it declines promotions
     when the rewritten working set marginally exceeds the tcache —
     may never trap more than plain chaining *)
  each_cell gate_workloads sizes (fun name bytes ->
      (match (traps name bytes "off", traps name bytes "chain") with
      | Some off_tr, Some ch_tr when ch_tr > off_tr ->
        fail "%s/%dB: chain traps more than off (%d > %d)" name bytes ch_tr
          off_tr
      | _ -> ());
      match (traps name bytes "chain", traps name bytes "chain+superblock") with
      | Some ch_tr, Some sb_tr when sb_tr > ch_tr ->
        fail "%s/%dB: chain+superblock traps more than chain (%d > %d)" name
          bytes sb_tr ch_tr
      | _ -> ());
  (* gate 2: some chaining mode must cut traps by >= 20% on some gate
     cell (superblocks deliver this: the contiguous layout keeps whole
     hot chains trap-free) *)
  let best_reduction = ref 0.0 in
  each_cell gate_workloads sizes (fun name bytes ->
      List.iter
        (fun mode ->
          match (traps name bytes "off", traps name bytes mode) with
          | Some off_tr, Some ch_tr when off_tr > 0 ->
            let red = float_of_int (off_tr - ch_tr) /. float_of_int off_tr in
            if red > !best_reduction then best_reduction := red
          | _ -> ())
        [ "chain"; "chain+superblock" ]);
  Report.kv "best trap reduction"
    (Printf.sprintf "%.1f%%" (100.0 *. !best_reduction));
  if !best_reduction < 0.20 then
    fail "chaining never reached a 20%% trap reduction (best %.1f%%)"
      (100.0 *. !best_reduction);
  (* gate 3: registry-wide observational equivalence of all three
     modes, each in data-access lockstep with native execution *)
  let lockstep =
    lockstep_table ~title:"lockstep: chain modes vs native" ~what:"chain modes"
      (fun w ->
        let mk_cfg () =
          Softcache.Config.make ~tcache_bytes:4096
            ~chunking:Softcache.Config.Basic_block ()
        in
        modes_verdict
          (Check.Lockstep.chain_modes ~fuel:12_000_000
             ~oracle:(profile_oracles ~fuel:12_000_000 w.img).chain
             ~superblock_threshold:16 ~audit:(w.name = "sensor_modes") mk_cfg
             w.img))
  in
  emit_json ~file:"BENCH_chain.json" ~benchmark:"chainsweep"
    [ ("grid", json_rows grid); ("lockstep", lockstep);
      ("best_trap_reduction", json (Ratio !best_reduction));
      ("superblock_threshold", json (Int threshold));
      ("gate_failures", json (Int !failures)) ]

(* ------------------------------------------------------------------ *)
(* Fleet sweep: one MC serving N identical CC clients over a shared
   link, each grid cell with a dedup-off twin. Emits BENCH_fleet.json. *)

let fleetsweep () =
  Report.section
    "Fleet sweep: N clients x link bandwidth on one shared MC link (gate: \
     dedup cuts aggregate wire bytes >= 30% at 4 clients; fleet audits \
     clean; 1-client fleet cycle-identical registry-wide)";
  let app = Workloads.Compress.name and img = Workloads.Compress.image () in
  (* cycles/byte at 200 MHz: the ARM prototype's 10 Mbps link and a
     4x-slower variant where queueing and coalescing matter more *)
  let links = [ ("10mbps", 160); ("2.5mbps", 640) ] in
  let grid =
    sheet ~title:"fleet: clients x link (identical workloads)"
      [ ("app", "name"); ("link", "link"); ("clients", "clients");
        ("dedup", "dedup"); ("wire bytes", "wire_bytes"); ("frames", "frames");
        ("coalesced", "coalesced"); ("piggyback", "piggybacked");
        ("cache hits", "cache_hits"); ("stall p99", "stall_p99") ]
  in
  each_cell links [ 1; 2; 4; 8 ] (fun (link, cycles_per_byte) clients ->
      List.iter
        (fun dedup ->
          let net =
            Netmodel.create ~latency_cycles:100_000 ~cycles_per_byte
              ~overhead_bytes:60 ()
          in
          let mk_cfg _ = Softcache.Config.make ~tcache_bytes:4096 ~net () in
          let fl = Fleet.create ~clients ~dedup ~net mk_cfg [| img |] in
          Fleet.run ~fuel:2_000_000 fl;
          audit_gate
            (Printf.sprintf "fleet audit %s/%d clients/dedup=%b" app clients
               dedup)
            (Check.Audit.fleet fl);
          add grid
            (("name", Str app) :: ("link", Str link)
            :: List.map (fun (k, v) -> (k, Str v)) (Fleet.summary_fields fl)))
        [ true; false ]);
  Report.Table.print grid.table;
  (* gate: N identical clients share almost every chunk, so coalesced
     joins should eliminate most redundant frames *)
  let wire link dedup =
    match
      lookup (rows grid)
        [ ("link", Str link); ("clients", Str "4");
          ("dedup", Str (string_of_bool dedup)) ]
        "wire_bytes"
    with
    | Some (Str s) -> int_of_string_opt s
    | _ -> None
  in
  List.iter
    (fun (link, _) ->
      match (wire link true, wire link false) with
      | Some won, Some woff ->
        let cut =
          if woff = 0 then 0.0
          else float_of_int (woff - won) /. float_of_int woff
        in
        Report.kv
          (Printf.sprintf "dedup wire cut (%s, 4 clients)" link)
          (Printf.sprintf "%.1f%% (%d -> %d bytes)" (100.0 *. cut) woff won);
        if cut < 0.30 then
          fail "%s/4 clients: dedup cut aggregate wire bytes only %.1f%%" link
            (100.0 *. cut)
      | _ -> fail "%s: missing 4-client dedup twin" link)
    links;
  (* gate: over a faulty ethernet link, so drops and corruption exercise
     the retry machinery on both sides *)
  let lockstep =
    lockstep_table ~title:"lockstep: 1-client fleet vs solo" ~what:"fleet"
      (fun w ->
        let mk_cfg () =
          let faults =
            Netmodel.Faults.make ~seed:11 ~drop:0.02 ~corrupt:0.01 ()
          in
          Softcache.Config.make ~tcache_bytes:4096
            ~net:(Netmodel.ethernet_10mbps ~faults ()) ()
        in
        engines_verdict (Check.Lockstep.fleet ~fuel:2_000_000 mk_cfg w.img))
  in
  emit_json ~file:"BENCH_fleet.json" ~benchmark:"fleetsweep"
    [ ("grid", json_rows (rows grid)); ("lockstep", lockstep);
      ("gate_failures", json (Int !failures)) ]

(* ------------------------------------------------------------------ *)
(* Shard sweep: N hart contexts replay the workload on one shared
   tcache under the seeded interleaving scheduler; concurrent misses for
   the same chunk coalesce onto the in-flight fill, so the shared tcache
   should need far fewer wire messages than N independent solo caches.
   Emits BENCH_shard.json. *)

let shardsweep () =
  Report.section
    "Shard sweep: harts x tcache size on one shared tcache (gates: 1-hart \
     sharded run cycle-identical to solo registry-wide; every cell audits \
     clean; 4-hart coalescing cuts wire messages vs 4 solo runs on >= \
     half the registry)";
  (* a sharded session run for [fuel], audited where it stopped *)
  let shard_run ~fuel label cfg img =
    let ctrl = Softcache.Controller.create cfg img in
    let sh = Softcache.Shard.attach ctrl in
    ignore (Softcache.Shard.run ~fuel sh);
    audit_gate label (Check.Audit.shards sh);
    (sh, ctrl.stats)
  in
  let app = Workloads.Compress.name and img = Workloads.Compress.image () in
  let grid =
    sheet ~title:"shard: harts x tcache size"
      [ ("app", "name"); ("harts", "harts"); ("tcache", "tcache");
        ("makespan", "makespan"); ("total cycles", "total_cycles");
        ("fills", "fills"); ("coalesced", "coalesced");
        ("fill-wait", "fill_wait"); ("mc-wait", "mc_wait");
        ("wire msgs", "wire_messages") ]
  in
  each_cell [ 4096; 16384 ] [ 1; 2; 4; 8 ] (fun tcache harts ->
      let net = Netmodel.ethernet_10mbps () in
      let cfg =
        Softcache.Config.make ~tcache_bytes:tcache ~net ~harts
          ~shards:(if harts >= 4 then 2 else 1) ~sched_seed:7 ()
      in
      let sh, s =
        shard_run ~fuel:800_000
          (Printf.sprintf "shard audit %s/%d harts/%d B" app harts tcache)
          cfg img
      in
      add grid
        [ ("name", Str app); ("harts", Int harts); ("tcache", Int tcache);
          ("makespan", Int (Softcache.Shard.makespan sh));
          ("total_cycles", Int (Softcache.Shard.total_cycles sh));
          ("fills", Int s.fills); ("coalesced", Int s.fills_coalesced);
          ("fill_wait", Text (string_of_int s.fill_wait_cycles));
          ("mc_wait", Text (string_of_int s.mc_wait_cycles));
          ("wire_messages", Int (Netmodel.messages net)) ]);
  Report.Table.print grid.table;
  (* gate: a 4-hart shared tcache puts fewer messages on the wire than
     4 independent solo caches would, on >= half the registry *)
  let n = 4 and fuel = 600_000 in
  let ct =
    sheet ~title:"coalescing: 4-hart shared vs 4x solo"
      [ ("app", "name"); ("shared msgs", "shared_messages");
        ("4x solo msgs", "solo_messages"); ("cut", "cut") ]
  in
  List.iter
    (fun w ->
      let net = Netmodel.ethernet_10mbps () in
      let cfg =
        Softcache.Config.make ~tcache_bytes:8192 ~net ~harts:n ~sched_seed:5
          ()
      in
      let label = Printf.sprintf "shard audit %s/coalescing" w.name in
      ignore (shard_run ~fuel label cfg w.img);
      let shared = Netmodel.messages net in
      (* the N solo runs are identical, so run one and scale *)
      let solo_net = Netmodel.ethernet_10mbps () in
      let (_ : cell option) =
        cell ~fuel ~check:false w
          (Softcache.Config.make ~tcache_bytes:8192 ~net:solo_net ())
      in
      let solo = n * Netmodel.messages solo_net in
      let cut =
        if solo = 0 then "n/a"
        else
          Printf.sprintf "%.1f%%"
            (100.0 *. float_of_int (solo - shared) /. float_of_int solo)
      in
      add ct
        [ ("name", Str w.name); ("shared_messages", Int shared);
          ("solo_messages", Int solo); ("cut", Text cut);
          ("win", Bool (shared < solo)) ])
    (registry ());
  Report.Table.print ct.table;
  let wins = List.length (List.filter (List.mem ("win", Bool true)) ct.kept) in
  let total = List.length ct.kept in
  Report.kv "coalescing wins" (Printf.sprintf "%d of %d workloads" wins total);
  if 2 * wins < total then
    fail "4-hart coalescing beat 4x solo on only %d of %d workloads" wins
      total;
  let lockstep =
    lockstep_table ~title:"lockstep: 1-hart sharded vs solo" ~what:"shard"
      (fun w ->
        engines_verdict
          (Check.Lockstep.shards ~fuel:2_000_000
             (fun () -> Softcache.Config.make ~tcache_bytes:4096 ())
             w.img))
  in
  emit_json ~file:"BENCH_shard.json" ~benchmark:"shardsweep"
    [ ("grid", json_rows (rows grid)); ("coalescing", json_rows (rows ct));
      ("lockstep", lockstep); ("gate_failures", json (Int !failures)) ]

(* ------------------------------------------------------------------ *)
(* Granularity sweep: block vs whole-function caching units across a
   tcache-size ladder — the function-granularity pitch is fewer, larger
   MC round trips once the tcache can hold whole functions, at the cost
   of thrashing (and degradation) when it cannot. Every cell is audited,
   PLT section included. Emits BENCH_gran.json. *)

let gransweep () =
  Report.section
    "Granularity sweep: block vs whole-function caching units x tcache \
     size (gate: at the largest tcache, function mode cuts wire messages \
     on >= half the registry; every cell audits clean and matches native \
     outputs; registry-wide block/function lockstep)";
  let sizes = [ 2048; 8192; 65536 ] in
  let large = List.fold_left max 0 sizes in
  let variants _ =
    List.map
      (fun (gname, granularity) ->
        ( gname,
          (fun bytes ->
            Softcache.Config.make ~tcache_bytes:bytes
              ~net:(Netmodel.ethernet_10mbps ()) ~granularity ()),
          ignore ))
      Softcache.Config.granularity_table
  in
  let grid =
    grid_sweep ~title:"granularity x tcache size" ~axis:"granularity" ~sizes
      ~audit:true ~variants
      [ ("cycles", "cycles"); ("translations", "translations");
        ("traps", "traps"); ("messages", "messages");
        ("plt slots", "plt_slots"); ("degraded", "degraded") ]
      (fun c ->
        let s = c.ctrl.stats in
        [ ("cycles", Int c.run.cycles); ("translations", Int s.translations);
          ("traps", Int s.traps);
          ("messages", Int (Netmodel.messages c.ctrl.cfg.net));
          ("plt_slots", Int s.plt_slots); ("degraded", Int s.gran_degraded) ])
  in
  (* wire gate: whole-function units amortize the per-message overhead
     (frame header + latency) over more payload, so once the tcache
     stops thrashing, function mode should need fewer MC round trips
     for most workloads *)
  let names = Workloads.Registry.names () in
  let msgs name g =
    at grid ~axis:"granularity" name large
      (Softcache.Config.granularity_name g)
      "messages"
  in
  let wins =
    List.filter
      (fun n ->
        match
          (msgs n Softcache.Config.Block, msgs n Softcache.Config.Function)
        with
        | Some bm, Some fm -> fm < bm
        | _ -> false)
      names
  in
  Report.kv
    (Printf.sprintf "wire-message wins at %s" (Report.fmt_bytes large))
    (Printf.sprintf "%d/%d workloads (%s)" (List.length wins)
       (List.length names) (text (Names wins)));
  if 2 * List.length wins < List.length names then
    fail
      "function granularity cut wire messages on only %d/%d workloads at \
       %d B"
      (List.length wins) (List.length names) large;
  (* equivalence gate at a mid-ladder size where function mode both
     fits whole functions and occasionally degrades *)
  let lockstep =
    lockstep_table ~title:"lockstep: granularities vs native"
      ~what:"granularity" (fun w ->
        modes_verdict
          (Check.Lockstep.granularity ~fuel:12_000_000
             ~audit:(w.name = "sensor_modes")
             (fun () -> Softcache.Config.make ~tcache_bytes:8192 ())
             w.img))
  in
  emit_json ~file:"BENCH_gran.json" ~benchmark:"gransweep"
    [ ("grid", json_rows grid); ("lockstep", lockstep);
      ("wire_message_wins", json (Names wins));
      ("gate_tcache_bytes", json (Int large));
      ("gate_failures", json (Int !failures)) ]

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("table1", table1); ("fig5", fig5); ("fig6", fig6); ("fig7", fig7);
    ("associativity", associativity); ("fig8", fig8); ("fig9", fig9);
    ("tagoverhead", tagoverhead); ("spaceoverhead", spaceoverhead);
    ("netcost", netcost); ("dcache", dcache); ("power", power);
    ("ablation", ablation); ("fullsystem", fullsystem);
    ("bindablation", bindablation); ("netsweep", netsweep);
    ("faultsweep", faultsweep); ("prefetchsweep", prefetchsweep);
    ("policysweep", policysweep); ("sizing", sizing);
    ("chainsweep", chainsweep); ("fleetsweep", fleetsweep);
    ("shardsweep", shardsweep); ("gransweep", gransweep);
    ("tracesmoke", tracesmoke); ("micro", micro);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst experiments
  in
  let total =
    List.fold_left
      (fun total name ->
        match List.assoc_opt name experiments with
        | Some f ->
          failures := 0;
          f ();
          total + !failures
        | None ->
          Printf.eprintf "unknown experiment %S; available: %s\n" name
            (String.concat " " (List.map fst experiments));
          exit 1)
      0 requested
  in
  print_newline ();
  if total > 0 then exit 1
