(* The tracing subsystem and the fixes that ride along with it.

   The tentpole claim is zero perturbation: attaching a tracer must not
   move a single cycle, statistic or interconnect counter, and the
   cycle-attribution ledger must conserve exactly against the CPU cycle
   counter. Both are checked here directly and via the
   [Check.Lockstep.trace] differential runner across the whole workload
   registry, plus a mutation test proving the runner is not vacuous.

   Satellites: the shared [Bitmath] helpers, [Report.Series]
   negative-bar and CSV-escaping regressions, and schema validation of
   both exporters' real output and of every event constructor. *)

open Fixtures

let small_cfg ?(tcache_bytes = 1024) ?(eviction = Softcache.Config.Fifo)
    ?net () =
  Softcache.Config.make ~tcache_bytes ~chunking:Softcache.Config.Basic_block
    ~eviction ?net ()

(* run a workload with a tracer attached; returns the controller, the
   tracer and the outcome *)
let traced_run ?(fuel = 3_000_000) ?(limit = 65_536) cfg img =
  let ctrl = Softcache.Controller.create cfg img in
  let tr = Trace.create ~limit () in
  Softcache.Controller.attach_tracer ctrl tr;
  let outcome = Softcache.Controller.run ~fuel ctrl in
  (ctrl, tr, outcome)

(* ------------------------------------------------------------------ *)
(* Ring mechanics *)

let test_create_rejects_nonpositive () =
  List.iter
    (fun limit ->
      match Trace.create ~limit () with
      | _ -> Alcotest.failf "limit %d accepted" limit
      | exception Invalid_argument _ -> ())
    [ 0; -1 ]

let test_ring_bound_and_drop_counter () =
  let tr = Trace.create ~limit:8 () in
  let cyc = ref 0 in
  Trace.set_clock tr (fun () -> !cyc);
  for i = 1 to 20 do
    cyc := i;
    Trace.emit tr (Trace.Cc_miss { pc = i })
  done;
  Alcotest.(check int) "emitted counts everything" 20 (Trace.emitted tr);
  Alcotest.(check int) "dropped = emitted - capacity" 12 (Trace.dropped tr);
  Alcotest.(check int) "capacity" 8 (Trace.capacity tr);
  let evs = Trace.events tr in
  Alcotest.(check int) "ring holds capacity events" 8 (List.length evs);
  (* chronological, oldest first, and the oldest 12 were overwritten *)
  Alcotest.(check (list int)) "retained tail, in order"
    [ 13; 14; 15; 16; 17; 18; 19; 20 ]
    (List.map fst evs)

let test_ring_no_drop_below_capacity () =
  let tr = Trace.create ~limit:8 () in
  Trace.emit tr (Trace.Cc_miss { pc = 1 });
  Trace.emit tr (Trace.Cc_flush { chunks = 0 });
  Alcotest.(check int) "nothing dropped" 0 (Trace.dropped tr);
  Alcotest.(check int) "both retained" 2 (List.length (Trace.events tr))

(* ------------------------------------------------------------------ *)
(* Attribution ledger *)

let test_attribution_conserves () =
  let tr = Trace.create () in
  let cyc = ref 0 in
  Trace.set_clock tr (fun () -> !cyc);
  cyc := 10 (* plain execution *);
  Trace.attribute tr Trace.Wire 5;
  cyc := !cyc + 5;
  cyc := !cyc + 7 (* more execution *);
  cyc := !cyc + 3 (* a charge the clock already includes *);
  Trace.attribute_included tr Trace.Trap 3;
  let s = Trace.summary tr in
  Alcotest.(check int) "wire" 5 s.Trace.s_wire;
  Alcotest.(check int) "trap" 3 s.Trace.s_trap;
  Alcotest.(check int) "execute is the residual" 17 s.Trace.s_execute;
  Alcotest.(check int) "total" !cyc s.Trace.s_total;
  Alcotest.(check bool) "conserved" true (Trace.conserved tr ~total:!cyc);
  (* sync is idempotent: summarising again changes nothing *)
  Trace.sync tr;
  let s' = Trace.summary tr in
  Alcotest.(check int) "idempotent" s.Trace.s_total s'.Trace.s_total

let test_set_clock_rebases () =
  let tr = Trace.create () in
  let cyc = ref 1000 in
  (* the clock starts at 1000: those cycles predate the tracer and must
     not be attributed to anything *)
  Trace.set_clock tr (fun () -> !cyc);
  cyc := 1010;
  Alcotest.(check bool) "only post-attach cycles attributed" true
    (Trace.conserved tr ~total:10)

(* ------------------------------------------------------------------ *)
(* Zero perturbation: trace-on vs trace-off in lockstep *)

let check_trace_equiv name verdict =
  match verdict with
  | Check.Lockstep.Engines_equivalent { steps }
  | Check.Lockstep.Engines_out_of_fuel { steps } ->
    Alcotest.(check bool) (name ^ " stepped something") true (steps > 0)
  | v ->
    Alcotest.failf "%s: expected equivalence, got %a" name
      Check.Lockstep.pp_engine_verdict v

let test_trace_lockstep () =
  check_trace_equiv "sum"
    (Check.Lockstep.trace (fun () -> small_cfg ~tcache_bytes:768 ())
       (prog_sum 200));
  check_trace_equiv "fib/fifo+audit"
    (Check.Lockstep.trace ~audit:true (fun () -> small_cfg ()) (prog_fib 10));
  check_trace_equiv "fib/flush"
    (Check.Lockstep.trace
       (fun () -> small_cfg ~eviction:Softcache.Config.Flush_all ())
       (prog_fib 10))

let test_trace_lockstep_midrun_ops () =
  (* flush and invalidate storms on both sides: the traced run must
     still not deviate by a cycle *)
  let img = prog_fib 12 in
  let hi = 0x1000 + Isa.Image.static_text_bytes img in
  let inv c = Softcache.Controller.invalidate c ~lo:0 ~hi in
  check_trace_equiv "mid-run flush/invalidate"
    (Check.Lockstep.trace ~audit:true
       ~ops:[ inv; Softcache.Controller.flush ]
       (fun () -> small_cfg ())
       img)

let test_trace_lockstep_registry () =
  (* every shipped workload under a thrashing 2 KB tcache; out-of-fuel
     counts as success — every compared step matched *)
  List.iter
    (fun (e : Workloads.Registry.entry) ->
      let img = e.build () in
      check_trace_equiv e.name
        (Check.Lockstep.trace ~fuel:60_000
           (fun () -> small_cfg ~tcache_bytes:2048 ())
           img))
    Workloads.Registry.all

let test_trace_lockstep_detects_perturbation () =
  (* mutation test: a tracer that DID cost a cycle must be caught. The
     op charges one cycle on whichever side carries the tracer — the
     runner must report divergence, proving the comparison is real. *)
  let skew (c : Softcache.Controller.t) =
    if c.tracer <> None then c.cpu.cycles <- c.cpu.cycles + 1
  in
  match
    Check.Lockstep.trace ~fuel:5_000 ~ops:[ skew ]
      (fun () -> small_cfg ())
      (prog_fib 12)
  with
  | Check.Lockstep.Engines_diverged _ -> ()
  | v ->
    Alcotest.failf "expected divergence, got %a"
      Check.Lockstep.pp_engine_verdict v

(* ------------------------------------------------------------------ *)
(* Traced controller runs: events, conservation, audit *)

let test_traced_run_events_and_conservation () =
  let img = (Option.get (Workloads.Registry.find "cjpeg")).build () in
  (* the ethernet model: the local interconnect is free (0 latency,
     0 cycles/byte) and would legitimately attribute no wire cycles *)
  let ctrl, tr, outcome =
    traced_run
      (small_cfg ~tcache_bytes:2048 ~net:(Netmodel.ethernet_10mbps ()) ())
      img
  in
  Alcotest.(check bool) "halts" true (outcome = Machine.Cpu.Halted);
  let evs = Trace.events tr in
  let has p = List.exists (fun (_, ev) -> p ev) evs in
  Alcotest.(check bool) "misses recorded" true
    (has (function Trace.Cc_miss _ -> true | _ -> false));
  Alcotest.(check bool) "translations recorded" true
    (has (function Trace.Cc_translated _ -> true | _ -> false));
  Alcotest.(check bool) "placements recorded" true
    (has (function Trace.Tc_alloc _ -> true | _ -> false));
  Alcotest.(check bool) "frames recorded" true
    (has (function Trace.Net_send _ -> true | _ -> false));
  Alcotest.(check bool) "cache thrashed" true
    (ctrl.stats.evicted_blocks > 0);
  Alcotest.(check bool) "evictions recorded" true
    (has (function Trace.Cc_evict _ -> true | _ -> false));
  (* cycle stamps never go backwards *)
  let rec monotone = function
    | (a, _) :: ((b, _) :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "stamps nondecreasing" true (monotone evs);
  Alcotest.(check bool) "attribution conserves" true
    (Trace.conserved tr ~total:ctrl.cpu.cycles);
  (* the ledger actually split something out of execute *)
  let s = Trace.summary tr in
  Alcotest.(check bool) "translate cycles attributed" true
    (s.Trace.s_translate > 0);
  Alcotest.(check bool) "wire cycles attributed" true (s.Trace.s_wire > 0);
  Alcotest.(check bool) "trap cycles attributed" true (s.Trace.s_trap > 0)

let test_traced_run_under_audit () =
  (* the auditor's trace section re-checks conservation at every
     controller event; a healthy traced run must stay silent *)
  let img = (Option.get (Workloads.Registry.find "cjpeg")).build () in
  let ctrl =
    Softcache.Controller.create (small_cfg ~tcache_bytes:2048 ()) img
  in
  let tr = Trace.create () in
  Softcache.Controller.attach_tracer ctrl tr;
  let audits = Check.Audit.install ctrl in
  let outcome = Softcache.Controller.run ~fuel:3_000_000 ctrl in
  Alcotest.(check bool) "halts" true (outcome = Machine.Cpu.Halted);
  Alcotest.(check bool) "auditor exercised" true (!audits > 100)

let test_traced_run_with_faults () =
  (* a lossy link: transport retries must surface as fault + retry
     events in the ring *)
  let faults = Netmodel.Faults.make ~seed:7 ~drop:0.3 ~corrupt:0.1 () in
  let net = Netmodel.local ~faults () in
  let cfg = small_cfg ~net () in
  let ctrl, tr, _ = traced_run cfg (prog_fib 10) in
  Alcotest.(check bool) "faults actually fired" true
    (Netmodel.drops cfg.net > 0);
  Alcotest.(check bool) "retries happened" true (ctrl.stats.net_retries > 0);
  let has p = List.exists (fun (_, ev) -> p ev) (Trace.events tr) in
  Alcotest.(check bool) "fault events recorded" true
    (has (function Trace.Net_fault _ -> true | _ -> false));
  Alcotest.(check bool) "retry events recorded" true
    (has (function Trace.Cc_retry _ -> true | _ -> false));
  Alcotest.(check bool) "conserves under faults" true
    (Trace.conserved tr ~total:ctrl.cpu.cycles)

let test_dcache_traced_run () =
  let img = (Option.get (Workloads.Registry.find "cjpeg")).build () in
  let cfg = Dcache.Config.make () in
  let tr = Trace.create () in
  let outcome, cpu, stats = Dcache.Sim.run ~tracer:tr cfg img in
  Alcotest.(check bool) "halts" true (outcome = Machine.Cpu.Halted);
  Alcotest.(check bool) "conserves" true
    (Trace.conserved tr ~total:cpu.cycles);
  let s = Trace.summary tr in
  Alcotest.(check int) "overhead labelled as dcache" stats.extra_cycles
    s.Trace.s_dcache;
  if stats.misses > 0 then begin
    let has p = List.exists (fun (_, ev) -> p ev) (Trace.events tr) in
    Alcotest.(check bool) "misses recorded" true
      (has (function Trace.Dc_miss _ -> true | _ -> false))
  end

(* ------------------------------------------------------------------ *)
(* Exporters and schema validation *)

let exported_tracer () =
  let img = (Option.get (Workloads.Registry.find "cjpeg")).build () in
  let ctrl, tr, _ = traced_run (small_cfg ~tcache_bytes:2048 ()) img in
  (ctrl, tr)

let test_jsonl_export_validates () =
  let _, tr = exported_tracer () in
  match Trace.Schema.validate_jsonl (Trace.to_jsonl tr) with
  | Ok n ->
    Alcotest.(check int) "one object per retained event"
      (List.length (Trace.events tr))
      n;
    Alcotest.(check bool) "non-trivial" true (n > 0)
  | Error e -> Alcotest.failf "jsonl export fails its own schema: %s" e

let test_chrome_export_validates () =
  let _, tr = exported_tracer () in
  match Trace.Schema.validate_chrome (Trace.to_chrome tr) with
  | Ok n -> Alcotest.(check bool) "non-trivial" true (n > 0)
  | Error e -> Alcotest.failf "chrome export fails validation: %s" e

(* [Trace.exemplars] is the schema: the validator reads each type's
   fields off its exemplar. Emitting every exemplar, plus every other
   fault and eviction reason, and validating both exports checks the
   exporters against it. The match is exhaustive on purpose: a new
   constructor does not build until it is counted here, and the
   exemplar check below fails until [Trace.exemplars] holds one. *)
let constructor_index : Trace.event -> int = function
  | Cc_miss _ -> 0
  | Cc_translated _ -> 1
  | Cc_backpatch _ -> 2
  | Cc_unpatch _ -> 3
  | Cc_promote _ -> 4
  | Cc_depromote _ -> 5
  | Cc_evict _ -> 6
  | Cc_flush _ -> 7
  | Cc_invalidate _ -> 8
  | Cc_staged_install _ -> 9
  | Cc_retry _ -> 10
  | Cc_degrade _ -> 11
  | Tc_alloc _ -> 12
  | Net_send _ -> 13
  | Net_recv _ -> 14
  | Net_fault _ -> 15
  | Fl_request _ -> 16
  | Fl_coalesce _ -> 17
  | Fl_frame _ -> 18
  | Fl_piggyback _ -> 19
  | Fl_stall _ -> 20
  | Sh_fill _ -> 21
  | Sh_coalesce _ -> 22
  | Dc_specialise _ -> 23
  | Dc_deopt _ -> 24
  | Dc_miss _ -> 25
  | Dc_spill _ -> 26
  | Dc_refill _ -> 27

let exemplars =
  Trace.exemplars
  @ List.map
      (fun fault -> Trace.Net_fault { fault })
      [ Trace.Corrupt; Trace.Duplicate; Trace.Delay_spike ]
  @ List.map
      (fun reason ->
        Trace.Cc_evict
          { chunk = 0x100; base = 0x10000; bytes = 32; incoming = 1; reason })
      [ Trace.Collateral; Trace.Stub_growth; Trace.Invalidated; Trace.Flushed ]

let test_every_event_validates () =
  Alcotest.(check (list int))
    "one exemplar of every constructor" (List.init 28 Fun.id)
    (List.map constructor_index Trace.exemplars);
  let tr = Trace.create () in
  let clock = ref 0 in
  Trace.set_clock tr (fun () -> !clock);
  List.iter
    (fun ev ->
      incr clock;
      Trace.emit tr ev)
    exemplars;
  (match Trace.Schema.validate_jsonl (Trace.to_jsonl tr) with
  | Ok n -> Alcotest.(check int) "every event validates" (List.length exemplars) n
  | Error e -> Alcotest.failf "jsonl export fails the schema: %s" e);
  match Trace.Schema.validate_chrome (Trace.to_chrome tr) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "chrome export fails validation: %s" e

let test_schema_rejects_malformed () =
  let bad =
    [
      ("not json at all", "garbage");
      ("{\"type\":\"cc_miss\",\"pc\":1}", "missing cycle");
      ("{\"cycle\":-1,\"type\":\"cc_miss\",\"pc\":1}", "negative cycle");
      ("{\"cycle\":1,\"type\":\"nonsense\"}", "unknown type");
      ("{\"cycle\":1,\"type\":\"cc_miss\"}", "missing required field");
      ( "{\"cycle\":1,\"type\":\"cc_miss\",\"pc\":1,\"bogus\":2}",
        "unexpected field" );
      ( "{\"cycle\":1,\"type\":\"net_fault\",\"fault\":\"gremlins\"}",
        "bad fault value" );
    ]
  in
  List.iter
    (fun (line, why) ->
      match Trace.Schema.validate_jsonl_line line with
      | Ok () -> Alcotest.failf "accepted %s: %s" why line
      | Error _ -> ())
    bad;
  (* and the line number is reported on multi-line input *)
  let text = "{\"cycle\":1,\"type\":\"cc_miss\",\"pc\":1}\ngarbage\n" in
  match Trace.Schema.validate_jsonl text with
  | Error e ->
    Alcotest.(check bool) "names line 2" true
      (String.length e >= 7 && String.sub e 0 7 = "line 2:")
  | Ok _ -> Alcotest.fail "accepted garbage on line 2"

let test_chrome_validator_rejects_backwards_ts () =
  let doc =
    "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"i\",\"s\":\"t\",\"ts\":5,\
     \"pid\":1,\"tid\":1,\"args\":{}},{\"name\":\"b\",\"ph\":\"i\",\
     \"s\":\"t\",\"ts\":4,\"pid\":1,\"tid\":1,\"args\":{}}]}"
  in
  match Trace.Schema.validate_chrome doc with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a time-travelling trace"

(* Harts sharing one ring stamp it from their own clocks, so stamps
   interleave out of order; the Chrome rendering must still come out in
   stamp order, with residency spans still paired. *)
let test_chrome_sorts_interleaved_stamps () =
  let tr = Trace.create () in
  let clock = ref 0 in
  Trace.set_clock tr (fun () -> !clock);
  let at c ev =
    clock := c;
    Trace.emit tr ev
  in
  at 10 (Trace.Cc_translated { chunk = 0x100; base = 0x10000; words = 8 });
  at 4 (Trace.Sh_coalesce { hart = 1; chunk = 0x100; wait = 6 });
  at 12 (Trace.Cc_translated { chunk = 0x200; base = 0x10020; words = 8 });
  at 7
    (Trace.Cc_evict
       { chunk = 0x200; base = 0x10020; bytes = 32; incoming = 0;
         reason = Trace.Victim });
  let chrome = Trace.to_chrome tr in
  (match Trace.Schema.validate_chrome chrome with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "interleaved chrome export invalid: %s" e);
  let stamps =
    match Trace.Json.parse chrome with
    | Ok doc -> (
      match Trace.Json.member "traceEvents" doc with
      | Some (Trace.Json.Arr evs) ->
        List.filter_map
          (fun e ->
            match
              (Trace.Json.member "ph" e, Trace.Json.member "ts" e)
            with
            | Some (Trace.Json.Str "i"), Some (Trace.Json.Num ts) ->
              Some (int_of_float ts)
            | _ -> None)
          evs
      | _ -> Alcotest.fail "no traceEvents")
    | Error e -> Alcotest.failf "unparsable: %s" e
  in
  Alcotest.(check (list int)) "instants in stamp order" [ 4; 7; 10; 12 ]
    stamps;
  (* the ring itself (and so the JSONL rendering) keeps recording
     order *)
  Alcotest.(check (list int)) "ring keeps recording order" [ 10; 4; 12; 7 ]
    (List.map fst (Trace.events tr))

let test_export_writes_files () =
  let _, tr = exported_tracer () in
  let dir = Filename.temp_file "trace" "" in
  Sys.remove dir;
  let jsonl = dir ^ ".jsonl" and chrome = dir ^ ".json" in
  Trace.export tr ~format:`Jsonl jsonl;
  Trace.export tr ~format:`Chrome chrome;
  let slurp f = In_channel.with_open_text f In_channel.input_all in
  let j = slurp jsonl and c = slurp chrome in
  Sys.remove jsonl;
  Sys.remove chrome;
  (match Trace.Schema.validate_jsonl j with
  | Ok n -> Alcotest.(check bool) "jsonl file valid" true (n > 0)
  | Error e -> Alcotest.failf "jsonl file: %s" e);
  match Trace.Schema.validate_chrome c with
  | Ok n -> Alcotest.(check bool) "chrome file valid" true (n > 0)
  | Error e -> Alcotest.failf "chrome file: %s" e

let test_json_parser_basics () =
  let ok s v =
    match Trace.Json.parse s with
    | Ok v' -> Alcotest.(check bool) s true (v = v')
    | Error e -> Alcotest.failf "%s: %s" s e
  in
  ok "42" (Trace.Json.Num 42.0);
  ok "\"a\\\"b\"" (Trace.Json.Str "a\"b");
  ok "[1,true,null]"
    (Trace.Json.Arr [ Trace.Json.Num 1.0; Trace.Json.Bool true; Trace.Json.Null ]);
  ok "{\"k\":-1.5e2}" (Trace.Json.Obj [ ("k", Trace.Json.Num (-150.0)) ]);
  List.iter
    (fun s ->
      match Trace.Json.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "parsed %S" s)
    [ "{"; "[1,]"; "{\"k\":}"; "1 2"; "\"unterminated" ]

(* ------------------------------------------------------------------ *)
(* Satellite: shared Bitmath helpers *)

let test_bitmath_is_pow2 () =
  List.iter
    (fun (n, want) ->
      Alcotest.(check bool) (Printf.sprintf "is_pow2 %d" n) want
        (Bitmath.is_pow2 n))
    [ (-4, false); (0, false); (1, true); (2, true); (3, false); (4, true);
      (1023, false); (1024, true); (1025, false) ]

let test_bitmath_floor_log2 () =
  List.iter
    (fun (n, want) ->
      Alcotest.(check int) (Printf.sprintf "floor_log2 %d" n) want
        (Bitmath.floor_log2 n))
    [ (0, 0); (1, 0); (2, 1); (3, 1); (4, 2); (5, 2); (7, 2); (8, 3);
      (1023, 9); (1024, 10); (1025, 10) ]

let test_bitmath_ceil_log2 () =
  List.iter
    (fun (n, want) ->
      Alcotest.(check int) (Printf.sprintf "ceil_log2 %d" n) want
        (Bitmath.ceil_log2 n))
    [ (0, 0); (1, 0); (2, 1); (3, 2); (4, 2); (5, 3); (7, 3); (8, 3); (9, 4);
      (1023, 10); (1024, 10); (1025, 11) ];
  (* and the two agree on exact powers of two *)
  List.iter
    (fun k ->
      Alcotest.(check int)
        (Printf.sprintf "pow2 agreement at 2^%d" k)
        (Bitmath.floor_log2 (1 lsl k))
        (Bitmath.ceil_log2 (1 lsl k)))
    [ 0; 1; 5; 10; 20 ]

(* ------------------------------------------------------------------ *)
(* Satellite: Report.Series fixes *)

let test_series_print_mixed_sign () =
  (* regression: a negative point under a positive maximum produced a
     negative bar length and [String.make] raised — the chart must
     simply render an empty bar *)
  let s =
    Report.Series.create ~title:"mixed" ~xlabel:"x" ~ylabel:"y"
  in
  Report.Series.add s 1.0 5.0;
  Report.Series.add s 2.0 (-3.0);
  Report.Series.add s 3.0 0.0;
  Report.Series.print s;
  (* all-negative series: ymax is clamped at 0 and every bar is empty *)
  let neg =
    Report.Series.create ~title:"neg" ~xlabel:"x" ~ylabel:"y"
  in
  Report.Series.add neg 1.0 (-1.0);
  Report.Series.print neg

(* minimal RFC-4180 reader for the round-trip check *)
let parse_csv s =
  let n = String.length s in
  let rows = ref [] and row = ref [] and buf = Buffer.create 16 in
  let i = ref 0 in
  let flush_field () =
    row := Buffer.contents buf :: !row;
    Buffer.clear buf
  in
  let flush_row () =
    flush_field ();
    rows := List.rev !row :: !rows;
    row := []
  in
  while !i < n do
    if s.[!i] = '"' then begin
      incr i;
      let fin = ref false in
      while not !fin do
        if !i >= n then fin := true
        else if s.[!i] = '"' then
          if !i + 1 < n && s.[!i + 1] = '"' then begin
            Buffer.add_char buf '"';
            i := !i + 2
          end
          else begin
            incr i;
            fin := true
          end
        else begin
          Buffer.add_char buf s.[!i];
          incr i
        end
      done
    end
    else if s.[!i] = ',' then begin
      flush_field ();
      incr i
    end
    else if s.[!i] = '\n' then begin
      flush_row ();
      incr i
    end
    else begin
      Buffer.add_char buf s.[!i];
      incr i
    end
  done;
  if Buffer.length buf > 0 || !row <> [] then flush_row ();
  List.rev !rows

let test_csv_escape () =
  List.iter
    (fun (raw, want) ->
      Alcotest.(check string) raw want (Report.csv_escape raw))
    [
      ("plain", "plain");
      ("a,b", "\"a,b\"");
      ("say \"hi\"", "\"say \"\"hi\"\"\"");
      ("line\nbreak", "\"line\nbreak\"");
    ]

let test_series_csv_roundtrip () =
  (* regression: labels with commas, quotes and newlines used to be
     emitted raw and corrupted the header row *)
  let xl = "size, KB" and yl = "miss \"rate\"\n(percent)" in
  let s = Report.Series.create ~title:"t" ~xlabel:xl ~ylabel:yl in
  Report.Series.add s 1.5 2.25;
  Report.Series.add s 3.0 (-0.5);
  match parse_csv (Report.Series.to_csv s) with
  | [ header; r1; r2 ] ->
    Alcotest.(check (list string)) "header round-trips" [ xl; yl ] header;
    Alcotest.(check (list string)) "row 1" [ "1.5"; "2.25" ] r1;
    Alcotest.(check (list string)) "row 2" [ "3"; "-0.5" ] r2
  | rows -> Alcotest.failf "expected 3 rows, got %d" (List.length rows)

let test_table_csv_roundtrip () =
  let t =
    Report.Table.create ~title:"t" ~columns:[ "name"; "value, note" ]
  in
  Report.Table.add_row t [ "a\"b"; "multi\nline" ];
  match parse_csv (Report.Table.to_csv t) with
  | [ header; row ] ->
    Alcotest.(check (list string)) "header" [ "name"; "value, note" ] header;
    Alcotest.(check (list string)) "row" [ "a\"b"; "multi\nline" ] row
  | rows -> Alcotest.failf "expected 2 rows, got %d" (List.length rows)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "trace"
    [
      ( "ring",
        [
          Alcotest.test_case "rejects non-positive limit" `Quick
            test_create_rejects_nonpositive;
          Alcotest.test_case "bound + explicit drop counter" `Quick
            test_ring_bound_and_drop_counter;
          Alcotest.test_case "no drops below capacity" `Quick
            test_ring_no_drop_below_capacity;
        ] );
      ( "attribution",
        [
          Alcotest.test_case "conserves and is idempotent" `Quick
            test_attribution_conserves;
          Alcotest.test_case "set_clock rebases" `Quick test_set_clock_rebases;
        ] );
      ( "zero-perturbation",
        [
          Alcotest.test_case "traced = untraced, cycles included" `Quick
            test_trace_lockstep;
          Alcotest.test_case "mid-run flush/invalidate" `Quick
            test_trace_lockstep_midrun_ops;
          Alcotest.test_case "every registry workload" `Quick
            test_trace_lockstep_registry;
          Alcotest.test_case "detects a perturbing tracer" `Quick
            test_trace_lockstep_detects_perturbation;
        ] );
      ( "traced-runs",
        [
          Alcotest.test_case "events recorded, ledger conserves" `Quick
            test_traced_run_events_and_conservation;
          Alcotest.test_case "clean under the auditor" `Quick
            test_traced_run_under_audit;
          Alcotest.test_case "fault events on a lossy link" `Quick
            test_traced_run_with_faults;
          Alcotest.test_case "dcache sim traced + conserves" `Quick
            test_dcache_traced_run;
        ] );
      ( "exporters",
        [
          Alcotest.test_case "jsonl passes its own schema" `Quick
            test_jsonl_export_validates;
          Alcotest.test_case "chrome passes validation" `Quick
            test_chrome_export_validates;
          Alcotest.test_case "every event kind passes the schema" `Quick
            test_every_event_validates;
          Alcotest.test_case "schema rejects malformed lines" `Quick
            test_schema_rejects_malformed;
          Alcotest.test_case "chrome validator rejects backwards ts" `Quick
            test_chrome_validator_rejects_backwards_ts;
          Alcotest.test_case "chrome sorts interleaved hart stamps" `Quick
            test_chrome_sorts_interleaved_stamps;
          Alcotest.test_case "export writes valid files" `Quick
            test_export_writes_files;
          Alcotest.test_case "json parser basics" `Quick
            test_json_parser_basics;
        ] );
      ( "bitmath",
        [
          Alcotest.test_case "is_pow2" `Quick test_bitmath_is_pow2;
          Alcotest.test_case "floor_log2 edges" `Quick
            test_bitmath_floor_log2;
          Alcotest.test_case "ceil_log2 edges" `Quick test_bitmath_ceil_log2;
        ] );
      ( "report",
        [
          Alcotest.test_case "negative bars render empty" `Quick
            test_series_print_mixed_sign;
          Alcotest.test_case "csv_escape quoting" `Quick test_csv_escape;
          Alcotest.test_case "series csv round-trips labels" `Quick
            test_series_csv_roundtrip;
          Alcotest.test_case "table csv round-trips cells" `Quick
            test_table_csv_roundtrip;
        ] );
    ]
