(* Tests for the supporting models: the network channel, the profiler,
   the power model and the report rendering. *)

(* ------------------------------------------------------------------ *)
(* Netmodel *)

let test_net_local () =
  let n = Netmodel.local () in
  Alcotest.(check int) "free" 0 (Netmodel.request n ~payload_bytes:1000);
  Alcotest.(check int) "message counted" 1 (Netmodel.messages n);
  Alcotest.(check int) "payload counted" 1000 (Netmodel.payload_bytes n);
  Alcotest.(check int) "no overhead" 1000 (Netmodel.total_bytes n)

let test_net_cost_arithmetic () =
  let n = Netmodel.create ~latency_cycles:100 ~cycles_per_byte:2
      ~overhead_bytes:60 ()
  in
  Alcotest.(check int)
    "latency + bytes" (100 + (2 * (40 + 60)))
    (Netmodel.request n ~payload_bytes:40);
  Alcotest.(check int) "total includes overhead" 100 (Netmodel.total_bytes n);
  let _ = Netmodel.request n ~payload_bytes:0 in
  Alcotest.(check int) "two messages" 2 (Netmodel.messages n);
  Alcotest.(check int) "overhead per message" 160 (Netmodel.total_bytes n);
  Netmodel.reset_stats n;
  Alcotest.(check int) "reset" 0 (Netmodel.messages n)

let test_net_ethernet_preset () =
  let n = Netmodel.ethernet_10mbps () in
  (* 200 MHz over 10 Mbps: 160 cycles per byte *)
  Alcotest.(check int)
    "per-byte rate" (100_000 + (160 * 61))
    (Netmodel.request n ~payload_bytes:1);
  Alcotest.(check int) "60B protocol overhead" 60
    (Netmodel.overhead_bytes_per_message n)

(* ------------------------------------------------------------------ *)
(* Profiler *)

open Fixtures

(* Two functions: [hot] runs a long loop, [cold] runs once. *)
let profiled_image n =
  let b = Isa.Builder.create "prof" in
  let hot = Isa.Builder.new_label b in
  let cold = Isa.Builder.new_label b in
  let main = Isa.Builder.new_label b in
  Isa.Builder.entry b main;
  Isa.Builder.func b "hot" hot (fun () ->
      Isa.Builder.li b (reg 1) n;
      let top = Isa.Builder.label b in
      Isa.Builder.ins b (Isa.Instr.Alui (Add, reg 2, reg 2, 3));
      Isa.Builder.ins b (Isa.Instr.Alui (Add, reg 1, reg 1, -1));
      Isa.Builder.br b Ne (reg 1) Isa.Reg.zero top;
      Isa.Builder.ins b (Isa.Instr.Jr Isa.Reg.ra));
  Isa.Builder.func b "cold" cold (fun () ->
      for _ = 1 to 10 do
        Isa.Builder.ins b Isa.Instr.Nop
      done;
      Isa.Builder.ins b (Isa.Instr.Jr Isa.Reg.ra));
  Isa.Builder.func b "main" main (fun () ->
      Isa.Builder.jal b cold;
      Isa.Builder.jal b hot;
      Isa.Builder.ins b (Isa.Instr.Out (reg 2));
      Isa.Builder.ins b Isa.Instr.Halt);
  Isa.Builder.build b

let test_profiler_hot_set () =
  let img = profiled_image 5000 in
  let prof, cpu = Profiler.profile img in
  Alcotest.(check bool) "ran" true (cpu.retired > 15000);
  Alcotest.(check int) "samples = retired" cpu.retired
    (Profiler.total_samples prof);
  let hot = Profiler.hot_set prof in
  Alcotest.(check bool) "hot set nonempty" true (hot <> []);
  Alcotest.(check string) "hottest is hot" "hot" (List.hd hot).name;
  Alcotest.(check bool)
    "cold not in 90% set" true
    (not (List.exists (fun (e : Profiler.entry) -> e.name = "cold") hot))

let test_profiler_dynamic_text () =
  let img = profiled_image 50 in
  let prof, _ = Profiler.profile img in
  (* every instruction of this little program executes at least once *)
  Alcotest.(check int) "dynamic = static here"
    (Isa.Image.static_text_bytes img)
    (Profiler.dynamic_text_bytes prof);
  Alcotest.(check int) "touched_in full range"
    (Isa.Image.static_text_bytes img)
    (Profiler.touched_in prof ~lo:img.code_base
       ~hi:(Isa.Image.code_end img))

let test_profiler_hook_chaining () =
  let img = profiled_image 10 in
  let prof = Profiler.create img in
  let cpu = Machine.Cpu.of_image img in
  let count = ref 0 in
  cpu.on_fetch <- Some (fun _ -> incr count);
  Profiler.attach prof cpu;
  let _ = Machine.Cpu.run cpu in
  Alcotest.(check int) "both hooks ran" cpu.retired !count;
  Alcotest.(check int) "profiler counted too" cpu.retired
    (Profiler.total_samples prof)

(* Regression: an unaligned upper bound must round up, so the final
   partially covered word of an odd-sized symbol is still attributed
   to the range. *)
let test_profiler_unaligned_range () =
  let img = profiled_image 50 in
  let prof, _ = Profiler.profile img in
  let hot =
    List.find (fun (s : Isa.Image.symbol) -> s.sym_name = "hot") img.symbols
  in
  let lo = hot.sym_addr in
  let full = Profiler.samples_in prof ~lo ~hi:(lo + 4) in
  Alcotest.(check bool) "first word sampled" true (full > 0);
  Alcotest.(check int) "hi = lo+1 still covers the word" full
    (Profiler.samples_in prof ~lo ~hi:(lo + 1));
  Alcotest.(check int) "touched_in rounds up too"
    (Profiler.touched_in prof ~lo ~hi:(lo + 4))
    (Profiler.touched_in prof ~lo ~hi:(lo + 1));
  (* treat the symbol as odd-sized: chopping 3 bytes off its end must
     not lose the samples of its (executed) final word *)
  let sz = hot.sym_size in
  Alcotest.(check bool) "final word executed" true
    (Profiler.samples_in prof ~lo:(lo + sz - 4) ~hi:(lo + sz) > 0);
  Alcotest.(check int) "odd-sized symbol = whole symbol"
    (Profiler.samples_in prof ~lo ~hi:(lo + sz))
    (Profiler.samples_in prof ~lo ~hi:(lo + sz - 3))

let test_profiler_threshold () =
  let img = profiled_image 5000 in
  let prof, _ = Profiler.profile img in
  let b100 = Profiler.hot_bytes ~threshold:1.0 prof in
  let b50 = Profiler.hot_bytes ~threshold:0.5 prof in
  Alcotest.(check bool) "higher threshold, more bytes" true (b100 >= b50);
  Alcotest.(check bool) "50% is just the loop" true (b50 <= 40)

(* Edge cases the temperature oracle builds on: a zero-sample profile
   must yield an empty (not NaN-poisoned) hot set, and threshold 1.0
   must return every sample-bearing entry exactly — float fraction
   accumulation could stop short of 1.0. *)
let test_profiler_hot_set_edges () =
  let img = profiled_image 50 in
  (* never run: zero samples *)
  let empty = Profiler.create img in
  Alcotest.(check int) "zero-sample profile: no samples" 0
    (Profiler.total_samples empty);
  Alcotest.(check bool) "zero-sample hot set is empty" true
    (Profiler.hot_set empty = []);
  Alcotest.(check int) "zero-sample hot bytes" 0 (Profiler.hot_bytes empty);
  Alcotest.(check bool) "zero-sample, threshold 1.0, still empty" true
    (Profiler.hot_set ~threshold:1.0 empty = []);
  (* a real run: the 100% set must cover every sample exactly *)
  let prof, _ = Profiler.profile img in
  let all = Profiler.hot_set ~threshold:1.0 prof in
  let covered =
    List.fold_left (fun a (e : Profiler.entry) -> a + e.samples) 0 all
  in
  Alcotest.(check int) "threshold 1.0 covers every sample"
    (Profiler.total_samples prof)
    covered;
  Alcotest.(check bool) "threshold 1.0 includes the cold entry" true
    (List.exists (fun (e : Profiler.entry) -> e.name = "cold") all)

let sym_range img name =
  let s =
    List.find (fun (s : Isa.Image.symbol) -> s.sym_name = name)
      img.Isa.Image.symbols
  in
  (s.sym_addr, s.sym_addr + s.sym_size)

let test_temperature_classifier () =
  let img = profiled_image 5000 in
  let prof, _ = Profiler.profile img in
  let classify = Profiler.temperature_classifier prof in
  let hot_lo, hot_hi = sym_range img "hot" in
  let cold_lo, cold_hi = sym_range img "cold" in
  Alcotest.(check string) "loop body is hot" "hot"
    (Profiler.temperature_name (classify ~lo:hot_lo ~hi:hot_hi));
  Alcotest.(check string) "run-once code is cold" "cold"
    (Profiler.temperature_name (classify ~lo:cold_lo ~hi:cold_hi));
  Alcotest.(check string) "never-executed range is cold" "cold"
    (Profiler.temperature_name (classify ~lo:0 ~hi:4));
  (* degenerate profiles rank nothing: everything reads cold *)
  let empty = Profiler.create img in
  let classify0 = Profiler.temperature_classifier empty in
  Alcotest.(check string) "zero-sample profile: cold" "cold"
    (Profiler.temperature_name (classify0 ~lo:hot_lo ~hi:hot_hi));
  (* n=1 executes every reached instruction exactly once — a flat
     profile with no contrast *)
  let flat, _ = Profiler.profile (profiled_image 1) in
  let classifyf = Profiler.temperature_classifier flat in
  Alcotest.(check string) "flat profile: even the loop is cold" "cold"
    (Profiler.temperature_name (classifyf ~lo:hot_lo ~hi:hot_hi));
  Alcotest.(check bool) "invalid bands rejected" true
    (match
       let (_ : lo:int -> hi:int -> Profiler.temperature) =
         Profiler.temperature_classifier ~hot:0.9 ~warm:0.5 prof
       in
       false
     with
    | ok -> ok
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Powermodel *)

let test_strongarm_fractions () =
  Alcotest.(check (float 1e-9)) "45% total" 0.45
    Powermodel.Strongarm.cache_total_fraction

let test_tag_energy () =
  let t =
    Powermodel.Tag_energy.of_cache ~size_bytes:8192 ~block_bytes:16 ~assoc:1
  in
  (* 512 sets: tag = 32 - 9 - 4 + 1 = 20 bits *)
  Alcotest.(check int) "tag bits" 20 t.tag_bits;
  Alcotest.(check (float 1e-9))
    "hw energy" (float_of_int 1000 *. (1. +. (20. /. 32.)))
    (Powermodel.Tag_energy.hw_energy t ~accesses:1000);
  Alcotest.(check bool)
    "sw wins with low overhead" true
    (Powermodel.Tag_energy.sw_saving t ~accesses:1000 ~overhead_instrs:100
     > 0.0);
  Alcotest.(check bool)
    "sw loses with huge overhead" true
    (Powermodel.Tag_energy.sw_saving t ~accesses:1000 ~overhead_instrs:2000
     < 0.0);
  (* 2-way probes both tags *)
  let t2 =
    Powermodel.Tag_energy.of_cache ~size_bytes:8192 ~block_bytes:16 ~assoc:2
  in
  Alcotest.(check bool) "assoc reads more tag bits" true
    (t2.tag_bits > t.tag_bits)

let test_banks () =
  let b = Powermodel.Banks.make ~bank_bytes:4096 ~banks:8 () in
  Alcotest.(check int) "total" 32768 (Powermodel.Banks.total_bytes b);
  Alcotest.(check int) "empty ws needs 1 bank" 1
    (Powermodel.Banks.active_banks b ~working_set:0);
  Alcotest.(check int) "1 byte needs 1 bank" 1
    (Powermodel.Banks.active_banks b ~working_set:1);
  Alcotest.(check int) "4097 needs 2" 2
    (Powermodel.Banks.active_banks b ~working_set:4097);
  Alcotest.(check int) "overfull capped" 8
    (Powermodel.Banks.active_banks b ~working_set:1_000_000);
  Alcotest.(check (float 1e-9))
    "all active = full power" 1.0
    (Powermodel.Banks.memory_power_fraction b ~working_set:32768);
  let one = Powermodel.Banks.memory_power_fraction b ~working_set:100 in
  Alcotest.(check (float 1e-9)) "1 active + 7 asleep"
    ((1.0 +. (7.0 *. 0.08)) /. 8.0)
    one;
  Alcotest.(check bool)
    "chip saving bounded by 45%" true
    (Powermodel.Banks.chip_saving b ~working_set:1
     < Powermodel.Strongarm.cache_total_fraction);
  match Powermodel.Banks.make ~sleep_fraction:1.5 ~bank_bytes:1 ~banks:1 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad sleep fraction should raise"

let test_banks_monotonic =
  QCheck.Test.make ~count:100 ~name:"bank power monotone in working set"
    QCheck.(make Gen.(pair (int_bound 40000) (int_bound 40000)))
    (fun (w1, w2) ->
      let b = Powermodel.Banks.make ~bank_bytes:4096 ~banks:8 () in
      let lo = min w1 w2 and hi = max w1 w2 in
      Powermodel.Banks.memory_power_fraction b ~working_set:lo
      <= Powermodel.Banks.memory_power_fraction b ~working_set:hi +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Report *)

let test_report_table () =
  let t = Report.Table.create ~title:"t" ~columns:[ "a"; "b" ] in
  Report.Table.add_row t [ "1"; "22" ];
  Report.Table.add_row t [ "333"; "4" ];
  (match Report.Table.add_row t [ "too"; "many"; "cells" ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "wrong arity should raise");
  Alcotest.(check string) "csv" "a,b\n1,22\n333,4" (Report.Table.to_csv t)

let test_report_csv_escaping () =
  let t = Report.Table.create ~title:"t" ~columns:[ "x" ] in
  Report.Table.add_row t [ "a,b" ];
  Report.Table.add_row t [ "say \"hi\"" ];
  Alcotest.(check string) "escaped" "x\n\"a,b\"\n\"say \"\"hi\"\"\""
    (Report.Table.to_csv t)

let test_report_csv_newlines () =
  (* embedded CR/LF must be quoted, or the cell splits into bogus rows *)
  let t = Report.Table.create ~title:"t" ~columns:[ "x"; "y" ] in
  Report.Table.add_row t [ "line1\nline2"; "b" ];
  Report.Table.add_row t [ "cr\rhere"; "c" ];
  Alcotest.(check string) "quoted"
    "x,y\n\"line1\nline2\",b\n\"cr\rhere\",c"
    (Report.Table.to_csv t)

let test_report_separator_width () =
  (* the underline must be exactly as wide as the rendered header line
     (indent excluded), whatever the column and cell widths *)
  let t =
    Report.Table.create ~title:"t" ~columns:[ "a"; "long header"; "c" ]
  in
  Report.Table.add_row t [ "wide cell value"; "x"; "y" ];
  match String.split_on_char '\n' (Report.Table.render t) with
  | _title :: header :: sep :: _rows ->
    Alcotest.(check int)
      "separator matches header width"
      (String.length header) (String.length sep);
    Alcotest.(check bool)
      "separator is dashes" true
      (String.for_all (fun c -> c = '-') (String.trim sep))
  | _ -> Alcotest.fail "render produced fewer than three lines"

let test_report_series () =
  let s = Report.Series.create ~title:"s" ~xlabel:"x" ~ylabel:"y" in
  Report.Series.add s 1.0 2.0;
  Report.Series.add s 2.0 4.0;
  Alcotest.(check int) "points" 2 (List.length (Report.Series.points s));
  Alcotest.(check string) "csv" "x,y\n1,2\n2,4" (Report.Series.to_csv s)

let test_report_stats () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Report.mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "mean empty" 0.0 (Report.mean []);
  Alcotest.(check (float 1e-9)) "geomean" 2.0 (Report.geomean [ 1.0; 4.0 ]);
  Alcotest.(check (float 1e-9)) "geomean empty" 0.0 (Report.geomean []);
  (match Report.geomean [ 2.0; 0.0; 8.0 ] with
  | exception Invalid_argument _ -> ()
  | v -> Alcotest.failf "non-positive input should raise, got %g" v);
  (match Report.geomean [ 2.0; -3.0 ] with
  | exception Invalid_argument _ -> ()
  | v -> Alcotest.failf "negative input should raise, got %g" v);
  Alcotest.(check (float 1e-9)) "geomean skips non-positive" 4.0
    (Report.geomean ~on_nonpositive:`Skip [ 2.0; 0.0; 8.0; -1.0 ]);
  Alcotest.(check (float 1e-9)) "geomean all skipped" 0.0
    (Report.geomean ~on_nonpositive:`Skip [ 0.0; -1.0 ]);
  Alcotest.(check string) "bytes small" "800 B" (Report.fmt_bytes 800);
  Alcotest.(check string) "bytes KB" "24.0 KB" (Report.fmt_bytes (24 * 1024));
  Alcotest.(check string) "bytes MB" "1.5 MB"
    (Report.fmt_bytes (3 * 512 * 1024))

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "models"
    [
      ( "netmodel",
        [
          Alcotest.test_case "local preset" `Quick test_net_local;
          Alcotest.test_case "cost arithmetic" `Quick test_net_cost_arithmetic;
          Alcotest.test_case "ethernet preset" `Quick test_net_ethernet_preset;
        ] );
      ( "profiler",
        [
          Alcotest.test_case "hot set" `Quick test_profiler_hot_set;
          Alcotest.test_case "dynamic text" `Quick test_profiler_dynamic_text;
          Alcotest.test_case "hook chaining" `Quick test_profiler_hook_chaining;
          Alcotest.test_case "threshold" `Quick test_profiler_threshold;
          Alcotest.test_case "hot set edge cases" `Quick
            test_profiler_hot_set_edges;
          Alcotest.test_case "temperature classifier" `Quick
            test_temperature_classifier;
          Alcotest.test_case "unaligned range rounds up" `Quick
            test_profiler_unaligned_range;
        ] );
      ( "powermodel",
        [
          Alcotest.test_case "strongarm fractions" `Quick
            test_strongarm_fractions;
          Alcotest.test_case "tag energy" `Quick test_tag_energy;
          Alcotest.test_case "banks" `Quick test_banks;
          qt test_banks_monotonic;
        ] );
      ( "report",
        [
          Alcotest.test_case "table" `Quick test_report_table;
          Alcotest.test_case "csv escaping" `Quick test_report_csv_escaping;
          Alcotest.test_case "csv newline quoting" `Quick
            test_report_csv_newlines;
          Alcotest.test_case "separator width" `Quick
            test_report_separator_width;
          Alcotest.test_case "series" `Quick test_report_series;
          Alcotest.test_case "stats helpers" `Quick test_report_stats;
        ] );
    ]
