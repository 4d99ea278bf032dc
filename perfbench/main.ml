(* The two-clock softcache benchmark.

     main.exe --workload fit|thrash|linked|audited [--seed N]
              [--seconds S] [--trace 0|1]

   A single-threaded closed loop: set-up runs five times or more (its
   median is [setup_s]), then passes over the workload's cells run
   back to back for [--seconds] (at least two). With [--trace 0] host times
   are calibrated against machine speed ([Calib]) and the last stdout
   line is the end-to-end metrics as JSON; with [--trace 1] it is the
   per-layer metrics, from untraced passes alternating with
   span-traced passes plus one pass with the simulated-cycle ledger
   attached; the spans go to perfbench/out/spans-<workload>.jsonl.
   Every pass must reproduce the first pass's simulated results and
   allocation exactly; any drift makes the run incorrect.
   Exits 0 whenever it prints a result, 2 on bad arguments. *)

open Perfbench

(* set-up repeats at least [setups] times and for at least
   [setup_seconds], so that a short set-up still gives a steady median *)
let setups = 5
let setup_seconds = 2.0

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* linear-interpolated quantile, as Python's statistics.quantiles
   (exclusive method) gives the quartiles *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  let q p =
    if n = 0 then nan
    else if n = 1 then a.(0)
    else
      let h = p *. float_of_int (n + 1) in
      let j = max 1 (min (n - 1) (int_of_float h)) in
      let f = Float.max 0.0 (Float.min 1.0 (h -. float_of_int j)) in
      a.(j - 1) +. (f *. (a.(j) -. a.(j - 1)))
  in
  (q 0.25, q 0.75)

let geomean = function
  | [] -> nan
  | xs ->
    exp
      (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
      /. float_of_int (List.length xs))

let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int
let secs ns = fi ns *. 1e-9

(* ---- passes ---------------------------------------------------------- *)

type pass = { results : Cells.result array; words : float }

(* Each cell starts from a collected heap, so neither its time nor its
   heap depends on which cell ran before it (the seed shuffles the
   order). With [metered] every cell's time is calibrated and the heap
   its finished state holds over the collected heap it started from is
   read: what the cell needed, whatever set-up keeps live. *)
let run_pass ?spans ?ledger ?(metered = false) cells =
  Option.iter Spans.new_pass spans;
  Option.iter (fun sp -> Spans.enter sp Spans.Pass) spans;
  let results =
    Array.map
      (fun c ->
        Gc.full_major ();
        if metered then
          Cells.run ?spans ~meter:(Calib.create ())
            ~heap_from:(Gc.quick_stat ()).heap_words ?ledger c
        else Cells.run ?spans ?ledger c)
      cells
  in
  Option.iter Spans.leave spans;
  let words =
    Array.fold_left (fun acc (r : Cells.result) -> acc +. r.words) 0.0 results
  in
  { results; words }

(* ---- checks ----------------------------------------------------------- *)

let problem problems fmt =
  Printf.ksprintf (fun s -> problems := s :: !problems) fmt

(* Invisibility lockstep: every pass reproduces the reference pass's
   simulated results cell by cell; [words] compares allocation too
   (off for ledger passes, whose event ring allocates by design). *)
let lockstep ck ~what ~words (reference : pass) (p : pass) =
  Array.iteri
    (fun i (r : Cells.result) ->
      let r0 = reference.results.(i) in
      let l = Cells.label r.cell.spec in
      if r.sim <> r0.sim then
        problem ck "%s: %s simulated results drift" what l;
      if words && r.words <> r0.words then
        problem ck "%s: %s allocated %.0f words, reference pass %.0f" what l
          r.words r0.words)
    p.results

let failures ck passes =
  List.iter
    (fun p ->
      Array.iter
        (fun (r : Cells.result) ->
          Option.iter
            (fun why ->
              problem ck "%s failed: %s" (Cells.label r.cell.spec) why)
            r.failure;
          if not r.conserved then
            problem ck "%s: simulated ledger does not sum to cpu.cycles"
              (Cells.label r.cell.spec))
        p.results)
    passes

(* ---- output ----------------------------------------------------------- *)

let json_number x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let emit ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
             (json_number v) unit)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed body

let print_cells (p : pass) =
  Printf.printf "%-58s %9s %12s %9s %10s  %s\n" "cell" "host_ms" "sim_cycles"
    "slowdown" "misses" "status";
  Array.iter
    (fun (r : Cells.result) ->
      let cyc, slow, miss =
        match r.sim with
        | Some s ->
          ( string_of_int s.cycles,
            Printf.sprintf "%.3f" (ratio (fi s.cycles) (fi s.native)),
            string_of_int s.translations )
        | None -> ("-", "-", "-")
      in
      Printf.printf "%-58s %9.1f %12s %9s %10s  %s\n"
        (Cells.label r.cell.spec)
        (fi r.wall_ns *. 1e-6)
        cyc slow miss
        (Option.value r.failure ~default:"ok"))
    p.results

(* ---- metrics ---------------------------------------------------------- *)

let sims (p : pass) =
  Array.to_list p.results |> List.filter_map (fun (r : Cells.result) -> r.sim)

let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

(* Seconds for one pass: each cell's median time over the passes,
   summed. [time] picks the raw or the calibrated time of a cell run. *)
let pass_seconds time passes =
  match passes with
  | [] -> nan
  | p :: _ ->
    let cell i = median (List.map (fun q -> secs (time q.results.(i))) passes) in
    List.fold_left ( +. ) 0.0 (List.init (Array.length p.results) cell)

let raw (r : Cells.result) = r.wall_ns
let scaled (r : Cells.result) = Option.value r.scaled_ns ~default:r.wall_ns

(* each pass's total, for the printed quartiles *)
let totals time passes =
  List.map
    (fun p -> Array.fold_left (fun acc r -> acc +. secs (time r)) 0.0 p.results)
    passes

(* cell runs attempted and failed over some passes *)
let tally passes =
  ( sum (fun p -> Array.length p.results) passes,
    sum
      (fun p ->
        Array.fold_left
          (fun acc (r : Cells.result) ->
            if r.failure = None then acc else acc + 1)
          0 p.results)
      passes )

let end_to_end ~setup_s ~(untraced : pass list) =
  let attempted, failed = tally untraced in
  let first = List.hd untraced in
  let ss = sims first in
  List.iter
    (fun (what, time) ->
      let ts = totals time untraced in
      let q1, q3 = quartiles ts in
      Printf.printf "%s pass: %.4f s (sum of cell medians); passes q1 %.4f \
                     q3 %.4f:%s\n"
        what (pass_seconds time untraced) q1 q3
        (String.concat "" (List.map (Printf.sprintf " %.4f") ts)))
    [ ("calibrated", scaled); ("raw", raw) ];
  let heap =
    List.fold_left
      (fun acc p ->
        Array.fold_left
          (fun acc (r : Cells.result) ->
            max acc (Option.value r.heap_words ~default:0))
          acc p.results)
      0 untraced
    * (Sys.word_size / 8)
  in
  [
    ("pass_s", "s", pass_seconds scaled untraced);
    ("setup_s", "s", setup_s);
    ("alloc_mwords", "Mwords", first.words /. 1e6);
    ("heap_peak_mb", "MB", fi heap /. 1048576.0);
    ("pass_rate", "ratio", 1.0 -. ratio (fi failed) (fi attempted));
    ( "sim_slowdown",
      "x",
      geomean
        (List.map (fun (s : Cells.sim) -> ratio (fi s.cycles) (fi s.native)) ss)
    );
    ( "miss_rate",
      "1/instr",
      ratio
        (fi (sum (fun (s : Cells.sim) -> s.translations) ss))
        (fi (sum (fun (s : Cells.sim) -> s.retired) ss)) );
    ( "wire_kb",
      "KB",
      fi (sum (fun (s : Cells.sim) -> s.wire_bytes) ss) /. 1024.0 );
  ]

let per_layer ~(setups : Cells.setup list) ~(untraced : pass list)
    ~(traced : pass list) ~(ledger : pass) sp =
  let ss = sims (List.hd untraced) in
  let n = fi (List.length traced) in
  let per_pass x = x /. n in
  let cell_s = per_pass (Spans.busy_s sp Spans.Cell) in
  let busy l = per_pass (Spans.busy_s sp l) in
  let self l = per_pass (Spans.self_s sp l) in
  let calls l = per_pass (fi (Spans.calls sp l)) in
  let words l = per_pass (Spans.self_words sp l) in
  let share l = ratio (self l) cell_s in
  let count f = fi (sum f ss) in
  let misses = count (fun s -> s.translations) in
  let instrs = count (fun s -> s.retired) in
  let miss_path_s =
    self Spans.Cc_trap +. self Spans.Netmodel +. self Spans.Crc32
  in
  let miss_path_words =
    words Spans.Cc_trap +. words Spans.Netmodel +. words Spans.Crc32
  in
  let ledger_sum f =
    fi
      (Array.fold_left
         (fun acc (r : Cells.result) ->
           match r.ledger with Some l -> acc + f l | None -> acc)
         0 ledger.results)
  in
  let untraced_s = pass_seconds raw untraced in
  let traced_s = pass_seconds raw traced in
  let setup_median f = median (List.map f setups) in
  let cells = (List.hd setups).cells in
  [
    ("machine.instrs", "count", instrs);
    ("machine.busy_s", "s", self Spans.Cell);
    ("machine.ns_per_instr", "ns/instr", ratio (self Spans.Cell *. 1e9) instrs);
    ("machine.share", "ratio", share Spans.Cell);
    ("cc_trap.calls", "count", calls Spans.Cc_trap);
    ("cc_trap.busy_s", "s", busy Spans.Cc_trap);
    ("cc_trap.self_s", "s", self Spans.Cc_trap);
    ("cc_trap.us_per_miss", "us/miss", ratio (miss_path_s *. 1e6) misses);
    ("cc_trap.share", "ratio", ratio (busy Spans.Cc_trap) cell_s);
    ("cc_trap.self_share", "ratio", share Spans.Cc_trap);
    ( "cc_trap.alloc_words_per_miss",
      "words/miss",
      ratio miss_path_words misses );
    ("miss.count", "count", misses);
    ( "miss.overhead_ratio",
      "ratio",
      ratio
        (count (fun s -> s.overhead_words))
        (count (fun s -> s.translated_words)) );
    ("evict.blocks", "count", count (fun s -> s.evicted_blocks));
    ("evict.collateral", "count", count (fun s -> s.evicted_collateral));
    ("scrub.words", "count", count (fun s -> s.scrubbed_words));
    ("patch.count", "count", count (fun s -> s.patches));
    ("revert.count", "count", count (fun s -> s.reverts));
    ("policy.entries", "count", count (fun s -> s.policy_entries));
    ("chain.chained", "count", count (fun s -> s.chained));
    ("superblock.count", "count", count (fun s -> s.superblocks));
    ("superblock.depromotions", "count", count (fun s -> s.depromotions));
    ( "prefetch.useful_ratio",
      "ratio",
      ratio
        (count (fun s -> s.prefetch_installs))
        (count (fun s -> s.prefetch_issued)) );
    ("shard.fills", "count", count (fun s -> s.fills));
    ( "shard.coalesce_ratio",
      "ratio",
      ratio
        (count (fun s -> s.fills_coalesced))
        (count (fun s -> s.fills + s.fills_coalesced)) );
    ("shard.wait_mc_cyc", "cycles", count (fun s -> s.mc_wait_cycles));
    ("netmodel.calls", "count", calls Spans.Netmodel);
    ("netmodel.busy_s", "s", busy Spans.Netmodel);
    ("netmodel.share", "ratio", share Spans.Netmodel);
    ("netmodel.messages", "count", count (fun s -> s.messages));
    ("netmodel.retries", "count", count (fun s -> s.net_retries));
    ("crc32.calls", "count", calls Spans.Crc32);
    ("crc32.busy_s", "s", busy Spans.Crc32);
    ("crc32.share", "ratio", share Spans.Crc32);
    ("crc32.bytes", "bytes", per_pass (fi (Spans.crc_bytes sp)));
    ("audit.calls", "count", calls Spans.Audit);
    ("audit.busy_s", "s", busy Spans.Audit);
    ( "audit.us_per_event",
      "us/event",
      ratio (busy Spans.Audit *. 1e6) (calls Spans.Audit) );
    ("audit.share", "ratio", share Spans.Audit);
    ("audit.alloc_words", "words", words Spans.Audit);
    ("profiler.busy_s", "s", setup_median (fun s -> s.Cells.profiler_s));
    ("sizing.busy_s", "s", setup_median (fun s -> s.Cells.sizing_s));
    ( "sizing.need_ratio",
      "ratio",
      geomean
        (Array.to_list
           (Array.map
              (fun (c : Cells.cell) ->
                ratio (fi c.predicted_bytes) (fi c.spec.tcache))
              cells)) );
    ("sim.execute_cyc", "cycles", ledger_sum (fun l -> l.Trace.s_execute));
    ("sim.translate_cyc", "cycles", ledger_sum (fun l -> l.Trace.s_translate));
    ("sim.wire_cyc", "cycles", ledger_sum (fun l -> l.Trace.s_wire));
    ("sim.trap_cyc", "cycles", ledger_sum (fun l -> l.Trace.s_trap));
    ("sim.patch_cyc", "cycles", ledger_sum (fun l -> l.Trace.s_patch));
    ("sim.scrub_cyc", "cycles", ledger_sum (fun l -> l.Trace.s_scrub));
    ("sim.lookup_cyc", "cycles", ledger_sum (fun l -> l.Trace.s_lookup));
    ("trace.pass_s", "s", traced_s);
    ("trace.overhead_ratio", "ratio", ratio traced_s untraced_s -. 1.0);
  ]

(* ---- entry point ------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0
  and trace = ref 0 in
  let usage =
    "main.exe --workload fit|thrash|linked|audited [--seed N] [--seconds S] \
     [--trace 0|1]"
  in
  let bad msg =
    prerr_endline msg;
    prerr_endline usage;
    exit 2
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (0 = registry defaults)");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
    ]
    (fun a -> bad ("unexpected argument " ^ a))
    usage;
  let specs =
    match List.assoc_opt !workload Cells.workloads with
    | Some s -> s
    | None -> bad (Printf.sprintf "unknown workload %S" !workload)
  in
  if !trace <> 0 && !trace <> 1 then bad "--trace takes 0 or 1";
  let ck = ref [] in
  (* the CRC table is built on first use; build it now so the first cell
     does not allocate it *)
  ignore (Softcache.Crc32.bytes (Bytes.make 1 '\000') : int);
  let seeded = Cells.of_seed !seed in
  (* set-up, several times; each must rebuild identical references *)
  let setups =
    let t0 = Spans.now_ns () in
    let rec repeat acc n =
      if n >= setups && secs (Spans.now_ns () - t0) >= setup_seconds then
        List.rev acc
      else begin
        Gc.full_major ();
        repeat (Cells.setup seeded specs :: acc) (n + 1)
      end
    in
    repeat [] 0
  in
  let fingerprint (s : Cells.setup) =
    Array.map (fun (c : Cells.cell) -> (c.reference, c.predicted_bytes)) s.cells
  in
  List.iter
    (fun s ->
      if fingerprint s <> fingerprint (List.hd setups) then
        problem ck "set-up is not reproducible")
    setups;
  let cells = (List.nth setups (List.length setups - 1)).Cells.cells in
  Array.iter
    (fun (c : Cells.cell) ->
      if not c.reference.halted then
        problem ck "%s: native reference run did not halt" c.spec.image)
    cells;
  let setup_s = median (List.map (fun (s : Cells.setup) -> s.setup_s) setups) in
  let t0 = Spans.now_ns () in
  let budget_left () = secs (Spans.now_ns () - t0) < !seconds in
  let passes, metrics =
    if !trace = 0 then begin
      let rec loop acc =
        let acc = run_pass ~metered:true cells :: acc in
        if List.length acc < 2 || budget_left () then loop acc else List.rev acc
      in
      let untraced = loop [] in
      let first = List.hd untraced in
      List.iter (lockstep ck ~what:"untraced pass" ~words:true first) untraced;
      print_cells first;
      (untraced, end_to_end ~setup_s ~untraced)
    end
    else begin
      let sp = Spans.create () in
      (* untraced and span-traced passes alternate, so both see the same
         machine conditions; the overhead is the ratio of their raw
         times *)
      let rec loop untraced traced =
        let untraced = run_pass cells :: untraced in
        let traced = run_pass ~spans:sp cells :: traced in
        if budget_left () then loop untraced traced
        else (List.rev untraced, List.rev traced)
      in
      let untraced, traced = loop [] [] in
      let ledger = run_pass ~ledger:true cells in
      let first = List.hd untraced in
      List.iter (lockstep ck ~what:"untraced pass" ~words:true first) untraced;
      List.iter (lockstep ck ~what:"traced pass" ~words:true first) traced;
      lockstep ck ~what:"ledger pass" ~words:false first ledger;
      (* self times partition cell wall time exactly *)
      let under_cells = Spans.[ Cell; Cc_trap; Netmodel; Crc32; Audit ] in
      if
        Spans.busy_ns sp Spans.Cell
        <> List.fold_left (fun acc l -> acc + Spans.self_ns sp l) 0 under_cells
      then problem ck "layer self times do not sum to cell wall time";
      print_cells (List.hd traced);
      let path =
        if Sys.file_exists "perfbench" then begin
          let dir = Filename.concat "perfbench" "out" in
          if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
          Some (Filename.concat dir (Printf.sprintf "spans-%s.jsonl" !workload))
        end
        else None
      in
      Option.iter
        (fun path ->
          Spans.write sp path;
          Printf.printf "spans: %d recorded, %d dropped -> %s\n"
            (Spans.recorded sp) (Spans.dropped sp) path)
        path;
      ( untraced @ traced @ [ ledger ],
        per_layer ~setups ~untraced ~traced ~ledger sp )
    end
  in
  failures ck passes;
  let attempted, failed = tally passes in
  List.iter (fun s -> Printf.printf "problem: %s\n" s) (List.rev !ck);
  emit ~correct:(!ck = []) ~attempted ~failed metrics
