(* The benchmark's own tests: its cells at seed 0 reproduce the figures
   [softcache run] prints for the same flags, the seed semantics hold,
   and span tracing and calibration leave the simulation and its
   allocation untouched. *)

open Perfbench

(* (label, translations, printed slowdown, cycles or makespan), as
   [softcache run <image> --tcache <bytes> <flags>] reports them *)
let pins =
  [
    ("compress95@64K", 324, "1.111", 3708389);
    ("sensor_modes@64K", 22, "1.001", 2645071);
    ("compress95@4K", 170822, "4.067", 13574221);
    ("mpeg2enc@4K", 78175, "2.642", 7693337);
    ("hextobdd@4K", 559768, "4.945", 40572450);
    ("compress95@4K --superblock-threshold 32", 214280, "4.447", 14842263);
    ("compress95@4K --granularity function --chain", 21667, "2.177", 7267229);
    ("mpeg2enc@4K --chain --harts 4", 78175, "2.390", 6959351);
    ( "mpeg2enc@4K --eviction trrip --prefetch 2 --net ethernet",
      74643,
      "1579.489",
      4599264639 );
    ("cjpeg@2K --audit", 2799, "1.246", 1783788);
    ("adpcm_encode@1K --audit", 1978, "1.115", 4339360);
  ]

let cells_of workload =
  (Cells.setup (Cells.of_seed 0) (List.assoc workload Cells.workloads)).cells

let check_pins workload () =
  Array.iter
    (fun (c : Cells.cell) ->
      let label = Cells.label c.spec in
      match List.find_opt (fun (l, _, _, _) -> l = label) pins with
      | None -> ()
      | Some (_, translations, slowdown, cycles) -> (
        let r = Cells.run c in
        match r.sim with
        | None ->
          Alcotest.failf "%s failed: %s" label
            (Option.value r.failure ~default:"?")
        | Some s ->
          Alcotest.(check int) (label ^ " translations") translations
            s.translations;
          Alcotest.(check int) (label ^ " cycles") cycles s.cycles;
          Alcotest.(check string) (label ^ " slowdown") slowdown
            (Printf.sprintf "%.3f"
               (float_of_int s.cycles /. float_of_int s.native))))
    (cells_of workload)

let test_seeds () =
  let a = Cells.of_seed 7 and b = Cells.of_seed 7 in
  Alcotest.(check bool) "same seed, same draws" true
    (a.scale_permille = b.scale_permille
    && a.sched_seed = b.sched_seed
    && a.order_keys = b.order_keys);
  List.iter
    (fun (name, p) ->
      if p < 990 || p > 1010 then
        Alcotest.failf "%s scaled by %d permille" name p)
    a.scale_permille;
  let zero = Cells.of_seed 0 in
  Alcotest.(check int) "seed 0 keeps the default scheduler seed" 1
    zero.sched_seed;
  let specs = List.assoc "fit" Cells.workloads in
  Alcotest.(check bool) "seed 0 keeps the listed order" true
    (Cells.order zero specs = specs);
  let img = Cells.build_image zero "compress95" in
  Alcotest.(check bool) "seed 0 builds the registry image" true
    (img = (Option.get (Workloads.Registry.find "compress95")).build ())

(* a traced or calibrated run must agree with a plain one on every
   simulated number and on the words the simulation allocates *)
let test_invisible () =
  let cells = cells_of "audited" in
  Array.iter
    (fun (c : Cells.cell) ->
      let plain = Cells.run c in
      let sp = Spans.create () in
      Spans.new_pass sp;
      Spans.enter sp Spans.Pass;
      let traced = Cells.run ~spans:sp c in
      Spans.leave sp;
      let label = Cells.label c.spec in
      Alcotest.(check bool) (label ^ " simulation unchanged") true
        (plain.sim <> None && plain.sim = traced.sim);
      Alcotest.(check (float 0.0)) (label ^ " allocation unchanged")
        plain.words traced.words;
      Alcotest.(check bool) (label ^ " audit spans recorded") true
        (Spans.calls sp Spans.Audit > 0);
      let meter = Calib.create () in
      let metered = Cells.run ~meter ~heap_from:0 c in
      Alcotest.(check bool) (label ^ " calibration leaves the simulation")
        true (plain.sim = metered.sim);
      Alcotest.(check (float 0.0)) (label ^ " calibration allocates nothing")
        plain.words metered.words;
      Alcotest.(check bool) (label ^ " calibrated in segments") true
        (meter.segments > 1 && metered.scaled_ns <> None))
    cells

let () =
  Alcotest.run "perfbench"
    [
      ( "pins",
        List.map
          (fun w -> Alcotest.test_case w `Slow (check_pins w))
          [ "fit"; "thrash"; "linked"; "audited" ] );
      ( "harness",
        [
          Alcotest.test_case "seed semantics" `Quick test_seeds;
          Alcotest.test_case "tracing and calibration are invisible" `Quick
            test_invisible;
        ] );
    ]
