(* The replacement-policy layer.

   Three proof obligations, in order of importance:
   - the refactor changed nothing: fifo and flush-all reproduce the
     pre-refactor controller cycle-for-cycle on golden workloads (the
     numbers below were captured from the monolithic controller before
     the policy extraction), and lru and trrip pick the victims their
     former table-and-clock bookkeeping picked;
   - the victim functions behave: victims are deterministic, pinned,
     leased and other-shard blocks are never selected, and a tcache
     full of pinned blocks fails cleanly instead of looping;
   - the miss path's re-allocation guard surfaces pathological
     persistent-stub growth as a diagnosable exception. *)

open Fixtures

(* ------------------------------------------------------------------ *)
(* Golden cycle-identity: fifo and flush-all, re-expressed as victim
   functions, must be byte-identical to the pre-refactor controller.
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
(* Victim functions on a synthetic tcache. A policy reads only the
   facts on each block and the tcache's observation clock, so these
   tests install and enter blocks the way the controller does: [seq]
   and [entered] are ticks of that clock. *)

module Tc = Softcache.Tcache

(* register a block as the controller installs one: one clock tick *)
let install ?(prior = 3) tc ~id ~vaddr ~paddr ~words =
  let b =
    {
      Tc.id;
      vaddr;
      paddr;
      words;
      orig_words = words;
      incoming = [];
      pads = [];
      resume = [||];
      stubs = [];
      installed_at = 0;
      seq = Tc.tick tc;
      entered = -1;
      prior;
    }
  in
  Tc.register tc b;
  b

(* an entry the controller observed: one clock tick *)
let enter tc (b : Tc.block) = b.entered <- Tc.tick tc

(* three resident blocks, installed in id order, none entered yet;
   [prior i] is block [i]'s trrip prior *)
let synthetic ?(prior = fun _ -> 3) () =
  let tc = Tc.create ~base:0x10000 ~bytes:4096 in
  let blocks =
    List.map
      (fun i ->
        install tc ~prior:(prior i) ~id:i ~vaddr:(i * 64)
          ~paddr:(0x10000 + (i * 64)) ~words:8)
      [ 0; 1; 2 ]
  in
  (tc, blocks)

let victim_id ev tc =
  Option.map (fun (b : Tc.block) -> b.id) (Softcache.Policy.victim ev tc)

let test_fifo_never_volunteers () =
  List.iter
    (fun ev ->
      let tc, blocks = synthetic () in
      Alcotest.(check (option int)) "no victim opinion" None (victim_id ev tc);
      List.iter (enter tc) blocks;
      Alcotest.(check (option int)) "still none after entries" None
        (victim_id ev tc))
    [ Softcache.Config.Fifo; Softcache.Config.Flush_all ]

let test_lru_defers_to_sweep_when_cold () =
  (* no observed entries anywhere: the sweep's candidate is as good as
     any, so the policy must not deviate *)
  let tc, blocks = synthetic () in
  Alcotest.(check (option int)) "cold cache: defer" None
    (victim_id Softcache.Config.Lru tc);
  (* entry on a non-candidate block changes nothing: the sweep's
     candidate (block 0, lowest placement) is still cold *)
  enter tc (List.nth blocks 2);
  Alcotest.(check (option int)) "sweep candidate cold: defer" None
    (victim_id Softcache.Config.Lru tc)

let test_lru_overrides_sweep_for_fresh_block () =
  let tc, blocks = synthetic () in
  (* the sweep would kill block 0, but it was just entered: the policy
     must offer the least-recently-used block instead *)
  enter tc (List.hd blocks);
  Alcotest.(check (option int)) "protects the entered block" (Some 1)
    (victim_id Softcache.Config.Lru tc);
  (* pinning the would-be victim redirects to the next-least-recent *)
  Tc.pin tc (List.nth blocks 1);
  Alcotest.(check (option int)) "never a pinned block" (Some 2)
    (victim_id Softcache.Config.Lru tc);
  (* victim is a pure query: asking repeatedly must not change it *)
  Alcotest.(check (option int)) "pure query" (Some 2)
    (victim_id Softcache.Config.Lru tc)

let test_rrip_promotes_on_entry () =
  (* trrip with every prior distant (no temperature oracle) is plain
     RRIP *)
  let tc, blocks = synthetic () in
  Alcotest.(check (option int)) "cold cache: defer" None
    (victim_id Softcache.Config.Trrip tc);
  enter tc (List.hd blocks);
  (* sweep candidate promoted to near-immediate re-reference; the
     victim is the most distant block, oldest insertion on ties *)
  Alcotest.(check (option int)) "evicts most distant, oldest first" (Some 1)
    (victim_id Softcache.Config.Trrip tc);
  Tc.pin tc (List.nth blocks 1);
  Alcotest.(check (option int)) "never a pinned block" (Some 2)
    (victim_id Softcache.Config.Trrip tc)

(* ------------------------------------------------------------------ *)
(* Tie-break determinism: equal keys must resolve on the smaller block
   id — never on the fold's visit order, which depends on the table's
   insertion history. Same residents, both insertion orders, same
   answer. *)

let test_pick_min_tie_breaks_on_id () =
  let pick ?(pinned = []) order =
    let tc = Tc.create ~base:0x10000 ~bytes:4096 in
    List.iter
      (fun id ->
        let b =
          install tc ~id ~vaddr:(id * 64) ~paddr:(0x10000 + (id * 64))
            ~words:8
        in
        if List.mem id pinned then Tc.pin tc b)
      order;
    (* every resident carries the same key *)
    Option.map
      (fun (b : Tc.block) -> b.id)
      (Softcache.Policy.pick_min ~key:(fun _ -> 42) tc)
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
  Alcotest.(check (option int)) "pinned winner skipped" (Some 4)
    (pick ~pinned:[ 3 ] ids)

let test_sweep_candidate_tie_breaks_on_id () =
  let pick order =
    let tc = Tc.create ~base:0x10000 ~bytes:4096 in
    List.iter
      (fun id ->
        (* all at the same placement: live blocks never overlap, but
           the selection must be syntactically deterministic anyway *)
        ignore (install tc ~id ~vaddr:(id * 64) ~paddr:0x10100 ~words:8))
      order;
    Option.map
      (fun (b : Tc.block) -> b.id)
      (Softcache.Policy.sweep_candidate tc)
  in
  Alcotest.(check (option int)) "forward insertion" (Some 2) (pick [ 2; 8; 5 ]);
  Alcotest.(check (option int)) "reverse insertion" (Some 2) (pick [ 5; 8; 2 ])

(* ------------------------------------------------------------------ *)
(* Equivalence: the victim functions decide exactly as lru and trrip
   did when each kept its own table of residents and its own clock.
   [Ref] replays that bookkeeping beside a tcache driven through random
   installs (placed by the FIFO or the seeded sweep, so the sweep
   pointer moves), observed entries, removals, pins and leases, over
   one or two shards. *)

module Ref = struct
  type meta = {
    b : Tc.block;
    seq : int;  (* install tick *)
    prior : int;
    mutable stamp : int;  (* last install-or-entry tick *)
    mutable entry : int option;  (* last entry tick *)
    mutable rrpv : int;  (* the prior until an entry, then 0 *)
  }

  type t = { tbl : (int, meta) Hashtbl.t; mutable clock : int }

  let create () = { tbl = Hashtbl.create 64; clock = 0 }

  let tick r =
    r.clock <- r.clock + 1;
    r.clock

  let install r (b : Tc.block) ~prior =
    let s = tick r in
    Hashtbl.replace r.tbl b.id
      { b; seq = s; prior; stamp = s; entry = None; rrpv = prior }

  let enter r id =
    match Hashtbl.find_opt r.tbl id with
    | Some m ->
      let s = tick r in
      m.stamp <- s;
      m.entry <- Some s;
      m.rrpv <- 0
    | None -> ()

  let evict r id = Hashtbl.remove r.tbl id
  let window r = 2 * (Hashtbl.length r.tbl + 2)

  let eligible ?shard tc m =
    (not (Tc.is_pinned tc m.b.id))
    && (not (Tc.is_leased tc m.b.id))
    &&
    match shard with
    | None -> true
    | Some s -> Tc.shard_of_paddr tc m.b.paddr = s

  let pick_min ?shard r tc ~key =
    Hashtbl.fold
      (fun id m best ->
        if not (eligible ?shard tc m) then best
        else
          let k = key m in
          match best with
          | Some (kb, bm)
            when compare kb k < 0 || (compare kb k = 0 && bm.b.id < id) ->
            best
          | _ -> Some (k, m))
      r.tbl None
    |> Option.map snd

  let sweep_candidate ?shard r tc =
    let ptr = Tc.alloc_ptr ?shard tc in
    let better best m =
      match best with
      | Some bm
        when bm.b.paddr < m.b.paddr
             || (bm.b.paddr = m.b.paddr && bm.b.id < m.b.id) ->
        best
      | _ -> Some m
    in
    let ahead, wrapped =
      Hashtbl.fold
        (fun _ m (ahead, wrapped) ->
          if not (eligible ?shard tc m) then (ahead, wrapped)
          else if m.b.paddr + (4 * m.b.words) > ptr then
            (better ahead m, wrapped)
          else (ahead, better wrapped m))
        r.tbl (None, None)
    in
    match ahead with Some _ -> ahead | None -> wrapped

  let fresh r m =
    match m.entry with Some e -> r.clock - e <= window r | None -> false

  let effective r m =
    match m.entry with
    | Some e when r.clock - e <= window r -> m.rrpv
    | Some _ | None -> m.prior

  let lru ?shard r tc =
    match sweep_candidate ?shard r tc with
    | Some sm when fresh r sm -> (
      match pick_min ?shard r tc ~key:(fun m -> m.stamp) with
      | Some m when m.b.id <> sm.b.id -> Some m.b.id
      | Some _ | None -> None)
    | Some _ | None -> None

  let trrip ?shard r tc =
    match sweep_candidate ?shard r tc with
    | Some sm when effective r sm < 3 -> (
      match
        pick_min ?shard r tc ~key:(fun m -> (-effective r m, m.seq))
      with
      | Some m when m.b.id <> sm.b.id && effective r m > effective r sm ->
        Some m.b.id
      | Some _ | None -> None)
    | Some _ | None -> None
end

(* ops: 0-3 install (3: seeded at a resident's placement), 4-5 observed
   entry, 6 remove, 7 pin/unpin, 8 lease, 9 release; the two numbers
   pick the shard, the resident, the size and the trrip prior *)
let victims_gen =
  QCheck.Gen.(
    pair (int_range 1 2)
      (list_size (int_range 1 150) (triple (int_range 0 9) nat nat)))

let victims_print =
  QCheck.Print.(pair int (list (triple int int int)))

(* steps at which lru / trrip offered a victim, over the whole run *)
let lru_offers = ref 0
let trrip_offers = ref 0

let victims_prop (shards, ops) =
  let tc = Tc.create_sharded ~shards ~base:0x10000 ~bytes:1024 in
  let r = Ref.create () in
  let next_id = ref 0 in
  let pick x =
    match List.sort (fun (a : Tc.block) b -> compare a.id b.id) (Tc.blocks tc)
    with
    | [] -> None
    | l -> Some (List.nth l (x mod List.length l))
  in
  let step (op, x, y) =
    match op with
    | 0 | 1 | 2 | 3 -> (
      let shard = x mod shards and words = 2 + (y mod 30) in
      let seed =
        Option.map (fun (s : Tc.block) -> s.paddr)
          (if op = 3 then pick y else None)
      in
      match Tc.alloc ~shard ?seed tc ~words with
      | Error _ -> ()
      | Ok (paddr, victims) ->
        List.iter (fun (v : Tc.block) -> Ref.evict r v.id) victims;
        let id = !next_id in
        incr next_id;
        let prior = List.nth [ 0; 2; 3 ] (x mod 3) in
        Ref.install r ~prior
          (install tc ~prior ~id ~vaddr:(id * 4096) ~paddr ~words))
    | 4 | 5 ->
      Option.iter
        (fun (b : Tc.block) ->
          enter tc b;
          Ref.enter r b.id)
        (pick x)
    | 6 ->
      Option.iter
        (fun (b : Tc.block) ->
          Tc.remove tc b;
          Ref.evict r b.id)
        (pick x)
    | 7 ->
      Option.iter
        (fun (b : Tc.block) ->
          if Tc.is_pinned tc b.id then Tc.unpin tc b else Tc.pin tc b)
        (pick x)
    | 8 -> Option.iter (Tc.lease tc) (pick x)
    | _ -> Option.iter (Tc.release tc) (pick x)
  in
  let legal shard = function
    | None -> true
    | Some id -> (
      (not (Tc.is_pinned tc id))
      && (not (Tc.is_leased tc id))
      &&
      match (Tc.find_by_id tc id, shard) with
      | None, _ -> false
      | Some _, None -> true
      | Some (b : Tc.block), Some s -> Tc.shard_of_paddr tc b.paddr = s)
  in
  let agrees i shard =
    let got ev =
      Option.map
        (fun (b : Tc.block) -> b.id)
        (Softcache.Policy.victim ev ?shard tc)
    in
    let lru = got Softcache.Config.Lru and trrip = got Softcache.Config.Trrip in
    if lru <> None then incr lru_offers;
    if trrip <> None then incr trrip_offers;
    let want_lru = Ref.lru ?shard r tc and want_trrip = Ref.trrip ?shard r tc in
    let show = function None -> "none" | Some id -> string_of_int id in
    if lru <> want_lru || trrip <> want_trrip then
      QCheck.Test.fail_reportf
        "step %d, shard %s: lru %s (reference %s), trrip %s (reference %s)" i
        (show shard) (show lru) (show want_lru) (show trrip) (show want_trrip)
    else if not (legal shard lru && legal shard trrip) then
      QCheck.Test.fail_reportf "step %d, shard %s: illegal victim" i
        (show shard)
    else true
  in
  let shard_args = None :: List.init shards Option.some in
  let rec run i = function
    | [] -> true
    | o :: rest ->
      step o;
      Tc.clock tc = r.clock
      && Tc.resident_blocks tc = Hashtbl.length r.tbl
      && List.for_all (agrees i) shard_args
      && run (i + 1) rest
  in
  run 0 ops

let test_victims_match_reference () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:300 ~name:"victim functions = reference"
       (QCheck.make ~print:victims_print victims_gen)
       victims_prop);
  (* deference is the common answer; the property must also have seen
     both policies override the sweep *)
  Alcotest.(check bool)
    (Printf.sprintf "lru offered %d victims, trrip %d (>= 1000 each)"
       !lru_offers !trrip_offers)
    true
    (!lru_offers >= 1000 && !trrip_offers >= 1000)

(* ------------------------------------------------------------------ *)
(* trrip: RRIP with a temperature prior *)

let test_trrip_hot_prior_protects_unentered () =
  (* block 0 carries a hot prior; no entries were ever observed.
     Unprimed, trrip is blind here and defers to the sweep, killing the
     hot block; the prior protects it and offers the oldest cold
     block. *)
  let hot = Softcache.Policy.rrpv_of_temperature Softcache.Policy.Hot in
  let tc, blocks = synthetic ~prior:(fun i -> if i = 0 then hot else 3) () in
  Alcotest.(check (option int)) "protects the hot block before any entry"
    (Some 1) (victim_id Softcache.Config.Trrip tc);
  Tc.pin tc (List.nth blocks 1);
  Alcotest.(check (option int)) "never a pinned block" (Some 2)
    (victim_id Softcache.Config.Trrip tc);
  Alcotest.(check (option int)) "pure query" (Some 2)
    (victim_id Softcache.Config.Trrip tc)

let test_trrip_constant_cold_oracle_is_rrip () =
  (* the classifier degrades flat profiles to constant Cold; the prior
     that oracle gives every block must leave trrip deciding exactly as
     it does unprimed (see test_rrip_promotes_on_entry) *)
  let cold = Softcache.Policy.rrpv_of_temperature Softcache.Policy.Cold in
  let tc, blocks = synthetic ~prior:(fun _ -> cold) () in
  Alcotest.(check (option int)) "cold cache: defer" None
    (victim_id Softcache.Config.Trrip tc);
  enter tc (List.hd blocks);
  Alcotest.(check (option int)) "same decision as unprimed" (Some 1)
    (victim_id Softcache.Config.Trrip tc)

(* End-to-end: without an oracle a full trrip run reproduces, cycle for
   cycle, the figures of the separate 2-bit RRIP policy that was folded
   into it (pinned below at a 2 KB tcache). The classifier degrades
   flat profiles to constant Cold, and under that oracle every prior
   reads distant, so trrip must decide exactly as it does unprimed. *)
let test_trrip_runner_identity () =
  let run ?prepare (wname, cycles, translations) =
    let img = (Option.get (Workloads.Registry.find wname)).build () in
    let native = Softcache.Runner.native img in
    let cfg =
      Softcache.Config.make ~tcache_bytes:2048
        ~eviction:Softcache.Config.Trrip ()
    in
    let cached, ctrl = Softcache.Runner.cached_robust ?prepare cfg img in
    Alcotest.(check int) (wname ^ " cycles") cycles cached.cycles;
    Alcotest.(check int) (wname ^ " translations") translations
      ctrl.stats.translations;
    Alcotest.(check (list int)) (wname ^ " outputs") native.outputs
      cached.outputs
  in
  List.iter run
    [
      ("compress95", 13582003, 170947);
      ("mpeg2enc", 7692069, 78185);
      ("sensor_modes", 2645071, 22);
    ];
  run ("compress95", 13582003, 170947) ~prepare:(fun ctrl ->
      Softcache.Controller.set_temperature_oracle ctrl
        (Some (fun ~lo:_ ~hi:_ -> Softcache.Policy.Cold)))

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
    (ctrl.stats.evicted_victim + ctrl.stats.evicted_collateral > 0);
  (* each resident carries the prior its source range classifies to *)
  List.iter
    (fun (b : Tc.block) ->
      Alcotest.(check int)
        (Printf.sprintf "prior of block %d" b.id)
        (Softcache.Policy.rrpv_of_temperature
           (policy_temp
              (classify ~lo:b.vaddr ~hi:(b.vaddr + (4 * b.orig_words)))))
        b.prior)
    (Tc.blocks ctrl.tc)

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
          Alcotest.test_case "victims = table-and-clock reference" `Quick
            test_victims_match_reference;
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
