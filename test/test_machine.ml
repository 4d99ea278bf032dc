(* Tests for the ERISC interpreter: memory, ALU semantics, control
   flow, faults, costs and hooks. *)

open Fixtures

(* Build and run a straight-line program; return the CPU. *)
let run_prog ?cost ?(fuel = 100_000) instrs =
  let b = Isa.Builder.create "t" in
  List.iter (Isa.Builder.ins b) instrs;
  let img = Isa.Builder.build b in
  let cpu = Machine.Cpu.of_image ?cost img in
  let outcome = Machine.Cpu.run ~fuel cpu in
  (cpu, outcome)

let check_out name expected instrs =
  let cpu, outcome = run_prog instrs in
  Alcotest.(check bool) (name ^ " halted") true (outcome = Machine.Cpu.Halted);
  Alcotest.(check (list int)) name expected (Machine.Cpu.outputs cpu)

(* ------------------------------------------------------------------ *)
(* Memory *)

let test_memory_rw () =
  let m = Machine.Memory.create 64 in
  Machine.Memory.write32 m 0 0x12345678;
  Alcotest.(check int) "read32" 0x12345678 (Machine.Memory.read32 m 0);
  Alcotest.(check int) "little-endian byte 0" 0x78 (Machine.Memory.read8 m 0);
  Alcotest.(check int) "little-endian byte 3" 0x12 (Machine.Memory.read8 m 3);
  Machine.Memory.write32 m 4 (-1);
  Alcotest.(check int) "negative roundtrip" (-1) (Machine.Memory.read32 m 4);
  Machine.Memory.write8 m 8 0x1FF;
  Alcotest.(check int) "write8 truncates" 0xFF (Machine.Memory.read8 m 8)

let test_memory_faults () =
  let m = Machine.Memory.create 64 in
  (match Machine.Memory.read32 m 62 with
  | exception Machine.Memory.Out_of_bounds _ -> ()
  | _ -> Alcotest.fail "read32 past end");
  (match Machine.Memory.read32 m 2 with
  | exception Machine.Memory.Unaligned _ -> ()
  | _ -> Alcotest.fail "unaligned read32");
  (match Machine.Memory.read8 m (-1) with
  | exception Machine.Memory.Out_of_bounds _ -> ()
  | _ -> Alcotest.fail "negative read8");
  match Machine.Memory.write32 m 64 0 with
  | exception Machine.Memory.Out_of_bounds _ -> ()
  | _ -> Alcotest.fail "write32 past end"

let test_memory_hash () =
  let m = Machine.Memory.create 64 in
  let h0 = Machine.Memory.hash m ~lo:0 ~hi:64 in
  Machine.Memory.write8 m 10 1;
  let h1 = Machine.Memory.hash m ~lo:0 ~hi:64 in
  Alcotest.(check bool) "hash changes" true (h0 <> h1);
  Alcotest.(check int) "hash outside range unchanged" h0
    (Machine.Memory.hash m ~lo:11 ~hi:64 * 0 + h0)

(* ------------------------------------------------------------------ *)
(* ALU semantics *)

let li rd v = Isa.Instr.Alui (Add, rd, Isa.Reg.zero, v)

let test_alu_wraparound () =
  check_out "add wraps to negative"
    [ -2147483648 ]
    [
      Isa.Instr.Lui (reg 1, 0x7FFF);
      Isa.Instr.Alui (Or, reg 1, reg 1, -1) (* 0x7FFFFFFF via zero-extended imm *);
      li (reg 2) 1;
      Isa.Instr.Alu (Add, reg 3, reg 1, reg 2);
      Isa.Instr.Out (reg 3);
      Isa.Instr.Halt;
    ]

let test_alu_bitwise_zero_extends () =
  check_out "ori zero-extends" [ 0xFFFF ]
    [
      li (reg 1) 0;
      Isa.Instr.Alui (Or, reg 1, reg 1, -1);
      Isa.Instr.Out (reg 1);
      Isa.Instr.Halt;
    ]

let test_alu_shifts () =
  check_out "shifts" [ 16; 0x3FFFFFFF; -1 ]
    [
      li (reg 1) 4;
      Isa.Instr.Alui (Sll, reg 2, reg 1, 2);
      Isa.Instr.Out (reg 2);
      li (reg 3) (-1);
      Isa.Instr.Alui (Srl, reg 4, reg 3, 2);
      Isa.Instr.Out (reg 4);
      Isa.Instr.Alui (Sra, reg 5, reg 3, 2);
      Isa.Instr.Out (reg 5);
      Isa.Instr.Halt;
    ]

let test_alu_compare () =
  check_out "slt vs sltu" [ 1; 0 ]
    [
      li (reg 1) (-1);
      li (reg 2) 1;
      Isa.Instr.Alu (Slt, reg 3, reg 1, reg 2);
      Isa.Instr.Out (reg 3);
      Isa.Instr.Alu (Sltu, reg 4, reg 1, reg 2) (* 0xFFFFFFFF < 1 unsigned? no *);
      Isa.Instr.Out (reg 4);
      Isa.Instr.Halt;
    ]

let test_alu_div () =
  check_out "signed division truncates" [ -2 ]
    [
      li (reg 1) (-7);
      li (reg 2) 3;
      Isa.Instr.Alu (Div, reg 3, reg 1, reg 2);
      Isa.Instr.Out (reg 3);
      Isa.Instr.Halt;
    ]

let test_div_by_zero () =
  let b = Isa.Builder.create "t" in
  Isa.Builder.ins b (li (reg 1) 1);
  Isa.Builder.ins b (Isa.Instr.Alu (Div, reg 2, reg 1, Isa.Reg.zero));
  Isa.Builder.ins b Isa.Instr.Halt;
  let cpu = Machine.Cpu.of_image (Isa.Builder.build b) in
  match Machine.Cpu.run cpu with
  | exception Machine.Cpu.Fault (Machine.Cpu.Division_by_zero, _) -> ()
  | _ -> Alcotest.fail "expected division fault"

let test_r0_hardwired () =
  check_out "writes to r0 ignored" [ 0 ]
    [
      li Isa.Reg.zero 42;
      Isa.Instr.Out Isa.Reg.zero;
      Isa.Instr.Halt;
    ]

let test_lui_ori_li () =
  check_out "32-bit constant assembly" [ 0x12345678 ]
    [
      Isa.Instr.Lui (reg 1, 0x1234);
      Isa.Instr.Alui (Or, reg 1, reg 1, 0x5678);
      Isa.Instr.Out (reg 1);
      Isa.Instr.Halt;
    ]

(* ------------------------------------------------------------------ *)
(* Loads / stores *)

let test_load_store () =
  let b = Isa.Builder.create "mem" in
  let addr = Isa.Builder.word b 11 in
  Isa.Builder.li b (reg 1) addr;
  Isa.Builder.ins b (Isa.Instr.Ld (reg 2, reg 1, 0));
  Isa.Builder.ins b (Isa.Instr.Alui (Add, reg 2, reg 2, 1));
  Isa.Builder.ins b (Isa.Instr.St (reg 2, reg 1, 0));
  Isa.Builder.ins b (Isa.Instr.Ld (reg 3, reg 1, 0));
  Isa.Builder.ins b (Isa.Instr.Out (reg 3));
  Isa.Builder.ins b (Isa.Instr.Stb (reg 3, reg 1, 5));
  Isa.Builder.ins b (Isa.Instr.Ldb (reg 4, reg 1, 5));
  Isa.Builder.ins b (Isa.Instr.Out (reg 4));
  Isa.Builder.ins b Isa.Instr.Halt;
  let img = Isa.Builder.build b in
  let cpu = Machine.Cpu.of_image img in
  let _ = Machine.Cpu.run cpu in
  Alcotest.(check (list int)) "load/store" [ 12; 12 ] (Machine.Cpu.outputs cpu)

(* ------------------------------------------------------------------ *)
(* Control flow *)

let test_branch_loop () =
  let b = Isa.Builder.create "loop" in
  Isa.Builder.li b (reg 1) 5;
  Isa.Builder.li b (reg 2) 0;
  let top = Isa.Builder.label b in
  Isa.Builder.ins b (Isa.Instr.Alu (Add, reg 2, reg 2, reg 1));
  Isa.Builder.ins b (Isa.Instr.Alui (Add, reg 1, reg 1, -1));
  Isa.Builder.br b Ne (reg 1) Isa.Reg.zero top;
  Isa.Builder.ins b (Isa.Instr.Out (reg 2));
  Isa.Builder.ins b Isa.Instr.Halt;
  let cpu = Machine.Cpu.of_image (Isa.Builder.build b) in
  let _ = Machine.Cpu.run cpu in
  Alcotest.(check (list int)) "sum 1..5" [ 15 ] (Machine.Cpu.outputs cpu)

let test_call_return () =
  let b = Isa.Builder.create "call" in
  let double = Isa.Builder.new_label b in
  let main = Isa.Builder.new_label b in
  Isa.Builder.entry b main;
  Isa.Builder.func b "double" double (fun () ->
      Isa.Builder.ins b (Isa.Instr.Alu (Add, reg 1, reg 1, reg 1));
      Isa.Builder.ins b (Isa.Instr.Jr Isa.Reg.ra));
  Isa.Builder.func b "main" main (fun () ->
      Isa.Builder.li b (reg 1) 21;
      Isa.Builder.jal b double;
      Isa.Builder.ins b (Isa.Instr.Out (reg 1));
      Isa.Builder.ins b Isa.Instr.Halt);
  let cpu = Machine.Cpu.of_image (Isa.Builder.build b) in
  let _ = Machine.Cpu.run cpu in
  Alcotest.(check (list int)) "call/return" [ 42 ] (Machine.Cpu.outputs cpu)

let test_jalr_indirect () =
  let b = Isa.Builder.create "jalr" in
  let f = Isa.Builder.new_label b in
  let main = Isa.Builder.new_label b in
  Isa.Builder.entry b main;
  Isa.Builder.func b "f" f (fun () ->
      Isa.Builder.ins b (Isa.Instr.Alui (Add, reg 1, reg 1, 100));
      Isa.Builder.ins b (Isa.Instr.Jr Isa.Reg.ra));
  Isa.Builder.func b "main" main (fun () ->
      Isa.Builder.li b (reg 1) 1;
      Isa.Builder.la b (reg 5) f;
      Isa.Builder.ins b (Isa.Instr.Jalr (Isa.Reg.ra, reg 5));
      Isa.Builder.ins b (Isa.Instr.Out (reg 1));
      Isa.Builder.ins b Isa.Instr.Halt);
  let cpu = Machine.Cpu.of_image (Isa.Builder.build b) in
  let _ = Machine.Cpu.run cpu in
  Alcotest.(check (list int)) "jalr" [ 101 ] (Machine.Cpu.outputs cpu)

let test_out_of_fuel () =
  let b = Isa.Builder.create "spin" in
  let top = Isa.Builder.label b in
  Isa.Builder.jmp b top;
  let cpu = Machine.Cpu.of_image (Isa.Builder.build b) in
  Alcotest.(check bool)
    "spins forever" true
    (Machine.Cpu.run ~fuel:1000 cpu = Machine.Cpu.Out_of_fuel);
  Alcotest.(check int) "retired exactly fuel" 1000 cpu.retired

let test_invalid_opcode_fault () =
  let mem = Machine.Memory.create 1024 in
  Machine.Memory.write32 mem 0 (63 lsl 26);
  let cpu = Machine.Cpu.create ~mem ~pc:0 () in
  match Machine.Cpu.run cpu with
  | exception Machine.Cpu.Fault (Machine.Cpu.Invalid_opcode _, 0) -> ()
  | _ -> Alcotest.fail "expected invalid opcode fault"

let test_unhandled_trap_fault () =
  let cpu, outcome =
    match run_prog [ Isa.Instr.Trap 3; Isa.Instr.Halt ] with
    | r -> r
    | exception Machine.Cpu.Fault (Machine.Cpu.Unhandled_trap 3, _) ->
      raise Exit
  in
  ignore cpu;
  ignore outcome;
  Alcotest.fail "expected unhandled trap fault"

let test_unhandled_trap_fault () =
  try test_unhandled_trap_fault () with Exit -> ()

let test_trap_handler () =
  let b = Isa.Builder.create "trap" in
  Isa.Builder.ins b (Isa.Instr.Trap 7);
  Isa.Builder.ins b Isa.Instr.Halt;
  let img = Isa.Builder.build b in
  let cpu = Machine.Cpu.of_image img in
  let seen = ref (-1) in
  cpu.trap_handler <-
    Some
      (fun c k ->
        seen := k;
        c.pc <- c.pc + 4);
  let _ = Machine.Cpu.run cpu in
  Alcotest.(check int) "handler saw index" 7 !seen;
  Alcotest.(check bool) "halted after handler" true cpu.halted

let test_unaligned_jump_fault () =
  let b = Isa.Builder.create "uj" in
  Isa.Builder.li b (reg 1) 0x1002;
  Isa.Builder.ins b (Isa.Instr.Jr (reg 1));
  let cpu = Machine.Cpu.of_image (Isa.Builder.build b) in
  match Machine.Cpu.run cpu with
  | exception Machine.Cpu.Fault (Machine.Cpu.Unaligned_fetch _, _) -> ()
  | _ -> Alcotest.fail "expected unaligned fetch fault"

(* ------------------------------------------------------------------ *)
(* Cost accounting and hooks *)

let test_cycle_accounting () =
  let cost = Machine.Cost.default in
  let cpu, _ =
    run_prog ~cost
      [
        li (reg 1) 3 (* alu *);
        Isa.Instr.St (reg 1, Isa.Reg.sp, -4) (* store *);
        Isa.Instr.Ld (reg 2, Isa.Reg.sp, -4) (* load *);
        Isa.Instr.Br (Eq, reg 1, reg 2, 2) (* taken *);
        Isa.Instr.Nop (* skipped *);
        Isa.Instr.Br (Ne, reg 1, reg 2, -1) (* not taken *);
        Isa.Instr.Halt (* jump class *);
      ]
  in
  let expected =
    cost.alu + cost.store + cost.load + cost.branch_taken
    + cost.branch_not_taken + cost.jump
  in
  Alcotest.(check int) "cycles" expected cpu.cycles;
  Alcotest.(check int) "retired" 6 cpu.retired

let test_uniform_cost () =
  let cpu, _ = run_prog ~cost:(Machine.Cost.uniform 3) [ li (reg 1) 1; Isa.Instr.Halt ] in
  Alcotest.(check int) "uniform" 6 cpu.cycles

let test_fetch_hook () =
  let fetches = ref [] in
  let b = Isa.Builder.create "hook" in
  Isa.Builder.ins b Isa.Instr.Nop;
  Isa.Builder.ins b Isa.Instr.Nop;
  Isa.Builder.ins b Isa.Instr.Halt;
  let img = Isa.Builder.build b in
  let cpu = Machine.Cpu.of_image img in
  cpu.on_fetch <- Some (fun a -> fetches := a :: !fetches);
  let _ = Machine.Cpu.run cpu in
  Alcotest.(check (list int))
    "fetch trace"
    [ img.code_base; img.code_base + 4; img.code_base + 8 ]
    (List.rev !fetches)

let test_load_store_hooks () =
  let loads = ref 0 and stores = ref 0 in
  let b = Isa.Builder.create "hook2" in
  let a = Isa.Builder.word b 5 in
  Isa.Builder.li b (reg 1) a;
  Isa.Builder.ins b (Isa.Instr.Ld (reg 2, reg 1, 0));
  Isa.Builder.ins b (Isa.Instr.St (reg 2, reg 1, 0));
  Isa.Builder.ins b Isa.Instr.Halt;
  let cpu = Machine.Cpu.of_image (Isa.Builder.build b) in
  cpu.on_load <- Some (fun _ -> incr loads);
  cpu.on_store <- Some (fun _ -> incr stores);
  let _ = Machine.Cpu.run cpu in
  Alcotest.(check int) "loads" 1 !loads;
  Alcotest.(check int) "stores" 1 !stores

(* ------------------------------------------------------------------ *)
(* Decode cache: predecoded fetch, kept coherent by the writes
   themselves — no caller-side invalidation anywhere in these tests *)

let enc = Isa.Encode.encode

let test_decode_hit_miss_stats () =
  let m = Machine.Memory.create 64 in
  Machine.Memory.write32 m 0 (enc (li (reg 1) 5));
  Alcotest.(check bool)
    "miss fill" true
    (Machine.Memory.fetch_decoded m 0 = li (reg 1) 5);
  Alcotest.(check bool)
    "hit" true
    (Machine.Memory.fetch_decoded m 0 = li (reg 1) 5);
  let s = Machine.Memory.decode_stats m in
  Alcotest.(check int) "hits" 1 s.Machine.Memory.hits;
  Alcotest.(check int) "misses" 1 s.Machine.Memory.misses;
  Alcotest.(check int) "invalidations" 0 s.Machine.Memory.invalidations;
  Alcotest.(check bool)
    "peek sees the line" true
    (Machine.Memory.decode_peek m 0 = Some (li (reg 1) 5))

let test_decode_write32_invalidates () =
  let m = Machine.Memory.create 64 in
  Machine.Memory.write32 m 0 (enc (li (reg 1) 5));
  ignore (Machine.Memory.fetch_decoded m 0);
  Machine.Memory.write32 m 0 (enc (li (reg 2) 9));
  Alcotest.(check bool)
    "refetch sees the new word" true
    (Machine.Memory.fetch_decoded m 0 = li (reg 2) 9);
  Alcotest.(check int)
    "invalidation counted" 1
    (Machine.Memory.decode_stats m).Machine.Memory.invalidations

let test_decode_write8_invalidates () =
  let m = Machine.Memory.create 64 in
  let w_new = enc (Isa.Instr.Out (reg 1)) in
  Machine.Memory.write32 m 4 (enc (li (reg 1) 5));
  ignore (Machine.Memory.fetch_decoded m 4);
  for i = 0 to 3 do
    Machine.Memory.write8 m (4 + i) ((w_new lsr (8 * i)) land 0xFF)
  done;
  Alcotest.(check bool)
    "byte writes invalidate the covering line" true
    (Machine.Memory.fetch_decoded m 4 = Isa.Instr.Out (reg 1))

let test_decode_undecodable () =
  let m = Machine.Memory.create 64 in
  Machine.Memory.write32 m 0 (63 lsl 26);
  (match Machine.Memory.fetch_decoded m 0 with
  | exception Machine.Memory.Undecodable w ->
    Alcotest.(check int) "word reported" (63 lsl 26) w
  | _ -> Alcotest.fail "expected Undecodable");
  Alcotest.(check bool)
    "no line installed for an undecodable word" true
    (Machine.Memory.decode_peek m 0 = None)

let test_decode_load_data_flushes () =
  (* load_data blits bytes in bulk, bypassing write32/write8 — the
     decode cache must be flushed wholesale *)
  let b = Isa.Builder.create "flush" in
  let _ = Isa.Builder.word b 0xDEAD in
  Isa.Builder.ins b Isa.Instr.Halt;
  let img = Isa.Builder.build b in
  let m = Machine.Memory.create (2 * 1024 * 1024) in
  Machine.Memory.write32 m img.data_base (enc (li (reg 1) 5));
  ignore (Machine.Memory.fetch_decoded m img.data_base);
  Machine.Memory.load_data m img;
  Alcotest.(check bool)
    "stale line gone after bulk load" true
    (Machine.Memory.decode_peek m img.data_base = None)

let test_decode_aliasing () =
  (* more words than decode lines: addresses one line-array apart map
     to the same line and take turns missing, always correctly *)
  let m = Machine.Memory.create (256 * 1024) in
  let a = 0 and b = 128 * 1024 in
  Machine.Memory.write32 m a (enc (li (reg 1) 1));
  Machine.Memory.write32 m b (enc (li (reg 2) 2));
  for _ = 1 to 3 do
    Alcotest.(check bool)
      "alias a" true
      (Machine.Memory.fetch_decoded m a = li (reg 1) 1);
    Alcotest.(check bool)
      "alias b" true
      (Machine.Memory.fetch_decoded m b = li (reg 2) 2)
  done;
  Alcotest.(check (list int)) "audit clean" [] (Machine.Memory.decode_audit m)

(* A program that rewrites its own code and re-executes the patched
   word: the decoded engine must pick the store up on the next fetch. *)
let selfmod_image () =
  let b = Isa.Builder.create "selfmod" in
  let patch = Isa.Builder.new_label b in
  Isa.Builder.la b (reg 1) patch;
  Isa.Builder.li b (reg 2) (enc (Isa.Instr.Out (reg 9)));
  Isa.Builder.li b (reg 9) 42;
  Isa.Builder.li b (reg 3) 2;
  let top = Isa.Builder.label b in
  Isa.Builder.here b patch;
  Isa.Builder.ins b Isa.Instr.Nop (* becomes [out r9] mid-run *);
  Isa.Builder.ins b (Isa.Instr.St (reg 2, reg 1, 0));
  Isa.Builder.ins b (Isa.Instr.Alui (Add, reg 3, reg 3, -1));
  Isa.Builder.br b Ne (reg 3) Isa.Reg.zero top;
  Isa.Builder.ins b Isa.Instr.Halt;
  ignore top;
  Isa.Builder.build b

let test_selfmod_both_engines () =
  let img = selfmod_image () in
  let run engine =
    let cpu = Machine.Cpu.of_image ~engine img in
    let outcome = Machine.Cpu.run ~fuel:1000 cpu in
    Alcotest.(check bool) "halted" true (outcome = Machine.Cpu.Halted);
    Machine.Cpu.outputs cpu
  in
  Alcotest.(check (list int))
    "decoded engine sees its own store" [ 42 ]
    (run Machine.Cpu.Decoded);
  Alcotest.(check (list int))
    "interpretive engine agrees" [ 42 ]
    (run Machine.Cpu.Interpretive)

(* Deterministic execution: same program, same result, twice. *)
let test_determinism =
  QCheck.Test.make ~count:50 ~name:"execution is deterministic"
    QCheck.(make Gen.(int_range 1 300))
    (fun n ->
      let build () =
        let b = Isa.Builder.create "det" in
        Isa.Builder.li b (reg 1) n;
        Isa.Builder.li b (reg 2) 1;
        let top = Isa.Builder.label b in
        Isa.Builder.ins b (Isa.Instr.Alu (Mul, reg 2, reg 2, reg 1));
        Isa.Builder.ins b (Isa.Instr.Alui (Add, reg 1, reg 1, -1));
        Isa.Builder.br b Ne (reg 1) Isa.Reg.zero top;
        Isa.Builder.ins b (Isa.Instr.Out (reg 2));
        Isa.Builder.ins b Isa.Instr.Halt;
        Isa.Builder.build b
      in
      let r1 = Machine.Cpu.of_image (build ()) in
      let r2 = Machine.Cpu.of_image (build ()) in
      let _ = Machine.Cpu.run r1 and _ = Machine.Cpu.run r2 in
      Machine.Cpu.outputs r1 = Machine.Cpu.outputs r2
      && r1.cycles = r2.cycles && r1.retired = r2.retired)

(* ------------------------------------------------------------------ *)
(* Dispatch paths: [run] takes the decoded loop on a CPU without a
   fetch hook and steps otherwise, so a decoded run with no hook, a
   decoded run with a no-op hook and an interpretive run must be one
   machine. Programs sit at [code_base] above a data window at 0; past
   them lie zero words ([add zero, zero, zero]) up to the end of
   memory. Branches and jumps only go forward (r7, the only jump
   register, is never written), so even a loop that ignored its fuel
   would end, at the latest by fetching past the end of memory, unless
   a store rewrote code behind it. *)

let code_base = 0x100
let mem_bytes = 0x800

let gen_reg_in regs = QCheck.Gen.(map Isa.Reg.r (oneofl regs))

(* destinations: r0 often, never r7 *)
let gen_rd = gen_reg_in [ 0; 0; 1; 2; 3; 4; 5; 6; 31 ]
let gen_rs = gen_reg_in [ 0; 1; 2; 3; 4; 5; 6; 7; 31 ]

let gen_aluop =
  QCheck.Gen.oneofl
    Isa.Instr.[ Add; Sub; Mul; Div; And; Or; Xor; Sll; Srl; Sra; Slt; Sltu ]

(* the encoded word at instruction index [i] *)
let gen_word i =
  let open QCheck.Gen in
  let open Isa.Instr in
  let ins g = map Isa.Encode.encode g in
  let small = int_range (-8) 0x40 in
  let ahead = map (fun k -> code_base + (4 * (i + k))) (int_range 1 4) in
  frequency
    [
      ( 4,
        ins
          (map4 (fun o d a b -> Alu (o, d, a, b)) gen_aluop gen_rd gen_rs gen_rs)
      );
      ( 4,
        ins
          (map4 (fun o d a v -> Alui (o, d, a, v)) gen_aluop gen_rd gen_rs small)
      );
      (1, ins (map2 (fun d v -> Lui (d, v)) gen_rd (int_bound 0xFFFF)));
      (2, ins (map3 (fun d a v -> Ld (d, a, v)) gen_rd gen_rs small));
      (1, ins (map3 (fun d a v -> Ldb (d, a, v)) gen_rd gen_rs small));
      (2, ins (map3 (fun s a v -> St (s, a, v)) gen_rs gen_rs small));
      (1, ins (map3 (fun s a v -> Stb (s, a, v)) gen_rs gen_rs small));
      ( 2,
        ins
          (map4
             (fun c a b o -> Br (c, a, b, o))
             (oneofl [ Eq; Ne; Lt; Ge; Ltu; Geu ])
             gen_rs gen_rs (int_range 1 4)) );
      (1, ins (map (fun a -> Jmp a) ahead));
      (1, ins (map (fun a -> Jal a) ahead));
      (1, ins (return (Jr (Isa.Reg.r 7))));
      (1, ins (map (fun d -> Jalr (d, Isa.Reg.r 7)) gen_rd));
      (1, ins (map (fun r -> Out r) gen_rs));
      (1, ins (oneofl [ Nop; Halt; Trap 3 ]));
      (* undecodable: an unused opcode, or a stray bit in a [Nop] *)
      ( 1,
        map2
          (fun op low -> (op lsl 26) lor low)
          (int_range 32 63) (int_bound 0x3FFFFFF) );
      (1, return ((30 lsl 26) lor 1));
    ]

type case = { words : int list; init : int list; jump : int; fuel : int }

let gen_case =
  let open QCheck.Gen in
  let* n = int_range 1 24 in
  let* words = flatten_l (List.init n gen_word) in
  (* r1..r6: data-window, code, unaligned and out-of-range addresses,
     zeros for [Div] *)
  let* init =
    list_repeat 6
      (oneofl
         [ 0; 1; -1; 7; 0x42; 0x80; 0xFC; code_base; 0x7FC; mem_bytes; -4;
           0x7FFFFFFF ])
  in
  (* r7: unaligned, out of range, negative, or forward into the zeros *)
  let* jump = oneofl [ 0x102; 0x802; 0x1000; -8; 0x7F0 ] in
  let+ fuel = int_bound 600 in
  { words; init; jump; fuel }

let print_case c =
  let word w =
    match Isa.Encode.decode w with
    | Some i -> Isa.Instr.to_string i
    | None -> Printf.sprintf ".word 0x%08x" w
  in
  Printf.sprintf "fuel %d, r1-r6 = [%s], r7 = %d\n%s" c.fuel
    (String.concat "; " (List.map string_of_int c.init))
    c.jump
    (String.concat "\n" (List.map word c.words))

let run_case ?on_fetch engine c =
  let mem = Machine.Memory.create mem_bytes in
  for i = 0 to (code_base / 4) - 1 do
    Machine.Memory.write32 mem (4 * i) ((i * 0x9E3779B1) land 0xFFFFFFFF)
  done;
  List.iteri
    (fun i w -> Machine.Memory.write32 mem (code_base + (4 * i)) w)
    c.words;
  let cpu = Machine.Cpu.create ~engine ~mem ~pc:code_base () in
  List.iteri (fun i v -> Machine.Cpu.set_reg cpu (reg (i + 1)) v) c.init;
  Machine.Cpu.set_reg cpu (reg 7) c.jump;
  cpu.on_fetch <- on_fetch;
  let outcome =
    match Machine.Cpu.run ~fuel:c.fuel cpu with
    | o -> Ok o
    | exception Machine.Cpu.Fault (f, pc) -> Error (f, pc)
  in
  ( outcome,
    Array.copy cpu.regs,
    (cpu.pc, cpu.cycles, cpu.retired),
    Machine.Cpu.outputs cpu,
    Machine.Memory.hash mem ~lo:0 ~hi:mem_bytes )

let test_dispatch_paths_agree =
  QCheck.Test.make ~count:1000
    ~name:"decoded loop = stepped decoded = interpretive"
    (QCheck.make ~print:print_case gen_case)
    (fun c ->
      let ((_, regs, _, _, _) as loop) = run_case Machine.Cpu.Decoded c in
      let hooked = run_case ~on_fetch:ignore Machine.Cpu.Decoded c in
      let interp = run_case Machine.Cpu.Interpretive c in
      regs.(0) = 0 && loop = hooked && loop = interp)

(* ------------------------------------------------------------------ *)
(* Decode-cache audit: it walks the lines filled since the last flush,
   costs no allocation on a coherent cache, and never reports a line
   that the write-driven invalidation keeps coherent. *)

(* [decode_audit] runs after every controller event of an audited run:
   on a coherent cache it must allocate nothing, however many lines are
   filled. *)
let test_decode_audit_allocates_nothing () =
  let m = Machine.Memory.create (64 * 1024) in
  let lines = 4096 in
  for i = 0 to lines - 1 do
    Machine.Memory.write32 m (4 * i)
      (enc (Isa.Instr.Alui (Add, reg (1 + (i mod 30)), reg 2, i - 2048)))
  done;
  for i = 0 to lines - 1 do
    ignore (Machine.Memory.fetch_decoded m (4 * i))
  done;
  Alcotest.(check int) "every line filled" lines
    (Machine.Memory.decode_stats m).Machine.Memory.misses;
  Alcotest.(check (list int)) "coherent" [] (Machine.Memory.decode_audit m);
  let calls = 100 in
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    match Machine.Memory.decode_audit m with
    | [] -> ()
    | _ :: _ -> Alcotest.fail "stale line on a coherent cache"
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "minor words per audit" 0
    (Float.to_int (Float.round (words /. float_of_int calls)))

(* Random fetch / write32 / write8 / flush / bulk-load sequences on a
   memory with twice as many words as decode lines, over addresses that
   alias pairwise and sit at both ends of the line array. A flush
   clears only the filled range, so "every fetched line is gone after a
   flush" is also the check that the range covers every valid line. *)
type mop =
  | Fetch of int
  | Write32 of int * int
  | Write8 of int * int
  | Flush
  | Load of int * int list

let alias_mem_bytes = 256 * 1024 (* 64 K words over 32 K lines *)

let gen_alias_addr =
  let open QCheck.Gen in
  let* line =
    oneof [ int_range 0 7; int_range 16_380 16_390; int_range 32_760 32_767 ]
  in
  let* alias = int_bound 1 in
  return ((4 * line) + (alias * (alias_mem_bytes / 2)))

let gen_mop =
  let open QCheck.Gen in
  frequency
    [
      (6, map (fun a -> Fetch a) gen_alias_addr);
      (3, map2 (fun a w -> Write32 (a, w)) gen_alias_addr (gen_word 0));
      ( 1,
        map3
          (fun a k v -> Write8 (a + k, v))
          gen_alias_addr (int_bound 3) (int_bound 0xFF) );
      (1, return Flush);
      ( 1,
        map2
          (fun a ws -> Load (min a (alias_mem_bytes - (4 * List.length ws)), ws))
          gen_alias_addr
          (list_size (int_range 1 4) (gen_word 0)) );
    ]

let print_mop = function
  | Fetch a -> Printf.sprintf "fetch 0x%x" a
  | Write32 (a, w) -> Printf.sprintf "write32 0x%x 0x%x" a w
  | Write8 (a, v) -> Printf.sprintf "write8 0x%x 0x%x" a v
  | Flush -> "flush"
  | Load (a, ws) -> Printf.sprintf "load 0x%x (%d words)" a (List.length ws)

let data_image base words =
  let data = Bytes.create (4 * List.length words) in
  List.iteri (fun i w -> Bytes.set_int32_le data (4 * i) (Int32.of_int w)) words;
  Isa.Image.make ~name:"data" ~code_base:0 ~code:[| enc Isa.Instr.Halt |]
    ~data_base:base ~data ~entry:0 ~symbols:[]

let test_decode_audit_random_ops =
  QCheck.Test.make ~count:500
    ~name:"random ops on an aliasing memory: audit [], peeks coherent"
    QCheck.(
      make
        ~print:(fun ops -> String.concat "; " (List.map print_mop ops))
        Gen.(list_size (int_range 1 60) gen_mop))
    (fun ops ->
      let m = Machine.Memory.create alias_mem_bytes in
      let fetched = ref [] in
      let word a = Machine.Memory.read32 m a land 0xFFFFFFFF in
      let peek_ok a =
        match Machine.Memory.decode_peek m a with
        | None -> true
        | Some i -> Isa.Encode.decode (word a) = Some i
      in
      List.for_all
        (fun op ->
          (match op with
          | Fetch a -> (
            fetched := a :: !fetched;
            match Machine.Memory.fetch_decoded m a with
            | i ->
              if Isa.Encode.decode (word a) <> Some i then
                QCheck.Test.fail_reportf "fetch 0x%x served a stale line" a
            | exception Machine.Memory.Undecodable _ -> ())
          | Write32 (a, w) -> Machine.Memory.write32 m a w
          | Write8 (a, v) -> Machine.Memory.write8 m a v
          | Flush -> Machine.Memory.decode_flush m
          | Load (a, ws) -> Machine.Memory.load_data m (data_image a ws));
          let emptied () =
            List.for_all (fun a -> Machine.Memory.decode_peek m a = None) !fetched
          in
          Machine.Memory.decode_audit m = []
          && List.for_all peek_ok !fetched
          && match op with Flush | Load _ -> emptied () | _ -> true)
        ops)

(* [run] allocates nothing of its own per call: a multi-hart run calls
   it once per 64-instruction quantum. *)
let test_run_allocates_nothing () =
  let b = Isa.Builder.create "spin" in
  let top = Isa.Builder.label b in
  Isa.Builder.ins b (Isa.Instr.Alui (Add, reg 1, reg 1, 1));
  Isa.Builder.jmp b top;
  let cpu = Machine.Cpu.of_image ~mem_bytes:(64 * 1024) (Isa.Builder.build b) in
  ignore (Machine.Cpu.run ~fuel:64 cpu);
  let calls = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    ignore (Machine.Cpu.run ~fuel:64 cpu)
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "minor words per run call" 0
    (Float.to_int (Float.round (words /. float_of_int calls)));
  Alcotest.(check int) "every call ran its fuel" ((calls + 1) * 64) cpu.retired

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "machine"
    [
      ( "memory",
        [
          Alcotest.test_case "read/write" `Quick test_memory_rw;
          Alcotest.test_case "faults" `Quick test_memory_faults;
          Alcotest.test_case "hash" `Quick test_memory_hash;
        ] );
      ( "alu",
        [
          Alcotest.test_case "wraparound" `Quick test_alu_wraparound;
          Alcotest.test_case "bitwise imm zero-extends" `Quick
            test_alu_bitwise_zero_extends;
          Alcotest.test_case "shifts" `Quick test_alu_shifts;
          Alcotest.test_case "compare" `Quick test_alu_compare;
          Alcotest.test_case "division" `Quick test_alu_div;
          Alcotest.test_case "division by zero" `Quick test_div_by_zero;
          Alcotest.test_case "r0 hardwired" `Quick test_r0_hardwired;
          Alcotest.test_case "lui/ori" `Quick test_lui_ori_li;
        ] );
      ( "mem-ops",
        [ Alcotest.test_case "load/store" `Quick test_load_store ] );
      ( "decode-cache",
        [
          Alcotest.test_case "hit/miss/stats" `Quick test_decode_hit_miss_stats;
          Alcotest.test_case "write32 invalidates" `Quick
            test_decode_write32_invalidates;
          Alcotest.test_case "write8 invalidates" `Quick
            test_decode_write8_invalidates;
          Alcotest.test_case "undecodable" `Quick test_decode_undecodable;
          Alcotest.test_case "load_data flushes" `Quick
            test_decode_load_data_flushes;
          Alcotest.test_case "aliasing" `Quick test_decode_aliasing;
          Alcotest.test_case "self-modifying code, both engines" `Quick
            test_selfmod_both_engines;
          Alcotest.test_case "audit allocates nothing" `Quick
            test_decode_audit_allocates_nothing;
          qt test_decode_audit_random_ops;
        ] );
      ( "control",
        [
          Alcotest.test_case "branch loop" `Quick test_branch_loop;
          Alcotest.test_case "call/return" `Quick test_call_return;
          Alcotest.test_case "jalr" `Quick test_jalr_indirect;
          Alcotest.test_case "out of fuel" `Quick test_out_of_fuel;
          Alcotest.test_case "invalid opcode" `Quick test_invalid_opcode_fault;
          Alcotest.test_case "unhandled trap" `Quick test_unhandled_trap_fault;
          Alcotest.test_case "trap handler" `Quick test_trap_handler;
          Alcotest.test_case "unaligned jump" `Quick test_unaligned_jump_fault;
        ] );
      ( "cost",
        [
          Alcotest.test_case "accounting" `Quick test_cycle_accounting;
          Alcotest.test_case "uniform" `Quick test_uniform_cost;
          Alcotest.test_case "fetch hook" `Quick test_fetch_hook;
          Alcotest.test_case "load/store hooks" `Quick test_load_store_hooks;
          qt test_determinism;
        ] );
      ( "dispatch",
        [
          qt test_dispatch_paths_agree;
          Alcotest.test_case "run allocates nothing per call" `Quick
            test_run_allocates_nothing;
        ] );
    ]
