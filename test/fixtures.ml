(* Shared test fixtures: the register shorthand and the two small
   hand-built programs the controller suites run — a counted loop
   ([prog_sum n] prints n + ... + 1) and recursive Fibonacci
   ([prog_fib n] prints fib n through two calls per frame). *)

let reg = Isa.Reg.r

let prog_sum n =
  let b = Isa.Builder.create "sum" in
  Isa.Builder.li b (reg 1) n;
  Isa.Builder.li b (reg 2) 0;
  let top = Isa.Builder.label b in
  Isa.Builder.ins b (Isa.Instr.Alu (Add, reg 2, reg 2, reg 1));
  Isa.Builder.ins b (Isa.Instr.Alui (Add, reg 1, reg 1, -1));
  Isa.Builder.br b Ne (reg 1) Isa.Reg.zero top;
  Isa.Builder.ins b (Isa.Instr.Out (reg 2));
  Isa.Builder.ins b Isa.Instr.Halt;
  Isa.Builder.build b

let prog_fib n =
  let b = Isa.Builder.create "fib" in
  let fib = Isa.Builder.new_label b in
  let base = Isa.Builder.new_label b in
  let main = Isa.Builder.new_label b in
  Isa.Builder.entry b main;
  Isa.Builder.func b "fib" fib (fun () ->
      Isa.Builder.li b (reg 3) 2;
      Isa.Builder.br b Lt (reg 1) (reg 3) base;
      Isa.Builder.ins b (Isa.Instr.Alui (Add, Isa.Reg.sp, Isa.Reg.sp, -12));
      Isa.Builder.ins b (Isa.Instr.St (Isa.Reg.ra, Isa.Reg.sp, 0));
      Isa.Builder.ins b (Isa.Instr.St (reg 1, Isa.Reg.sp, 4));
      Isa.Builder.ins b (Isa.Instr.Alui (Add, reg 1, reg 1, -1));
      Isa.Builder.jal b fib;
      Isa.Builder.ins b (Isa.Instr.St (reg 2, Isa.Reg.sp, 8));
      Isa.Builder.ins b (Isa.Instr.Ld (reg 1, Isa.Reg.sp, 4));
      Isa.Builder.ins b (Isa.Instr.Alui (Add, reg 1, reg 1, -2));
      Isa.Builder.jal b fib;
      Isa.Builder.ins b (Isa.Instr.Ld (reg 3, Isa.Reg.sp, 8));
      Isa.Builder.ins b (Isa.Instr.Alu (Add, reg 2, reg 2, reg 3));
      Isa.Builder.ins b (Isa.Instr.Ld (Isa.Reg.ra, Isa.Reg.sp, 0));
      Isa.Builder.ins b (Isa.Instr.Alui (Add, Isa.Reg.sp, Isa.Reg.sp, 12));
      Isa.Builder.ins b (Isa.Instr.Jr Isa.Reg.ra);
      Isa.Builder.here b base;
      Isa.Builder.ins b (Isa.Instr.Alu (Add, reg 2, reg 1, Isa.Reg.zero));
      Isa.Builder.ins b (Isa.Instr.Jr Isa.Reg.ra));
  Isa.Builder.func b "main" main (fun () ->
      Isa.Builder.li b (reg 1) n;
      Isa.Builder.jal b fib;
      Isa.Builder.ins b (Isa.Instr.Out (reg 2));
      Isa.Builder.ins b Isa.Instr.Halt);
  Isa.Builder.build b
