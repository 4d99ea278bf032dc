type fault =
  | Invalid_opcode of int
  | Unaligned_fetch of int
  | Unaligned_access of int
  | Out_of_bounds of int
  | Division_by_zero
  | Unhandled_trap of int

exception Fault of fault * int

type outcome = Halted | Out_of_fuel

type engine = Decoded | Interpretive

type t = {
  mem : Memory.t;
  regs : int array;
  engine : engine;
  mutable pc : int;
  mutable cycles : int;
  mutable retired : int;
  cost : Cost.t;
  mutable halted : bool;
  mutable outputs_rev : int list;
  mutable trap_handler : (t -> int -> unit) option;
  mutable on_fetch : (int -> unit) option;
  mutable on_load : (int -> unit) option;
  mutable on_store : (int -> unit) option;
}

let create ?(cost = Cost.default) ?(engine = Decoded) ~mem ~pc () =
  let regs = Array.make Isa.Reg.count 0 in
  regs.(Isa.Reg.to_int Isa.Reg.sp) <- Memory.size mem - 16;
  {
    mem;
    regs;
    engine;
    pc;
    cycles = 0;
    retired = 0;
    cost;
    halted = false;
    outputs_rev = [];
    trap_handler = None;
    on_fetch = None;
    on_load = None;
    on_store = None;
  }

let of_image ?cost ?engine ?(mem_bytes = 8 * 1024 * 1024) img =
  let mem = Memory.create mem_bytes in
  Memory.load_image mem img;
  create ?cost ?engine ~mem ~pc:img.Isa.Image.entry ()

(* Reads need no r0 branch: every register write goes through
   [set_reg], which skips index 0, so [regs.(0)] stays 0. *)
let[@inline] reg t r = Array.unsafe_get t.regs (Isa.Reg.to_int r)

let[@inline] set_reg t r v =
  let i = Isa.Reg.to_int r in
  if i <> 0 then Array.unsafe_set t.regs i v

(* Normalise to signed 32-bit represented as an OCaml int. *)
let[@inline] norm v =
  let v = v land 0xFFFFFFFF in
  if v land 0x80000000 <> 0 then v - 0x100000000 else v

let u32 v = v land 0xFFFFFFFF

let fault t f = raise (Fault (f, t.pc))

let alu_op t (op : Isa.Instr.aluop) a b =
  match op with
  | Add -> norm (a + b)
  | Sub -> norm (a - b)
  | Mul -> norm (a * b)
  | Div -> if b = 0 then fault t Division_by_zero else norm (a / b)
  | And -> norm (a land b)
  | Or -> norm (a lor b)
  | Xor -> norm (a lxor b)
  | Sll -> norm (a lsl (b land 31))
  | Srl -> norm (u32 a lsr (b land 31))
  | Sra -> norm (a asr (b land 31))
  | Slt -> if a < b then 1 else 0
  | Sltu -> if u32 a < u32 b then 1 else 0

(* Bitwise immediates are zero-extended (MIPS andi/ori/xori); arithmetic
   and comparison immediates are sign-extended. *)
let imm_for (op : Isa.Instr.aluop) imm =
  match op with And | Or | Xor -> imm land 0xFFFF | _ -> imm

let[@inline] cond_holds (c : Isa.Instr.cond) a b =
  match c with
  | Eq -> a = b
  | Ne -> a <> b
  | Lt -> a < b
  | Ge -> a >= b
  | Ltu -> u32 a < u32 b
  | Geu -> u32 a >= u32 b

(* Data-access helpers are top-level (not per-step closures): [exec] is
   the hottest path in every experiment, and allocating six closures
   per retired instruction was a measurable share of its cost. *)

let mem_load32 t a =
  (match t.on_load with Some f -> f a | None -> ());
  try Memory.read32 t.mem a with
  | Memory.Out_of_bounds a -> fault t (Out_of_bounds a)
  | Memory.Unaligned a -> fault t (Unaligned_access a)

let mem_load8 t a =
  (match t.on_load with Some f -> f a | None -> ());
  try Memory.read8 t.mem a
  with Memory.Out_of_bounds a -> fault t (Out_of_bounds a)

let mem_store32 t a v =
  (match t.on_store with Some f -> f a | None -> ());
  try Memory.write32 t.mem a v with
  | Memory.Out_of_bounds a -> fault t (Out_of_bounds a)
  | Memory.Unaligned a -> fault t (Unaligned_access a)

let mem_store8 t a v =
  (match t.on_store with Some f -> f a | None -> ());
  try Memory.write8 t.mem a v
  with Memory.Out_of_bounds a -> fault t (Out_of_bounds a)

(* Retire an instruction that writes [rd] and falls through. *)
let[@inline] write t pc rd v cycles =
  set_reg t rd v;
  t.cycles <- t.cycles + cycles;
  t.pc <- pc + 4

(* Execute one already-decoded instruction fetched from [pc]. Shared by
   both engines, so decoded dispatch differs from interpretive dispatch
   in nothing but how [instr] was obtained. The common [Add] and [Sub]
   skip [alu_op]'s dispatch. *)
let exec t pc (instr : Isa.Instr.t) =
  let cost = t.cost in
  (match instr with
  | Alu (Add, rd, rs1, rs2) ->
    write t pc rd (norm (reg t rs1 + reg t rs2)) cost.alu
  | Alu (Sub, rd, rs1, rs2) ->
    write t pc rd (norm (reg t rs1 - reg t rs2)) cost.alu
  | Alu (op, rd, rs1, rs2) ->
    write t pc rd (alu_op t op (reg t rs1) (reg t rs2)) cost.alu
  | Alui (Add, rd, rs1, imm) -> write t pc rd (norm (reg t rs1 + imm)) cost.alu
  | Alui (Sub, rd, rs1, imm) -> write t pc rd (norm (reg t rs1 - imm)) cost.alu
  | Alui (op, rd, rs1, imm) ->
    write t pc rd (alu_op t op (reg t rs1) (imm_for op imm)) cost.alu
  | Lui (rd, imm) -> write t pc rd (norm (imm lsl 16)) cost.alu
  | Ld (rd, rs, imm) -> write t pc rd (mem_load32 t (reg t rs + imm)) cost.load
  | Ldb (rd, rs, imm) -> write t pc rd (mem_load8 t (reg t rs + imm)) cost.load
  | St (rv, rs, imm) ->
    mem_store32 t (reg t rs + imm) (reg t rv);
    t.cycles <- t.cycles + cost.store;
    t.pc <- pc + 4
  | Stb (rv, rs, imm) ->
    mem_store8 t (reg t rs + imm) (reg t rv);
    t.cycles <- t.cycles + cost.store;
    t.pc <- pc + 4
  | Br (c, rs1, rs2, off) ->
    if cond_holds c (reg t rs1) (reg t rs2) then begin
      t.cycles <- t.cycles + cost.branch_taken;
      t.pc <- pc + (4 * off)
    end
    else begin
      t.cycles <- t.cycles + cost.branch_not_taken;
      t.pc <- pc + 4
    end
  | Jmp target ->
    t.cycles <- t.cycles + cost.jump;
    t.pc <- target
  | Jal target ->
    set_reg t Isa.Reg.ra (pc + 4);
    t.cycles <- t.cycles + cost.jump;
    t.pc <- target
  | Jr rs ->
    t.cycles <- t.cycles + cost.jump;
    t.pc <- reg t rs
  | Jalr (rd, rs) ->
    let target = reg t rs in
    set_reg t rd (pc + 4);
    t.cycles <- t.cycles + cost.jump;
    t.pc <- target
  | Trap k -> (
    t.cycles <- t.cycles + cost.trap_dispatch;
    match t.trap_handler with
    | Some h -> h t k
    | None -> fault t (Unhandled_trap k))
  | Out rs ->
    t.outputs_rev <- reg t rs :: t.outputs_rev;
    t.cycles <- t.cycles + cost.alu;
    t.pc <- pc + 4
  | Nop ->
    t.cycles <- t.cycles + cost.alu;
    t.pc <- pc + 4
  | Halt ->
    t.cycles <- t.cycles + cost.jump;
    t.halted <- true);
  t.retired <- t.retired + 1

(* The decoded engine's one fetch path. The handlers cover only the
   fetch: they name the fetching pc, and a [Memory] exception escaping
   [exec] (a trap handler's own) passes through untouched. *)
let[@inline] fetch_exec t pc =
  match Memory.fetch_decoded t.mem pc with
  | i -> exec t pc i
  | exception Memory.Undecodable w -> fault t (Invalid_opcode w)
  | exception Memory.Out_of_bounds a -> fault t (Out_of_bounds a)
  | exception Memory.Unaligned a -> fault t (Unaligned_fetch a)

let fetch_interpretive t pc =
  (* unsigned, as [Memory.Undecodable] reports it *)
  let word =
    try Memory.read32 t.mem pc land 0xFFFFFFFF with
    | Memory.Out_of_bounds a -> fault t (Out_of_bounds a)
    | Memory.Unaligned a -> fault t (Unaligned_fetch a)
  in
  match Isa.Encode.decode word with
  | Some i -> i
  | None -> fault t (Invalid_opcode word)

let step t =
  let pc = t.pc in
  (match t.on_fetch with Some f -> f pc | None -> ());
  match t.engine with
  | Decoded -> fetch_exec t pc
  | Interpretive -> exec t pc (fetch_interpretive t pc)

(* Both loops are top-level, so [run] allocates nothing per call. *)
let rec run_decoded t fuel =
  if t.halted then Halted
  else if fuel <= 0 then Out_of_fuel
  else begin
    fetch_exec t t.pc;
    run_decoded t (fuel - 1)
  end

let rec run_stepped t fuel =
  if t.halted then Halted
  else if fuel <= 0 then Out_of_fuel
  else begin
    step t;
    run_stepped t (fuel - 1)
  end

(* [engine] is immutable; [on_fetch] is read once per call. *)
let run ?(fuel = max_int) t =
  match (t.engine, t.on_fetch) with
  | Decoded, None -> run_decoded t fuel
  | _ -> run_stepped t fuel

let outputs t = List.rev t.outputs_rev

let pp_fault ppf = function
  | Invalid_opcode w -> Format.fprintf ppf "invalid opcode 0x%08x" w
  | Unaligned_fetch a -> Format.fprintf ppf "unaligned fetch 0x%x" a
  | Unaligned_access a -> Format.fprintf ppf "unaligned access 0x%x" a
  | Out_of_bounds a -> Format.fprintf ppf "out of bounds 0x%x" a
  | Division_by_zero -> Format.pp_print_string ppf "division by zero"
  | Unhandled_trap k -> Format.fprintf ppf "unhandled trap %d" k
