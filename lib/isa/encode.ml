exception Encode_error of string

let err fmt = Format.kasprintf (fun s -> raise (Encode_error s)) fmt
let imm16_fits v = v >= -32768 && v <= 32767
let branch_offset_fits = imm16_fits
let jump_target_fits a = a >= 0 && a land 3 = 0 && a lsr 2 < 1 lsl 26

(* Opcode assignments. Opcodes 1..12 are the immediate forms of the
   twelve ALU operations, in [aluop_code] order. *)
let op_r_alu = 0
let op_alui_base = 1
let op_lui = 13
let op_ld = 14
let op_st = 15
let op_ldb = 16
let op_stb = 17
let op_br_base = 18 (* 18..23: Eq Ne Lt Ge Ltu Geu *)
let op_jmp = 24
let op_jal = 25
let op_jr = 26
let op_jalr = 27
let op_trap = 28
let op_halt = 29
let op_nop = 30
let op_out = 31

let aluop_code : Instr.aluop -> int = function
  | Add -> 0
  | Sub -> 1
  | Mul -> 2
  | Div -> 3
  | And -> 4
  | Or -> 5
  | Xor -> 6
  | Sll -> 7
  | Srl -> 8
  | Sra -> 9
  | Slt -> 10
  | Sltu -> 11

let aluop_of_code : int -> Instr.aluop option = function
  | 0 -> Some Add
  | 1 -> Some Sub
  | 2 -> Some Mul
  | 3 -> Some Div
  | 4 -> Some And
  | 5 -> Some Or
  | 6 -> Some Xor
  | 7 -> Some Sll
  | 8 -> Some Srl
  | 9 -> Some Sra
  | 10 -> Some Slt
  | 11 -> Some Sltu
  | _ -> None

let cond_code : Instr.cond -> int = function
  | Eq -> 0
  | Ne -> 1
  | Lt -> 2
  | Ge -> 3
  | Ltu -> 4
  | Geu -> 5

let cond_of_code : int -> Instr.cond option = function
  | 0 -> Some Eq
  | 1 -> Some Ne
  | 2 -> Some Lt
  | 3 -> Some Ge
  | 4 -> Some Ltu
  | 5 -> Some Geu
  | _ -> None

let reg r = Reg.to_int r

let imm16 what v =
  if imm16_fits v then v land 0xFFFF else err "%s immediate %d out of range" what v

let uimm16 what v =
  if v >= 0 && v <= 0xFFFF then v else err "%s immediate %d out of range" what v

let jtarget what a =
  if jump_target_fits a then a lsr 2
  else err "%s target 0x%x invalid (alignment or range)" what a

let mk op f25 f20 f15_0 = (op lsl 26) lor (f25 lsl 21) lor (f20 lsl 16) lor f15_0

(* Writers for the words the rewriter emits; [encode] goes through them
   too, so each field check is written once. *)
let jmp target = (op_jmp lsl 26) lor jtarget "jmp" target
let jal target = (op_jal lsl 26) lor jtarget "jal" target

let trap k =
  if k >= 0 && k < 1 lsl 26 then (op_trap lsl 26) lor k
  else err "trap index %d out of range" k

let encode : Instr.t -> int = function
  | Alu (op, rd, rs1, rs2) ->
    mk op_r_alu (reg rd) (reg rs1) ((reg rs2 lsl 11) lor aluop_code op)
  | Alui (op, rd, rs1, imm) ->
    mk (op_alui_base + aluop_code op) (reg rd) (reg rs1)
      (imm16 "alui" imm)
  | Lui (rd, imm) -> mk op_lui (reg rd) 0 (uimm16 "lui" imm)
  | Ld (rd, rs, imm) -> mk op_ld (reg rd) (reg rs) (imm16 "ld" imm)
  | St (rv, rs, imm) -> mk op_st (reg rv) (reg rs) (imm16 "st" imm)
  | Ldb (rd, rs, imm) -> mk op_ldb (reg rd) (reg rs) (imm16 "ldb" imm)
  | Stb (rv, rs, imm) -> mk op_stb (reg rv) (reg rs) (imm16 "stb" imm)
  | Br (c, rs1, rs2, off) ->
    mk (op_br_base + cond_code c) (reg rs1) (reg rs2) (imm16 "branch" off)
  | Jmp target -> jmp target
  | Jal target -> jal target
  | Jr rs -> mk op_jr (reg rs) 0 0
  | Jalr (rd, rs) -> mk op_jalr (reg rd) (reg rs) 0
  | Trap k -> trap k
  | Out rs -> mk op_out (reg rs) 0 0
  | Nop -> op_nop lsl 26
  | Halt -> op_halt lsl 26

let sext16 v = if v land 0x8000 <> 0 then v - 0x10000 else v

let decode (w : int) : Instr.t option =
  if w < 0 || w > 0xFFFFFFFF then None
  else
    let op = (w lsr 26) land 0x3F in
    let f25 = (w lsr 21) land 0x1F in
    let f20 = (w lsr 16) land 0x1F in
    let imm = w land 0xFFFF in
    let r25 = Reg.r f25 and r20 = Reg.r f20 in
    if op = op_r_alu then
      let rs2 = Reg.r ((w lsr 11) land 0x1F) in
      match aluop_of_code (w land 0x3F) with
      | Some a ->
        if w land 0x7C0 <> 0 then None else Some (Alu (a, r25, r20, rs2))
      | None -> None
    else if op >= op_alui_base && op < op_alui_base + 12 then
      match aluop_of_code (op - op_alui_base) with
      | Some a -> Some (Alui (a, r25, r20, sext16 imm))
      | None -> None
    else if op >= op_br_base && op < op_br_base + 6 then
      match cond_of_code (op - op_br_base) with
      | Some c -> Some (Br (c, r25, r20, sext16 imm))
      | None -> None
    else if op = op_lui then if f20 = 0 then Some (Lui (r25, imm)) else None
    else if op = op_ld then Some (Ld (r25, r20, sext16 imm))
    else if op = op_st then Some (St (r25, r20, sext16 imm))
    else if op = op_ldb then Some (Ldb (r25, r20, sext16 imm))
    else if op = op_stb then Some (Stb (r25, r20, sext16 imm))
    else if op = op_jmp then Some (Jmp ((w land 0x3FFFFFF) lsl 2))
    else if op = op_jal then Some (Jal ((w land 0x3FFFFFF) lsl 2))
    else if op = op_jr then
      if w land 0x1FFFFF = 0 then Some (Jr r25) else None
    else if op = op_jalr then
      if w land 0xFFFF = 0 then Some (Jalr (r25, r20)) else None
    else if op = op_trap then Some (Trap (w land 0x3FFFFFF))
    else if op = op_halt then if w land 0x3FFFFFF = 0 then Some Halt else None
    else if op = op_nop then if w land 0x3FFFFFF = 0 then Some Nop else None
    else if op = op_out then
      if w land 0x1FFFFF = 0 then Some (Out r25) else None
    else None

(* Readers for one question each about a word, agreeing with [decode]
   without building the instruction. *)

let none = min_int

type form = Invalid | Plain | Br | Jmp | Jal | Jr | Jalr | Trap | Halt

(* [decode]'s validity tests as two tables over the opcode: the form,
   and the bits that must be clear ([Jr], [Jalr], [Lui], [Out], [Nop],
   [Halt] and the R-type ALU form carry unused fields). R-type
   additionally needs a known function code. *)
let forms, must_be_clear =
  let forms = Array.make 64 Invalid and clear = Array.make 64 0 in
  for op = 0 to op_out do
    forms.(op) <- Plain
  done;
  clear.(op_r_alu) <- 0x7C0;
  clear.(op_lui) <- 0x1F0000;
  for op = op_br_base to op_br_base + 5 do
    forms.(op) <- Br
  done;
  forms.(op_jmp) <- Jmp;
  forms.(op_jal) <- Jal;
  forms.(op_jr) <- Jr;
  clear.(op_jr) <- 0x1FFFFF;
  forms.(op_jalr) <- Jalr;
  clear.(op_jalr) <- 0xFFFF;
  forms.(op_trap) <- Trap;
  forms.(op_halt) <- Halt;
  clear.(op_halt) <- 0x3FFFFFF;
  clear.(op_nop) <- 0x3FFFFFF;
  clear.(op_out) <- 0x1FFFFF;
  (forms, clear)

let form w =
  if w < 0 || w > 0xFFFFFFFF then Invalid
  else
    let op = w lsr 26 in
    if
      w land Array.unsafe_get must_be_clear op <> 0
      || (op = op_r_alu && w land 0x3F >= 12)
    then Invalid
    else Array.unsafe_get forms op

let is_br w =
  w >= 0 && w <= 0xFFFFFFFF && w lsr 26 >= op_br_base
  && w lsr 26 < op_br_base + 6

let static_target ~site w =
  if w < 0 || w > 0xFFFFFFFF then none
  else
    let op = w lsr 26 in
    if op = op_jmp || op = op_jal then (w land 0x3FFFFFF) lsl 2
    else if op >= op_br_base && op < op_br_base + 6 then
      site + (4 * sext16 (w land 0xFFFF))
    else none

let branch_target ~site w =
  if is_br w then site + (4 * sext16 (w land 0xFFFF)) else none

let trap_index w =
  if w >= 0 && w <= 0xFFFFFFFF && w lsr 26 = op_trap then w land 0x3FFFFFF
  else none

let reg25 w = Reg.r ((w lsr 21) land 0x1F)
let reg20 w = Reg.r ((w lsr 16) land 0x1F)

let with_branch_offset w off =
  if not (is_br w) then err "0x%08x is not a branch" w
  else (w land lnot 0xFFFF) lor imm16 "branch" off

let decode_exn w =
  match decode w with
  | Some i -> i
  | None -> err "invalid instruction word 0x%08x" w
