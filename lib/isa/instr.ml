type aluop =
  | Add
  | Sub
  | Mul
  | Div
  | And
  | Or
  | Xor
  | Sll
  | Srl
  | Sra
  | Slt
  | Sltu

type cond = Eq | Ne | Lt | Ge | Ltu | Geu

type t =
  | Alu of aluop * Reg.t * Reg.t * Reg.t
  | Alui of aluop * Reg.t * Reg.t * int
  | Lui of Reg.t * int
  | Ld of Reg.t * Reg.t * int
  | St of Reg.t * Reg.t * int
  | Ldb of Reg.t * Reg.t * int
  | Stb of Reg.t * Reg.t * int
  | Br of cond * Reg.t * Reg.t * int
  | Jmp of int
  | Jal of int
  | Jr of Reg.t
  | Jalr of Reg.t * Reg.t
  | Trap of int
  | Out of Reg.t
  | Nop
  | Halt

let word_size = 4

let equal (a : t) (b : t) = a = b

let aluop_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Sll -> "sll"
  | Srl -> "srl"
  | Sra -> "sra"
  | Slt -> "slt"
  | Sltu -> "sltu"

let cond_name = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> "lt"
  | Ge -> "ge"
  | Ltu -> "ltu"
  | Geu -> "geu"


let pp ppf = function
  | Alu (op, rd, rs1, rs2) ->
    Format.fprintf ppf "%s %a, %a, %a" (aluop_name op) Reg.pp rd Reg.pp rs1
      Reg.pp rs2
  | Alui (op, rd, rs1, imm) ->
    Format.fprintf ppf "%si %a, %a, %d" (aluop_name op) Reg.pp rd Reg.pp rs1
      imm
  | Lui (rd, imm) -> Format.fprintf ppf "lui %a, 0x%x" Reg.pp rd imm
  | Ld (rd, rs, imm) ->
    Format.fprintf ppf "ld %a, %d(%a)" Reg.pp rd imm Reg.pp rs
  | St (rv, rs, imm) ->
    Format.fprintf ppf "st %a, %d(%a)" Reg.pp rv imm Reg.pp rs
  | Ldb (rd, rs, imm) ->
    Format.fprintf ppf "ldb %a, %d(%a)" Reg.pp rd imm Reg.pp rs
  | Stb (rv, rs, imm) ->
    Format.fprintf ppf "stb %a, %d(%a)" Reg.pp rv imm Reg.pp rs
  | Br (c, rs1, rs2, off) ->
    Format.fprintf ppf "b%s %a, %a, %+d" (cond_name c) Reg.pp rs1 Reg.pp rs2
      off
  | Jmp target -> Format.fprintf ppf "jmp 0x%x" target
  | Jal target -> Format.fprintf ppf "jal 0x%x" target
  | Jr rs -> Format.fprintf ppf "jr %a" Reg.pp rs
  | Jalr (rd, rs) -> Format.fprintf ppf "jalr %a, %a" Reg.pp rd Reg.pp rs
  | Trap k -> Format.fprintf ppf "trap %d" k
  | Out rs -> Format.fprintf ppf "out %a" Reg.pp rs
  | Nop -> Format.pp_print_string ppf "nop"
  | Halt -> Format.pp_print_string ppf "halt"

let to_string t = Format.asprintf "%a" pp t
