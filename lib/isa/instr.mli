(** ERISC instructions.

    ERISC is a 32-bit, word-aligned RISC instruction set in the SPARC /
    MIPS mould, designed so that the SoftCache's dynamic binary
    rewriting has the same material to work with as the paper's SPARC
    and ARM prototypes: fixed-width encoded instructions, PC-relative
    conditional branches, absolute jumps and calls, computed jumps, and
    a trap instruction used by the software cache for miss stubs.

    Conventions:
    - all addresses are byte addresses; instructions are 4 bytes and
      must be 4-aligned;
    - conditional branch targets are encoded as signed word offsets
      relative to the branch instruction itself;
    - jump and call targets are absolute byte addresses (encoded as
      26-bit word indices, reaching 256 MB);
    - [Trap k] transfers control to the runtime (the cache controller)
      with a 26-bit stub index [k]. *)

type aluop =
  | Add
  | Sub
  | Mul
  | Div  (** signed division; division by zero faults *)
  | And
  | Or
  | Xor
  | Sll
  | Srl
  | Sra
  | Slt  (** set-if-less-than, signed *)
  | Sltu (** set-if-less-than, unsigned *)

type cond = Eq | Ne | Lt | Ge | Ltu | Geu

type t =
  | Alu of aluop * Reg.t * Reg.t * Reg.t
      (** [Alu (op, rd, rs1, rs2)]: [rd <- rs1 op rs2]. *)
  | Alui of aluop * Reg.t * Reg.t * int
      (** [Alui (op, rd, rs1, imm)]: [rd <- rs1 op imm], signed 16-bit
          immediate. Shift amounts use the low 5 bits. *)
  | Lui of Reg.t * int
      (** [Lui (rd, imm)]: [rd <- imm lsl 16], unsigned 16-bit [imm]. *)
  | Ld of Reg.t * Reg.t * int  (** [rd <- mem32\[rs + imm\]] *)
  | St of Reg.t * Reg.t * int  (** [mem32\[rs + imm\] <- rv]; [St (rv, rs, imm)] *)
  | Ldb of Reg.t * Reg.t * int (** [rd <- zero-extended mem8\[rs + imm\]] *)
  | Stb of Reg.t * Reg.t * int (** [mem8\[rs + imm\] <- low byte of rv] *)
  | Br of cond * Reg.t * Reg.t * int
      (** [Br (c, rs1, rs2, off)]: if [c (rs1, rs2)] then
          [pc <- pc + 4 * off]. [off] is a signed 16-bit word offset
          relative to the branch instruction. *)
  | Jmp of int  (** absolute byte address *)
  | Jal of int  (** call: [ra <- pc + 4; pc <- target] *)
  | Jr of Reg.t (** computed jump / return: [pc <- rs] *)
  | Jalr of Reg.t * Reg.t
      (** [Jalr (rd, rs)]: indirect call: [rd <- pc + 4; pc <- rs]. *)
  | Trap of int (** software-cache trap with 26-bit stub index *)
  | Out of Reg.t (** emit [rs] to the observable output channel *)
  | Nop
  | Halt

val word_size : int
(** Bytes per instruction (4). *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** Assembly syntax, e.g. [add r1, r2, r3], [beq r1, zero, +12],
    [jmp 0x1040]. *)

val to_string : t -> string
