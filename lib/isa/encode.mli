(** Binary encoding of ERISC instructions.

    Instructions encode to 32-bit words. The SoftCache rewriter operates
    on encoded words in the translation cache, so [encode]/[decode] must
    round-trip exactly; this is enforced by property tests.

    Encoding layout (bit 31 is the MSB):
    - bits [31:26]: opcode;
    - R-type ALU (opcode 0): rd [25:21], rs1 [20:16], rs2 [15:11],
      funct [5:0];
    - I-type (immediate ALU, loads, stores, [Lui]): rd/rv [25:21],
      rs1 [20:16], imm16 [15:0];
    - branches: rs1 [25:21], rs2 [20:16], signed word offset [15:0];
    - [Jmp]/[Jal]/[Trap]: 26-bit word index [25:0];
    - [Jr]: rs [25:21]; [Jalr]: rd [25:21], rs [20:16];
    - [Out]: rs [25:21]. *)

exception Encode_error of string
(** Raised when an operand does not fit its field (e.g. an immediate
    outside 16 bits or a misaligned jump target). *)

val imm16_fits : int -> bool
(** True if the value fits a signed 16-bit immediate. *)

val branch_offset_fits : int -> bool
(** True if the word offset fits a branch's signed 16-bit field. *)

val jump_target_fits : int -> bool
(** True if the byte address is 4-aligned and its word index fits
    26 bits. *)

val encode : Instr.t -> int
(** [encode i] is the 32-bit word encoding [i].
    @raise Encode_error if an operand does not fit. *)

val decode : int -> Instr.t option
(** [decode w] decodes a 32-bit word; [None] for invalid encodings. *)

val decode_exn : int -> Instr.t
(** @raise Encode_error on invalid encodings. *)

(** {2 Writers}

    Words built from their fields, equal to [encode] of the instruction
    they name, with the same field checks, without building the
    instruction first. *)

val jmp : int -> int
(** [jmp a = encode (Jmp a)]. @raise Encode_error as [encode] would. *)

val jal : int -> int
(** [jal a = encode (Jal a)]. @raise Encode_error as [encode] would. *)

val trap : int -> int
(** [trap k = encode (Trap k)]. @raise Encode_error as [encode] would. *)

val with_branch_offset : int -> int -> int
(** [with_branch_offset w off] is the branch word [w] aimed at [off]
    instead: [encode (Br (c, r1, r2, off))] when [w] decodes to
    [Br (c, r1, r2, _)].
    @raise Encode_error if [w] is not a branch or [off] does not fit. *)

(** {2 Readers}

    Each answers one question about a word exactly as matching on
    [decode w] would, without building the instruction: they allocate
    nothing, so a scan over every word of the tcache costs a read and a
    few integer tests per non-branch word. *)

type form =
  | Invalid  (** no decoding *)
  | Plain
      (** every form that falls through and names no target: the ALU
          forms, [Lui], loads, stores, [Out] and [Nop] *)
  | Br
  | Jmp
  | Jal
  | Jr
  | Jalr
  | Trap
  | Halt

val form : int -> form
(** Which instruction [decode w] would build: [Invalid] exactly when
    it gives [None], else the constructor of the instruction, with
    every non-control one folded into [Plain]. Every decodable word is
    canonical ([encode (decode_exn w) = w]), so a [Plain] word can be
    copied as it is wherever its instruction would be re-encoded. *)

val reg25 : int -> Reg.t
(** The register in bits [25:21]: [rs] of a [Jr], [rd] of a [Jalr]. *)

val reg20 : int -> Reg.t
(** The register in bits [20:16]: [rs] of a [Jalr]. *)

val none : int
(** The readers' "no answer" sentinel, [min_int]. No real target can
    take it: a branch at a non-negative [site] aims at [site - 0x20000]
    or above. A negative target is an answer, not [none] (a [Br] at
    0x10000 with offset -32768 aims at -0x10000). *)

val static_target : site:int -> int -> int
(** The static control-flow target of the word [w] fetched from [site]:
    the absolute byte address of a [Jmp]/[Jal], [site + 4 * off] for a
    [Br]; [none] for every other word, undecodable ones included. *)

val branch_target : site:int -> int -> int
(** [site + 4 * off] when the word decodes to a [Br] with offset
    [off], else [none]: [static_target] restricted to branches. *)

val trap_index : int -> int
(** [k] when the word decodes to [Trap k], else [none]. *)
