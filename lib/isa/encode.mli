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

(** {2 Readers}

    Each answers one question about a word exactly as matching on
    [decode w] would, without building the instruction: they allocate
    nothing, so a scan over every word of the tcache costs a read and a
    few integer tests per non-branch word. *)

val none : int
(** The readers' "no answer" sentinel, [min_int]. No real target can
    take it: a branch at a non-negative [site] aims at [site - 0x20000]
    or above. A negative target is an answer, not [none] (a [Br] at
    0x10000 with offset -32768 aims at -0x10000). *)

val static_target : site:int -> int -> int
(** The static control-flow target of the word [w] fetched from [site]:
    the absolute byte address of a [Jmp]/[Jal], [site + 4 * off] for a
    [Br]; [none] for every other word, undecodable ones included. *)

val trap_index : int -> int
(** [k] when the word decodes to [Trap k], else [none]. *)
