(* Unit and property tests for the ERISC ISA: registers, encoding,
   images, the builder DSL and the textual assembler. *)

open Fixtures

(* ------------------------------------------------------------------ *)
(* Generators *)

let gen_reg = QCheck.Gen.(map Isa.Reg.r (int_bound 31))
let gen_imm16 = QCheck.Gen.(map (fun v -> v - 32768) (int_bound 65535))
let gen_uimm16 = QCheck.Gen.int_bound 0xFFFF
let gen_jtarget = QCheck.Gen.(map (fun v -> v * 4) (int_bound 0xFFFFF))
let gen_trapidx = QCheck.Gen.int_bound ((1 lsl 26) - 1)

let gen_aluop =
  QCheck.Gen.oneofl
    [
      Isa.Instr.Add; Sub; Mul; Div; And; Or; Xor; Sll; Srl; Sra; Slt; Sltu;
    ]

let gen_cond = QCheck.Gen.oneofl [ Isa.Instr.Eq; Ne; Lt; Ge; Ltu; Geu ]

let gen_instr : Isa.Instr.t QCheck.Gen.t =
  let open QCheck.Gen in
  let open Isa.Instr in
  oneof
    [
      map4 (fun op a b c -> Alu (op, a, b, c)) gen_aluop gen_reg gen_reg gen_reg;
      map4 (fun op a b i -> Alui (op, a, b, i)) gen_aluop gen_reg gen_reg gen_imm16;
      map2 (fun r i -> Lui (r, i)) gen_reg gen_uimm16;
      map3 (fun a b i -> Ld (a, b, i)) gen_reg gen_reg gen_imm16;
      map3 (fun a b i -> St (a, b, i)) gen_reg gen_reg gen_imm16;
      map3 (fun a b i -> Ldb (a, b, i)) gen_reg gen_reg gen_imm16;
      map3 (fun a b i -> Stb (a, b, i)) gen_reg gen_reg gen_imm16;
      map4 (fun c a b o -> Br (c, a, b, o)) gen_cond gen_reg gen_reg gen_imm16;
      map (fun t -> Jmp t) gen_jtarget;
      map (fun t -> Jal t) gen_jtarget;
      map (fun r -> Jr r) gen_reg;
      map2 (fun a b -> Jalr (a, b)) gen_reg gen_reg;
      map (fun k -> Trap k) gen_trapidx;
      map (fun r -> Out r) gen_reg;
      return Nop;
      return Halt;
    ]

let arb_instr = QCheck.make ~print:Isa.Instr.to_string gen_instr

(* ------------------------------------------------------------------ *)
(* Encode / decode *)

let test_roundtrip =
  QCheck.Test.make ~count:2000 ~name:"encode/decode roundtrip" arb_instr
    (fun i -> Isa.Encode.decode (Isa.Encode.encode i) = Some i)

module E = Isa.Encode

(* Words shaped like encodings: any of the 32 opcodes with random
   fields, and on half the draws the fields its form requires to be
   zero cleared (and an R-type function code made valid), so that most
   draws decode. *)
let gen_shaped_word =
  let open QCheck.Gen in
  let* op = int_bound 31 in
  let* fields = int_bound 0x3FFFFFF in
  let* clear = bool in
  let mask =
    if not clear then 0
    else
      match op with
      | 0 -> 0x7C0 (* R-type: bits 10..6 *)
      | 13 -> 0x1F0000 (* lui: rs1 *)
      | 26 | 31 -> 0x1FFFFF (* jr, out *)
      | 27 -> 0xFFFF (* jalr *)
      | 29 | 30 -> 0x3FFFFFF (* halt, nop *)
      | _ -> 0
  in
  let fields = fields land lnot mask in
  let fields =
    (* R-type also needs a known function code *)
    if op = 0 && clear then
      fields land lnot 0x3F lor ((fields land 0x3F) mod 12)
    else fields
  in
  return ((op lsl 26) lor fields)

let test_canonical =
  QCheck.Test.make ~count:20000 ~name:"decode gives canonical encodings"
    (QCheck.make ~print:(Printf.sprintf "0x%08x")
       QCheck.Gen.(oneof [ int_bound 0xFFFFFFFF; gen_shaped_word ]))
    (fun w ->
      match Isa.Encode.decode w with
      | None -> true
      | Some i -> Isa.Encode.encode i = w)

let test_predecode_identical =
  (* any word the pure decoder accepts must come out of the memory
     decode cache bit-identically, on the fill path and again on the
     hit path; any word it rejects must raise [Undecodable] carrying
     that word and install nothing *)
  QCheck.Test.make ~count:2000
    ~name:"decode cache predecodes every decodable word identically"
    QCheck.(make Gen.(int_bound 0xFFFFFFFF))
    (fun w ->
      let mem = Machine.Memory.create 64 in
      Machine.Memory.write32 mem 0 w;
      match Isa.Encode.decode w with
      | Some i ->
        Machine.Memory.fetch_decoded mem 0 = i
        && Machine.Memory.fetch_decoded mem 0 = i
      | None -> (
        match Machine.Memory.fetch_decoded mem 0 with
        | exception Machine.Memory.Undecodable w' ->
          w' = w && Machine.Memory.decode_peek mem 0 = None
        | _ -> false))

(* The non-allocating readers answer exactly what matching on [decode]
   answers, on any word: random 32-bit words, words shaped like
   encodings, encoded instructions, and the sign-extended words a
   32-bit memory read returns. Sites below
   0x40000 put many branch targets below address 0 (a [Br] at 0x10000
   with offset -32768 aims at -0x10000): those are answers, not
   [none]. *)
let test_readers_agree_with_decode =
  let gen =
    let open QCheck.Gen in
    let* w =
      oneof
        [
          int_bound 0xFFFFFFFF;
          gen_shaped_word;
          map Isa.Encode.encode gen_instr;
          map
            (fun w -> if w land 0x80000000 <> 0 then w - 0x100000000 else w)
            (int_bound 0xFFFFFFFF);
        ]
    in
    let* site = oneof [ int_bound 0x3FFFC; int_bound 0xFFFFFF ] in
    return (w, site land lnot 3)
  in
  QCheck.Test.make ~count:10000 ~name:"readers agree with decode"
    (QCheck.make ~print:(fun (w, site) -> Printf.sprintf "0x%x @ 0x%x" w site) gen)
    (fun (w, site) ->
      let open Isa.Instr in
      let target =
        match Isa.Encode.decode w with
        | Some (Jmp p | Jal p) -> p
        | Some (Br (_, _, _, d)) -> site + (4 * d)
        | Some _ | None -> Isa.Encode.none
      in
      let trap =
        match Isa.Encode.decode w with
        | Some (Trap k) -> k
        | Some _ | None -> E.none
      in
      let branch =
        match Isa.Encode.decode w with
        | Some (Br (_, _, _, d)) -> site + (4 * d)
        | Some _ | None -> E.none
      in
      let form =
        match Isa.Encode.decode w with
        | None -> E.Invalid
        | Some (Br _) -> E.Br
        | Some (Jmp _) -> E.Jmp
        | Some (Jal _) -> E.Jal
        | Some (Jr _) -> E.Jr
        | Some (Jalr _) -> E.Jalr
        | Some (Trap _) -> E.Trap
        | Some Halt -> E.Halt
        | Some
            (Alu _ | Alui _ | Lui _ | Ld _ | St _ | Ldb _ | Stb _ | Out _ | Nop)
          ->
          E.Plain
      in
      let regs =
        match Isa.Encode.decode w with
        | Some (Jr rs) -> Isa.Reg.equal (E.reg25 w) rs
        | Some (Jalr (rd, rs)) ->
          Isa.Reg.equal (E.reg25 w) rd && Isa.Reg.equal (E.reg20 w) rs
        | Some _ | None -> true
      in
      E.static_target ~site w = target
      && E.trap_index w = trap
      && E.branch_target ~site w = branch
      && E.form w = form && regs)

(* The rewriter copies every non-control word as it is and the CC
   installs the shipped bytes, so both rest on every decodable word
   being the encoding of what it decodes to ([test_canonical]), in
   every registry image's text too. *)
let test_registry_text_canonical () =
  List.iter
    (fun (e : Workloads.Registry.entry) ->
      let img = e.build () in
      Array.iteri
        (fun i w ->
          match Isa.Encode.decode w with
          | Some instr when Isa.Encode.encode instr = w -> ()
          | Some _ | None ->
            Alcotest.failf "%s: text word %d (0x%08x) is not canonical" e.name
              i w)
        img.code)
    Workloads.Registry.all

(* The writers build what [encode] builds from the same fields, and
   raise where it raises, in-range and out-of-range operands alike. *)
let test_writers_agree_with_encode =
  let outcome f =
    match f () with w -> Some w | exception E.Encode_error _ -> None
  and gen =
    let open QCheck.Gen in
    quad gen_cond (pair gen_reg gen_reg)
      (oneof [ gen_imm16; int_range (-100000) 100000 ])
      (oneof [ gen_jtarget; int_range (-8) 0x10000001 ])
  in
  QCheck.Test.make ~count:5000 ~name:"writers agree with encode"
    (QCheck.make gen)
    (fun (c, (r1, r2), off, a) ->
      let open Isa.Instr in
      let enc i () = E.encode i in
      let br = E.encode (Br (c, r1, r2, 0)) in
      outcome (fun () -> E.jmp a) = outcome (enc (Jmp a))
      && outcome (fun () -> E.jal a) = outcome (enc (Jal a))
      && outcome (fun () -> E.trap a) = outcome (enc (Trap a))
      && outcome (fun () -> E.with_branch_offset br off)
         = outcome (enc (Br (c, r1, r2, off))))

let test_encode_errors () =
  let open Isa.Instr in
  List.iter
    (fun i ->
      match Isa.Encode.encode i with
      | exception Isa.Encode.Encode_error _ -> ()
      | w -> Alcotest.failf "expected Encode_error, got 0x%08x" w)
    [
      Alui (Add, reg 1, reg 2, 40000);
      Alui (Add, reg 1, reg 2, -40000);
      Lui (reg 1, -1);
      Lui (reg 1, 0x10000);
      Br (Eq, reg 1, reg 2, 32768);
      Jmp 3 (* unaligned *);
      Jmp (4 * (1 lsl 26)) (* out of range *);
      Trap (-1);
      Trap (1 lsl 26);
    ]

let test_decode_garbage () =
  (* opcodes 32..63 are unassigned *)
  for op = 32 to 63 do
    Alcotest.(check (option reject))
      "unassigned opcode" None
      (Isa.Encode.decode (op lsl 26))
  done;
  (* R-type with bad funct *)
  Alcotest.(check bool)
    "bad funct" true
    (Isa.Encode.decode 12 = None);
  (* Halt with nonzero payload *)
  Alcotest.(check bool)
    "halt payload" true
    (Isa.Encode.decode ((29 lsl 26) lor 5) = None)

let test_pp () =
  let open Isa.Instr in
  let check s i = Alcotest.(check string) s s (to_string i) in
  check "add r1, r2, r3" (Alu (Add, reg 1, reg 2, reg 3));
  check "addi r1, r2, -5" (Alui (Add, reg 1, reg 2, -5));
  check "ld r4, 8(sp)" (Ld (reg 4, Isa.Reg.sp, 8));
  check "beq r1, zero, +3" (Br (Eq, reg 1, Isa.Reg.zero, 3));
  check "jr ra" (Jr Isa.Reg.ra);
  check "halt" Halt

(* ------------------------------------------------------------------ *)
(* Registers *)

let test_reg_basics () =
  Alcotest.(check int) "zero" 0 (Isa.Reg.to_int Isa.Reg.zero);
  Alcotest.(check int) "sp" 30 (Isa.Reg.to_int Isa.Reg.sp);
  Alcotest.(check int) "ra" 31 (Isa.Reg.to_int Isa.Reg.ra);
  Alcotest.(check bool) "of_string r7" true (Isa.Reg.of_string "r7" = Some (reg 7));
  Alcotest.(check bool) "of_string sp" true (Isa.Reg.of_string "sp" = Some Isa.Reg.sp);
  Alcotest.(check bool) "of_string bad" true (Isa.Reg.of_string "r32" = None);
  Alcotest.(check bool) "of_string junk" true (Isa.Reg.of_string "x1" = None);
  (match Isa.Reg.r 32 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "r 32 should raise");
  match Isa.Reg.r (-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "r -1 should raise"

(* ------------------------------------------------------------------ *)
(* Builder *)

let test_builder_loop () =
  let b = Isa.Builder.create "loop" in
  let open Isa.Instr in
  Isa.Builder.li b (reg 1) 10;
  let top = Isa.Builder.label b in
  Isa.Builder.ins b (Alui (Add, reg 1, reg 1, -1));
  Isa.Builder.br b Ne (reg 1) Isa.Reg.zero top;
  Isa.Builder.ins b Halt;
  let img = Isa.Builder.build b in
  Alcotest.(check int) "code size" 16 (Isa.Image.static_text_bytes img);
  (* the branch is at word 2, the label at word 1: offset -1 *)
  Alcotest.(check bool)
    "branch resolved" true
    (Isa.Image.fetch img (img.code_base + 8)
    = Br (Ne, reg 1, Isa.Reg.zero, -1))

let test_builder_forward_label () =
  let b = Isa.Builder.create "fwd" in
  let skip = Isa.Builder.new_label b in
  Isa.Builder.jmp b skip;
  Isa.Builder.ins b Isa.Instr.Nop;
  Isa.Builder.here b skip;
  Isa.Builder.ins b Isa.Instr.Halt;
  let img = Isa.Builder.build b in
  Alcotest.(check bool)
    "jmp to +2 words" true
    (Isa.Image.fetch img img.code_base = Isa.Instr.Jmp (img.code_base + 8))

let test_builder_unplaced_label () =
  let b = Isa.Builder.create "bad" in
  let l = Isa.Builder.new_label b in
  Isa.Builder.jmp b l;
  match Isa.Builder.build b with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unplaced label should fail"

let test_builder_func_symbols () =
  let b = Isa.Builder.create "syms" in
  let f = Isa.Builder.new_label b in
  let g = Isa.Builder.new_label b in
  Isa.Builder.func b "f" f (fun () ->
      Isa.Builder.ins b Isa.Instr.Nop;
      Isa.Builder.ins b (Isa.Instr.Jr Isa.Reg.ra));
  Isa.Builder.func b "g" g (fun () -> Isa.Builder.ins b Isa.Instr.Halt);
  let img = Isa.Builder.build b in
  let f_sym = Option.get (Isa.Image.find_symbol img "f") in
  let g_sym = Option.get (Isa.Image.find_symbol img "g") in
  Alcotest.(check int) "f size" 8 f_sym.sym_size;
  Alcotest.(check int) "g addr" (f_sym.sym_addr + 8) g_sym.sym_addr;
  Alcotest.(check bool)
    "symbol_at finds f" true
    (Isa.Image.symbol_at img (f_sym.sym_addr + 4) = Some f_sym);
  Alcotest.(check bool)
    "symbol_at misses past end" true
    (Isa.Image.symbol_at img (g_sym.sym_addr + g_sym.sym_size) = None)

let test_builder_li_widths () =
  let b = Isa.Builder.create "li" in
  Isa.Builder.li b (reg 1) 5;          (* 1 word *)
  Isa.Builder.li b (reg 2) 0x12345678; (* 2 words *)
  Isa.Builder.li b (reg 3) 0x10000;    (* 1 word: lui only *)
  Isa.Builder.li b (reg 4) (-7);       (* 1 word *)
  Isa.Builder.ins b Isa.Instr.Halt;
  let img = Isa.Builder.build b in
  Alcotest.(check int) "emitted words" (6 * 4) (Isa.Image.static_text_bytes img)

let test_builder_data () =
  let b = Isa.Builder.create "data" in
  let a1 = Isa.Builder.word b 42 in
  let a2 = Isa.Builder.words b [| 1; 2; 3 |] in
  let a3 = Isa.Builder.space b 10 in
  let a4 = Isa.Builder.word b 7 in
  Isa.Builder.ins b Isa.Instr.Halt;
  let img = Isa.Builder.build b in
  Alcotest.(check int) "first word addr" img.data_base a1;
  Alcotest.(check int) "array follows" (a1 + 4) a2;
  Alcotest.(check int) "space follows" (a2 + 12) a3;
  Alcotest.(check int) "word after space is aligned" (a3 + 12) a4;
  Alcotest.(check int32) "contents" 42l (Bytes.get_int32_le img.data 0)

(* ------------------------------------------------------------------ *)
(* Image validation *)

let test_image_validation () =
  let code = [| Isa.Encode.encode Isa.Instr.Halt |] in
  let mk ?(entry = 0x1000) ?(code_base = 0x1000) ?(symbols = []) () =
    Isa.Image.make ~name:"t" ~code_base ~code ~data_base:0x100000
      ~data:Bytes.empty ~entry ~symbols
  in
  (match mk ~entry:0x2000 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "entry outside code");
  (match mk ~code_base:0x1002 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unaligned base");
  (match
     mk
       ~symbols:
         [
           { sym_name = "a"; sym_addr = 0x1000; sym_size = 4 };
           { sym_name = "b"; sym_addr = 0x1002; sym_size = 4 };
         ]
       ()
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "overlapping symbols");
  let img = mk () in
  Alcotest.(check bool) "contains entry" true (Isa.Image.contains_code img 0x1000);
  Alcotest.(check bool) "excludes end" false (Isa.Image.contains_code img 0x1004)

(* ------------------------------------------------------------------ *)
(* Assembler *)

let test_asm_basic () =
  let src =
    {|
      ; sum 1..5
      .entry main
      .func main
      main:
          li   r1, 5
          li   r2, 0
      loop: add  r2, r2, r1
          addi r1, r1, -1
          bne  r1, zero, loop
          out  r2
          halt
      .endfunc
    |}
  in
  let img = Isa.Assembler.assemble_exn src in
  Alcotest.(check int) "entry" img.code_base img.entry;
  Alcotest.(check bool)
    "has main symbol" true
    (Isa.Image.find_symbol img "main" <> None);
  Alcotest.(check int) "7 words" 28 (Isa.Image.static_text_bytes img)

let test_asm_data_labels () =
  let src =
    {|
      .data
      tbl:  .word 10, 20, 30
      buf:  .space 8
      bs:   .byte 1, 2, 3
      .text
      main: la r1, tbl
            ld r2, 4(r1)
            out r2
            halt
    |}
  in
  let img = Isa.Assembler.assemble_exn src in
  Alcotest.(check int32) "tbl[1]" 20l (Bytes.get_int32_le img.data 4);
  Alcotest.(check int) "byte data" 2 (Char.code (Bytes.get img.data 21))

let test_asm_mnemonic_coverage () =
  let src =
    {|
      main:
        add r1, r2, r3
        subi r1, r1, 1
        mul r4, r1, r1
        divi r4, r4, 2
        andi r5, r4, 255
        ori r5, r5, 1
        xor r6, r5, r5
        slli r7, r5, 2
        srl r8, r7, r5
        sra r9, r7, r5
        slt r10, r8, r9
        sltui r11, r8, 100
        lui r12, 0x1234
        ldb r13, 0(r12)
        stb r13, 1(r12)
        mov r14, r13
        jalr r15, r14
        jr r14
        beq r1, r2, +2
        bltu r1, r2, -1
        trap 7
        nop
        ret
        halt
    |}
  in
  match Isa.Assembler.assemble src with
  | Ok img -> Alcotest.(check int) "24 words" (24 * 4) (Isa.Image.static_text_bytes img)
  | Error e -> Alcotest.fail e

(* tiny substring helper (no external dependency) *)
let astring_contains s frag =
  let n = String.length s and m = String.length frag in
  let rec go i = i + m <= n && (String.sub s i m = frag || go (i + 1)) in
  m = 0 || go 0

let test_asm_error_cases () =
  let expect_err src frag =
    match Isa.Assembler.assemble src with
    | Ok _ -> Alcotest.failf "expected failure mentioning %s" frag
    | Error e ->
      if not (astring_contains e frag) then
        Alcotest.failf "error %S does not mention %S" e frag
  in
  expect_err "main: frob r1, r2" "unknown mnemonic";
  expect_err "main: jmp nowhere\nhalt" "undefined label";
  expect_err "a: nop\na: halt" "duplicate label";
  expect_err ".data\nx: .word 1\n.text\nmain: jmp x\nhalt" "data label";
  expect_err "main: addi r1, r2, 100000\nhalt" "out of range";
  expect_err ".entry nope\nmain: halt" "undefined label";
  expect_err ".func f\nnop" ".func not closed";
  expect_err "" "no code"

let test_asm_pp_roundtrip =
  (* pp output of straight-line instructions reassembles to the same
     encodings *)
  let gen_plain =
    QCheck.Gen.(
      oneof
        [
          map4 (fun op a b c -> Isa.Instr.Alu (op, a, b, c)) gen_aluop gen_reg
            gen_reg gen_reg;
          map2 (fun r i -> Isa.Instr.Lui (r, i)) gen_reg gen_uimm16;
          map3 (fun a b i -> Isa.Instr.Ld (a, b, i)) gen_reg gen_reg gen_imm16;
          map3 (fun a b i -> Isa.Instr.St (a, b, i)) gen_reg gen_reg gen_imm16;
          map (fun r -> Isa.Instr.Out r) gen_reg;
          return Isa.Instr.Nop;
        ])
  in
  QCheck.Test.make ~count:300 ~name:"assembler accepts pretty-printed instrs"
    QCheck.(make ~print:(fun l -> String.concat "\n" (List.map Isa.Instr.to_string l))
              Gen.(list_size (int_range 1 20) gen_plain))
    (fun instrs ->
      let src =
        String.concat "\n" (List.map Isa.Instr.to_string instrs) ^ "\nhalt"
      in
      match Isa.Assembler.assemble src with
      | Error _ -> false
      | Ok img ->
        let expect =
          Array.of_list
            (List.map Isa.Encode.encode instrs @ [ Isa.Encode.encode Halt ])
        in
        img.code = expect)

let test_disasm_word () =
  let w = Isa.Encode.encode (Isa.Instr.Alu (Add, reg 1, reg 2, reg 3)) in
  Alcotest.(check string) "mnemonic" "add r1, r2, r3" (Isa.Disasm.word w);
  Alcotest.(check string) "undecodable" ".word 0xfc000000"
    (Isa.Disasm.word (63 lsl 26));
  (* branch targets annotated when the address is known *)
  let b = Isa.Encode.encode (Isa.Instr.Br (Eq, reg 1, reg 2, 3)) in
  Alcotest.(check bool) "target annotation" true
    (astring_contains (Isa.Disasm.word ~addr:0x1000 b) "0x100c")

let test_disasm_image () =
  let b = Isa.Builder.create "d" in
  let f = Isa.Builder.new_label b in
  Isa.Builder.func b "flagship" f (fun () ->
      Isa.Builder.ins b Isa.Instr.Nop;
      Isa.Builder.ins b Isa.Instr.Halt);
  let listing = Isa.Disasm.image (Isa.Builder.build b) in
  Alcotest.(check bool) "symbol header" true
    (astring_contains listing "<flagship>:");
  Alcotest.(check bool) "has nop" true (astring_contains listing "nop");
  Alcotest.(check bool) "has addresses" true
    (astring_contains listing "00001000:")

(* The shipped assembly example must assemble and run identically
   natively and under the SoftCache. *)
let test_asm_example_file () =
  let src = In_channel.with_open_text "../examples/fir.s" In_channel.input_all in
  match Isa.Assembler.assemble ~name:"fir.s" src with
  | Error e -> Alcotest.fail e
  | Ok img ->
    let native = Softcache.Runner.native img in
    Alcotest.(check bool) "halts" true (native.outcome = Machine.Cpu.Halted);
    Alcotest.(check int) "two outputs" 2 (List.length native.outputs);
    let cached, _ =
      Softcache.Runner.cached
        (Softcache.Config.make ~tcache_bytes:512 ())
        img
    in
    Alcotest.(check (list int)) "cached matches" native.outputs cached.outputs

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "isa"
    [
      ( "encode",
        [
          qt test_roundtrip;
          qt test_canonical;
          qt test_predecode_identical;
          qt test_readers_agree_with_decode;
          Alcotest.test_case "registry text is canonical" `Quick
            test_registry_text_canonical;
          qt test_writers_agree_with_encode;
          Alcotest.test_case "encode errors" `Quick test_encode_errors;
          Alcotest.test_case "decode garbage" `Quick test_decode_garbage;
          Alcotest.test_case "pretty printing" `Quick test_pp;
        ] );
      ("reg", [ Alcotest.test_case "basics" `Quick test_reg_basics ]);
      ( "builder",
        [
          Alcotest.test_case "loop" `Quick test_builder_loop;
          Alcotest.test_case "forward label" `Quick test_builder_forward_label;
          Alcotest.test_case "unplaced label" `Quick test_builder_unplaced_label;
          Alcotest.test_case "func symbols" `Quick test_builder_func_symbols;
          Alcotest.test_case "li widths" `Quick test_builder_li_widths;
          Alcotest.test_case "data" `Quick test_builder_data;
        ] );
      ("image", [ Alcotest.test_case "validation" `Quick test_image_validation ]);
      ( "assembler",
        [
          Alcotest.test_case "basic program" `Quick test_asm_basic;
          Alcotest.test_case "data labels" `Quick test_asm_data_labels;
          Alcotest.test_case "mnemonic coverage" `Quick test_asm_mnemonic_coverage;
          Alcotest.test_case "error cases" `Quick test_asm_error_cases;
          Alcotest.test_case "fir.s example" `Quick test_asm_example_file;
          Alcotest.test_case "disasm word" `Quick test_disasm_word;
          Alcotest.test_case "disasm image" `Quick test_disasm_image;
          qt test_asm_pp_roundtrip;
        ] );
    ]
