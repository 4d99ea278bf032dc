(* Unit tests of the SoftCache internals: the chunker, the rewriter's
   layout and emission rules, and the translation-cache bookkeeping. *)

open Fixtures

let image_of instrs ?(symbols = []) () =
  Isa.Image.make ~name:"unit" ~code_base:0x1000
    ~code:(Array.of_list (List.map Isa.Encode.encode instrs))
    ~data_base:0x100000 ~data:Bytes.empty ~entry:0x1000 ~symbols

(* ------------------------------------------------------------------ *)
(* Chunker *)

let test_chunk_basic_block () =
  let img =
    image_of
      [
        Isa.Instr.Nop;
        Isa.Instr.Alui (Add, reg 1, reg 1, 1);
        Isa.Instr.Br (Eq, reg 1, reg 2, 4);
        Isa.Instr.Nop;
        Isa.Instr.Halt;
      ]
      ()
  in
  let c = Softcache.Chunker.chunk_at img Softcache.Config.Basic_block 0x1000 in
  Alcotest.(check int) "ends at branch" 3 c.len;
  Alcotest.(check int) "span" 12 (Softcache.Chunker.span_bytes c);
  (* a chunk can start mid-block (tail duplication) *)
  let c2 = Softcache.Chunker.chunk_at img Softcache.Config.Basic_block 0x1004 in
  Alcotest.(check int) "tail chunk" 2 c2.len;
  (* and right at the terminator *)
  let c3 = Softcache.Chunker.chunk_at img Softcache.Config.Basic_block 0x1008 in
  Alcotest.(check int) "terminator-only" 1 c3.len

let test_chunk_procedure () =
  let symbols =
    [
      { Isa.Image.sym_name = "f"; sym_addr = 0x1000; sym_size = 12 };
      { Isa.Image.sym_name = "g"; sym_addr = 0x100c; sym_size = 8 };
    ]
  in
  let img =
    image_of
      [
        Isa.Instr.Nop;
        Isa.Instr.Br (Eq, reg 1, reg 2, -1);
        Isa.Instr.Jr Isa.Reg.ra;
        Isa.Instr.Nop;
        Isa.Instr.Halt;
      ]
      ~symbols ()
  in
  let c = Softcache.Chunker.chunk_at img Softcache.Config.Procedure 0x1000 in
  Alcotest.(check int) "whole procedure" 3 c.len;
  (* entering mid-procedure chunks to the procedure's end *)
  let c2 = Softcache.Chunker.chunk_at img Softcache.Config.Procedure 0x1004 in
  Alcotest.(check int) "rest of procedure" 2 c2.len;
  let c3 = Softcache.Chunker.chunk_at img Softcache.Config.Procedure 0x100c in
  Alcotest.(check int) "next procedure" 2 c3.len

let test_chunk_bad_addresses () =
  let img = image_of [ Isa.Instr.Halt ] () in
  let expect_bad v =
    match Softcache.Chunker.chunk_at img Softcache.Config.Basic_block v with
    | exception Softcache.Chunker.Bad_address _ -> ()
    | _ -> Alcotest.failf "expected Bad_address for 0x%x" v
  in
  expect_bad 0x0FFC;
  expect_bad 0x1004;
  expect_bad 0x1001

let test_chunk_rejects_trap () =
  let img = image_of [ Isa.Instr.Nop; Isa.Instr.Trap 3; Isa.Instr.Halt ] () in
  match Softcache.Chunker.chunk_at img Softcache.Config.Basic_block 0x1000 with
  | exception Softcache.Chunker.Trap_in_source 0x1004 -> ()
  | _ -> Alcotest.fail "expected Trap_in_source"

(* ------------------------------------------------------------------ *)
(* Rewriter: layout rules *)

(* The chunk of [instrs] at 0x1000, built outside an image: a view of
   the segment the MC would stage for it. *)
let chunk_of instrs =
  let b = Bytes.create (4 * List.length instrs) in
  List.iteri
    (fun i instr ->
      Bytes.set_int32_le b (4 * i) (Int32.of_int (Isa.Encode.encode instr)))
    instrs;
  Option.get (Softcache.Chunker.of_payload ~vaddr:0x1000 b)

(* Every emitted word, read back from the payload. *)
let words (e : _ Softcache.Rewriter.emission) =
  Array.init (Bytes.length e.payload / 4) (fun i ->
      Int32.to_int (Bytes.get_int32_le e.payload (4 * i)) land 0xFFFFFFFF)

let layout instrs = Softcache.Rewriter.layout_words (chunk_of instrs)

let test_layout_sizes () =
  (* plain + halt: verbatim *)
  Alcotest.(check int) "straight-line + halt" 2
    (layout [ Isa.Instr.Nop; Isa.Instr.Halt ]);
  (* external conditional branch: word + fall slot + island *)
  Alcotest.(check int) "branch block" 3
    (layout [ Isa.Instr.Br (Eq, reg 1, reg 2, 100) ]);
  (* external jmp: single patched word, no extras *)
  Alcotest.(check int) "jmp block" 1 (layout [ Isa.Instr.Jmp 0x2000 ]);
  (* call: jal + pad + island *)
  Alcotest.(check int) "call block" 3 (layout [ Isa.Instr.Jal 0x2000 ]);
  (* return: verbatim *)
  Alcotest.(check int) "return" 1 (layout [ Isa.Instr.Jr Isa.Reg.ra ]);
  (* computed jump: one trap *)
  Alcotest.(check int) "computed jump" 1 (layout [ Isa.Instr.Jr (reg 5) ]);
  (* indirect call: trap + pad *)
  Alcotest.(check int) "indirect call" 2
    (layout [ Isa.Instr.Jalr (Isa.Reg.ra, reg 5) ]);
  (* chunk falling off its end gets a fall slot *)
  Alcotest.(check int) "fall-through slot" 2 (layout [ Isa.Instr.Nop ])

let test_layout_internal_branch () =
  (* a self-loop branch is internal: no island *)
  Alcotest.(check int) "self loop" 2
    (layout [ Isa.Instr.Br (Eq, reg 1, reg 2, 0) ])

(* ------------------------------------------------------------------ *)
(* Rewriter: emission *)

let translate ?(resident = fun _ -> None) instrs =
  let chunk = chunk_of instrs in
  let stubs = ref [] in
  let alloc make =
    let k = List.length !stubs in
    stubs := make k :: !stubs;
    k
  in
  let e =
    Softcache.Rewriter.translate
      (Softcache.Rewriter.layout chunk)
      ~block_id:7 ~base:0x20000 ~resident ~alloc_stub:alloc
  in
  (e, List.rev !stubs)

(* A [Trap] word in a chunk is the chunker's to reject; one that reaches
   the rewriter anyway raises [Rewrite_error] naming its address. *)
let test_emit_rejects_trap () =
  match translate [ Isa.Instr.Nop; Isa.Instr.Trap 3; Isa.Instr.Halt ] with
  | _ -> Alcotest.fail "translated a chunk holding a trap"
  | exception Softcache.Rewriter.Rewrite_error msg ->
    let at = "0x1004" in
    Alcotest.(check bool) ("names " ^ at ^ ": " ^ msg) true
      (List.mem at (String.split_on_char ' ' msg))

let test_emit_verbatim_body () =
  let e, stubs =
    translate [ Isa.Instr.Alui (Add, reg 1, reg 1, 1); Isa.Instr.Halt ]
  in
  Alcotest.(check int) "2 words" 2 (Array.length (words e));
  Alcotest.(check int) "no stubs" 0 (List.length stubs);
  Alcotest.(check bool) "body verbatim" true
    (Isa.Encode.decode (words e).(0)
    = Some (Isa.Instr.Alui (Add, reg 1, reg 1, 1)));
  Alcotest.(check int) "no overhead beyond none" 0 e.overhead_words

let test_emit_unbound_jmp_is_trap () =
  let e, stubs = translate [ Isa.Instr.Jmp 0x3000 ] in
  (match Isa.Encode.decode (words e).(0) with
  | Some (Isa.Instr.Trap 0) -> ()
  | _ -> Alcotest.fail "expected trap in jmp slot");
  match stubs with
  | [ Softcache.Stub.Exit e ] ->
    Alcotest.(check int) "target" 0x3000 e.target;
    Alcotest.(check int) "site" 0x20000 e.site_paddr;
    Alcotest.(check bool) "kind" true (e.kind = Softcache.Stub.Patch_jmp)
  | _ -> Alcotest.fail "expected one exit stub"

let test_emit_bound_jmp_is_direct () =
  let resident v = if v = 0x3000 then Some (42, 0x21000) else None in
  let e, _ = translate ~resident [ Isa.Instr.Jmp 0x3000 ] in
  Alcotest.(check bool) "direct jmp" true
    (Isa.Encode.decode (words e).(0) = Some (Isa.Instr.Jmp 0x21000));
  match e.bound with
  | [ (42, 0x20000, _, _) ] -> ()
  | _ -> Alcotest.fail "expected bound record to block 42"

let test_emit_call_shape () =
  let e, stubs = translate [ Isa.Instr.Jal 0x3000 ] in
  Alcotest.(check int) "3 words" 3 (Array.length (words e));
  (* word 0: jal to the island (word 2) *)
  Alcotest.(check bool) "jal to island" true
    (Isa.Encode.decode (words e).(0) = Some (Isa.Instr.Jal (0x20000 + 8)));
  (* word 1: the landing pad, trapping until the return target exists *)
  (match Isa.Encode.decode (words e).(1) with
  | Some (Isa.Instr.Trap _) -> ()
  | _ -> Alcotest.fail "pad should trap");
  (* pad is registered for stack scrubbing with the return vaddr *)
  Alcotest.(check bool) "pad recorded" true
    (List.mem (0x20004, 0x1004) e.pads);
  (* two stubs: the call exit and the pad *)
  Alcotest.(check int) "stubs" 2 (List.length stubs)

let test_emit_branch_shape () =
  let e, _ = translate [ Isa.Instr.Br (Ne, reg 1, reg 2, 64) ] in
  (* [br -> island][fall slot][island trap] *)
  Alcotest.(check int) "3 words" 3 (Array.length (words e));
  (match Isa.Encode.decode (words e).(0) with
  | Some (Isa.Instr.Br (Ne, _, _, 2)) -> () (* island at +2 *)
  | i ->
    Alcotest.failf "branch aims at island, got %s"
      (match i with Some i -> Isa.Instr.to_string i | None -> "???"));
  (match Isa.Encode.decode (words e).(1) with
  | Some (Isa.Instr.Trap _) -> ()
  | _ -> Alcotest.fail "fall slot should trap");
  match Isa.Encode.decode (words e).(2) with
  | Some (Isa.Instr.Trap _) -> ()
  | _ -> Alcotest.fail "island should trap"

let test_emit_computed_jump () =
  let e, stubs = translate [ Isa.Instr.Jr (reg 9) ] in
  Alcotest.(check int) "1 word" 1 (Array.length (words e));
  match stubs with
  | [ Softcache.Stub.Computed { rs } ] ->
    Alcotest.(check bool) "register" true (Isa.Reg.equal rs (reg 9))
  | _ -> Alcotest.fail "expected computed stub" 

let test_emit_return_verbatim () =
  let e, stubs = translate [ Isa.Instr.Jr Isa.Reg.ra ] in
  Alcotest.(check bool) "jr ra verbatim" true
    (Isa.Encode.decode (words e).(0) = Some (Isa.Instr.Jr Isa.Reg.ra));
  Alcotest.(check int) "no stubs" 0 (List.length stubs)

let test_emit_resume_map () =
  let e, _ =
    translate [ Isa.Instr.Alui (Add, reg 1, reg 1, 1); Isa.Instr.Jal 0x3000 ]
  in
  (* [add][jal][pad][island] *)
  Alcotest.(check int) "body resumes at own vaddr" 0x1000 e.resume.(0);
  Alcotest.(check int) "jal resumes re-executing" 0x1004 e.resume.(1);
  Alcotest.(check int) "pad resumes at return point" 0x1008 e.resume.(2);
  Alcotest.(check int) "island resumes at target" 0x3000 e.resume.(3)

let test_emit_internal_jmp () =
  (* jmp back to the chunk's first instruction (proc-mode idiom) *)
  let chunk =
    chunk_of [ Isa.Instr.Alui (Add, reg 1, reg 1, 1); Isa.Instr.Jmp 0x1000 ]
  in
  let e =
    Softcache.Rewriter.translate
      (Softcache.Rewriter.layout chunk)
      ~block_id:1 ~base:0x20000
      ~resident:(fun _ -> None)
      ~alloc_stub:(fun _ -> Alcotest.fail "no stubs for internal jmp")
  in
  Alcotest.(check bool) "internal jmp direct" true
    (Isa.Encode.decode (words e).(1) = Some (Isa.Instr.Jmp 0x20000))

(* A call before the last word shifts every later word by its landing
   pad: the pad jumps to the next source word, and an internal branch
   back over the call is measured in emitted words. *)
let test_emit_call_shifts_offsets () =
  let e, stubs =
    translate
      [
        Isa.Instr.Jal 0x3000;
        Isa.Instr.Alui (Add, reg 1, reg 1, 1);
        Isa.Instr.Br (Eq, reg 1, reg 2, -2);
        Isa.Instr.Halt;
      ]
  in
  (* [jal island][pad][add][br -> 0][halt][island] *)
  Alcotest.(check (list string))
    "emitted words"
    (List.map Isa.Instr.to_string
       [
         Isa.Instr.Jal (0x20000 + 20);
         Isa.Instr.Jmp (0x20000 + 8);
         Isa.Instr.Alui (Add, reg 1, reg 1, 1);
         Isa.Instr.Br (Eq, reg 1, reg 2, -3);
         Isa.Instr.Halt;
         Isa.Instr.Trap 0;
       ])
    (Array.to_list
       (Array.map
          (fun w -> Isa.Instr.to_string (Isa.Encode.decode_exn w))
          (words e)));
  Alcotest.(check int) "one stub: the call's exit" 1 (List.length stubs)

(* Structural invariants over random chunks: the emission always
   matches the layout size, every word decodes, every stub site lies
   inside the block, and resume entries are plausible. *)
let gen_chunk_instr =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun k -> Isa.Instr.Alui (Add, Isa.Reg.r 1, Isa.Reg.r 2, k))
             (int_bound 100));
        (2, map (fun o -> Isa.Instr.Br (Eq, Isa.Reg.r 1, Isa.Reg.r 2, o - 8))
             (int_bound 16));
        (1, map (fun t -> Isa.Instr.Jmp (0x2000 + (4 * t))) (int_bound 64));
        (1, map (fun t -> Isa.Instr.Jal (0x2000 + (4 * t))) (int_bound 64));
        (1, return (Isa.Instr.Jr Isa.Reg.ra));
        (1, return (Isa.Instr.Jr (Isa.Reg.r 7)));
        (1, return (Isa.Instr.Jalr (Isa.Reg.ra, Isa.Reg.r 7)));
        (1, return Isa.Instr.Halt);
      ])

let test_rewriter_invariants =
  QCheck.Test.make ~count:300 ~name:"rewriter structural invariants"
    QCheck.(
      make
        ~print:(fun l ->
          String.concat "; " (List.map Isa.Instr.to_string l))
        Gen.(list_size (int_range 1 20) gen_chunk_instr))
    (fun instrs ->
      (* basic-block style: cut at the first terminator, keep at least
         one instruction *)
      let rec cut acc = function
        | [] -> List.rev acc
        | i :: rest ->
          if Isa.Encode.form (Isa.Encode.encode i) <> Isa.Encode.Plain then
            List.rev (i :: acc)
          else cut (i :: acc) rest
      in
      let instrs = cut [] instrs in
      let chunk = chunk_of instrs in
      let expect = Softcache.Rewriter.layout_words chunk in
      let stubs = ref [] in
      let alloc make =
        let k = List.length !stubs in
        stubs := make k :: !stubs;
        k
      in
      let base = 0x20000 in
      let e =
        Softcache.Rewriter.translate
          (Softcache.Rewriter.layout chunk)
          ~block_id:1 ~base
          ~resident:(fun v -> if v land 8 = 0 then Some (2, 0x30000) else None)
          ~alloc_stub:alloc
      in
      let total = Bytes.length e.payload / 4 in
      let in_block a = a >= base && a < base + (4 * total) in
      total = expect
      && Array.for_all (fun w -> Isa.Encode.decode w <> None) (words e)
      && Array.for_all (fun rv -> rv >= 0 && rv land 3 = 0) e.resume
      && List.for_all
           (fun s ->
             match (s : Softcache.Stub.t) with
             | Softcache.Stub.Exit x -> in_block x.site_paddr
             | Softcache.Stub.Icall x -> in_block x.pad_paddr
             | Softcache.Stub.Computed _ -> true
             | Softcache.Stub.Ret_stub _ | Softcache.Stub.Plt _ ->
               false (* never emitted here *))
           !stubs
      && List.for_all (fun (p, _) -> in_block p) e.pads
      && List.for_all (fun (tb, site, _, _) -> tb = 2 && in_block site) e.bound)

(* ------------------------------------------------------------------ *)
(* Tcache bookkeeping *)

let block ~id ~vaddr ~paddr ~words =
  {
    Softcache.Tcache.id;
    vaddr;
    paddr;
    words;
    orig_words = words;
    incoming = [];
    pads = [];
    resume = Array.make words vaddr;
    stubs = [];
    installed_at = 0;
    seq = 0;
    entered = -1;
    prior = 3;
  }

let test_tcache_register_lookup () =
  let tc = Softcache.Tcache.create ~base:0x20000 ~bytes:1024 in
  let b = block ~id:1 ~vaddr:0x1000 ~paddr:0x20000 ~words:4 in
  Softcache.Tcache.register tc b;
  Alcotest.(check bool) "found by vaddr" true
    (Softcache.Tcache.lookup tc 0x1000 <> None);
  Alcotest.(check bool) "found by id" true (Softcache.Tcache.is_alive tc 1);
  Softcache.Tcache.remove tc b;
  Alcotest.(check bool) "gone" true (Softcache.Tcache.lookup tc 0x1000 = None);
  Alcotest.(check bool) "id gone" false (Softcache.Tcache.is_alive tc 1)

let test_tcache_fifo_wrap_evicts () =
  let tc = Softcache.Tcache.create ~base:0x20000 ~bytes:64 in
  (* fill: 4 blocks x 4 words = 64 bytes *)
  for i = 0 to 3 do
    match Softcache.Tcache.alloc tc ~words:4 with
    | Ok (p, []) ->
      Softcache.Tcache.register tc
        (block ~id:i ~vaddr:(0x1000 + (16 * i)) ~paddr:p ~words:4)
    | _ -> Alcotest.fail "unexpected eviction while filling"
  done;
  (* the next allocation wraps and evicts the first block *)
  match Softcache.Tcache.alloc tc ~words:4 with
  | Ok (p, [ victim ]) ->
    Alcotest.(check int) "wraps to base" 0x20000 p;
    Alcotest.(check int) "evicts oldest" 0 victim.id
  | _ -> Alcotest.fail "expected one eviction"

(* Regression: pin crowding is [`Full], not [`Too_large] — a chunk
   that would fit an empty region but cannot be placed because pinned
   blocks obstruct every candidate position must not be reported as
   exceeding capacity. *)
let test_tcache_pin_crowding_full () =
  let tc = Softcache.Tcache.create ~base:0x20000 ~bytes:64 in
  for i = 0 to 3 do
    match Softcache.Tcache.alloc tc ~words:4 with
    | Ok (p, []) ->
      let b = block ~id:i ~vaddr:(0x1000 + (16 * i)) ~paddr:p ~words:4 in
      Softcache.Tcache.register tc b;
      Softcache.Tcache.pin tc b
    | _ -> Alcotest.fail "unexpected eviction while filling"
  done;
  (match Softcache.Tcache.alloc tc ~words:4 with
  | Error `Full -> ()
  | Error `Too_large ->
    Alcotest.fail "pin crowding misreported as Too_large"
  | Ok _ -> Alcotest.fail "allocated over pinned blocks");
  (* capacity overflow is still distinguished *)
  match Softcache.Tcache.alloc tc ~words:100 with
  | Error `Too_large -> ()
  | _ -> Alcotest.fail "expected Too_large for oversize chunk"

(* and at controller level: filling the tcache with pins must surface
   as Tcache_too_small, never Chunk_too_large *)
let test_controller_pin_crowding () =
  let b = Isa.Builder.create "pins" in
  let main = Isa.Builder.new_label b in
  Isa.Builder.entry b main;
  let labels = List.init 32 (fun _ -> Isa.Builder.new_label b) in
  List.iteri
    (fun i l ->
      Isa.Builder.func b (Printf.sprintf "f%d" i) l (fun () ->
          for k = 1 to 6 do
            Isa.Builder.ins b (Isa.Instr.Alui (Add, reg 2, reg 2, k))
          done;
          Isa.Builder.ins b (Isa.Instr.Jr Isa.Reg.ra)))
    labels;
  Isa.Builder.func b "main" main (fun () ->
      Isa.Builder.ins b (Isa.Instr.Out (reg 2));
      Isa.Builder.ins b Isa.Instr.Halt);
  let img = Isa.Builder.build b in
  let cfg =
    Softcache.Config.make ~tcache_bytes:512
      ~chunking:Softcache.Config.Procedure ()
  in
  let ctrl = Softcache.Controller.create cfg img in
  Softcache.Controller.start ctrl;
  let addrs =
    List.filter_map
      (fun (s : Isa.Image.symbol) ->
        if String.length s.sym_name > 0 && s.sym_name.[0] = 'f' then
          Some s.sym_addr
        else None)
      img.symbols
  in
  let rec go = function
    | [] -> Alcotest.fail "32 pins never filled a 512-byte tcache"
    | a :: rest -> (
      match Softcache.Controller.pin ctrl a with
      | () -> go rest
      | exception Softcache.Controller.Tcache_too_small -> ()
      | exception Softcache.Controller.Chunk_too_large _ ->
        Alcotest.fail "pin crowding misreported as Chunk_too_large")
  in
  go addrs

let test_tcache_too_large () =
  let tc = Softcache.Tcache.create ~base:0x20000 ~bytes:64 in
  (match Softcache.Tcache.alloc tc ~words:100 with
  | Error `Too_large -> ()
  | _ -> Alcotest.fail "expected Too_large");
  match Softcache.Tcache.alloc_append tc ~words:100 with
  | Error `Too_large -> ()
  | _ -> Alcotest.fail "expected Too_large (append)"

let test_tcache_append_full () =
  let tc = Softcache.Tcache.create ~base:0x20000 ~bytes:64 in
  (match Softcache.Tcache.alloc_append tc ~words:12 with
  | Ok _ -> ()
  | _ -> Alcotest.fail "first append fits");
  match Softcache.Tcache.alloc_append tc ~words:8 with
  | Error `Full -> ()
  | _ -> Alcotest.fail "expected Full"

let test_tcache_persistent_shrinks_space () =
  let tc = Softcache.Tcache.create ~base:0x20000 ~bytes:64 in
  (match Softcache.Tcache.alloc_persistent tc ~words:2 with
  | Ok (p, []) ->
    Alcotest.(check int) "from the top" (0x20000 + 64 - 8) p;
    Alcotest.(check int) "persist_base moved" (0x20000 + 56)
      (Softcache.Tcache.persist_base tc)
  | _ -> Alcotest.fail "persistent alloc failed");
  (* a 16-word block no longer fits in the remaining 56 bytes *)
  match Softcache.Tcache.alloc tc ~words:16 with
  | Error `Too_large -> ()
  | _ -> Alcotest.fail "expected Too_large after persistent shrink"

let test_tcache_persistent_evicts_overlap () =
  let tc = Softcache.Tcache.create ~base:0x20000 ~bytes:64 in
  (match Softcache.Tcache.alloc tc ~words:16 with
  | Ok (p, []) ->
    Softcache.Tcache.register tc (block ~id:9 ~vaddr:0x1000 ~paddr:p ~words:16)
  | _ -> Alcotest.fail "fill failed");
  match Softcache.Tcache.alloc_persistent tc ~words:1 with
  | Ok (_, [ victim ]) -> Alcotest.(check int) "overlap evicted" 9 victim.id
  | _ -> Alcotest.fail "expected the resident block to be evicted"

let test_tcache_reset_keeps_persistent () =
  let tc = Softcache.Tcache.create ~base:0x20000 ~bytes:64 in
  ignore (Softcache.Tcache.alloc_persistent tc ~words:2);
  (match Softcache.Tcache.alloc tc ~words:4 with
  | Ok (p, _) ->
    Softcache.Tcache.register tc (block ~id:3 ~vaddr:0x1000 ~paddr:p ~words:4)
  | _ -> Alcotest.fail "alloc failed");
  let former = Softcache.Tcache.reset tc in
  Alcotest.(check int) "one former resident" 1 (List.length former);
  Alcotest.(check int) "persistent area survives flush" (0x20000 + 56)
    (Softcache.Tcache.persist_base tc);
  Alcotest.(check int) "empty" 0 (Softcache.Tcache.resident_blocks tc)

let test_tcache_occupancy () =
  let tc = Softcache.Tcache.create ~base:0x20000 ~bytes:1024 in
  ignore (Softcache.Tcache.alloc_persistent tc ~words:1);
  (match Softcache.Tcache.alloc tc ~words:10 with
  | Ok (p, _) ->
    Softcache.Tcache.register tc (block ~id:1 ~vaddr:0x1000 ~paddr:p ~words:10)
  | _ -> Alcotest.fail "alloc failed");
  Alcotest.(check int) "blocks + stub words" ((10 * 4) + 4)
    (Softcache.Tcache.occupied_bytes tc);
  Alcotest.(check int) "map entries" 1 (Softcache.Tcache.map_entries tc)

(* Regression: each CPU parked in a victim is redirected once, through
   the resume address captured when the eviction began. A's return
   stub is carved off the top of the arena, inside B (which ends where
   the stub area starts), so testing the redirected pc against the
   remaining victims would move it again, to B's resume address. *)
let test_evict_redirects_parked_cpu_once () =
  let ctrl =
    Softcache.Controller.create
      (Softcache.Config.make ~tcache_bytes:256 ())
      (image_of [ Isa.Instr.Halt ] ())
  in
  let victim ~id ~vaddr ~paddr =
    {
      (block ~id ~vaddr ~paddr ~words:4) with
      resume = Array.init 4 (fun i -> vaddr + (4 * i));
    }
  in
  let a = victim ~id:0 ~vaddr:0x1000 ~paddr:0x10000 in
  let b = victim ~id:1 ~vaddr:0x1020 ~paddr:0x100f0 in
  Alcotest.(check int) "B ends at the stub area" (b.paddr + 16)
    (Softcache.Tcache.persist_base ctrl.tc);
  ctrl.cpu.pc <- 0x10004;
  Softcache.Cc_evict.process_evicted ctrl
    ~reason_of:(fun _ -> Softcache.Policy.Victim)
    [ a; b ];
  Alcotest.(check int) "parked on the return stub for 0x1004"
    (fst (Hashtbl.find ctrl.ret_stubs 0x1004))
    ctrl.cpu.pc

(* A transport hook (a fleet MC's) that replies without the demand
   segment is a broken server: the miss raises a typed invariant naming
   the chunk, not an anonymous assertion. *)
let test_transport_reply_without_demand () =
  let img = prog_sum 10 in
  let ctrl =
    Softcache.Controller.create (Softcache.Config.make ~tcache_bytes:1024 ()) img
  in
  ctrl.mc_transport <-
    Some (fun ~vaddr:_ ~prefetch_vaddrs:_ ~payloads:_ -> Ok (100, []));
  match Softcache.Controller.run ctrl with
  | _ -> Alcotest.fail "a reply without the demand segment went unnoticed"
  | exception Softcache.Controller.Internal_invariant_broken { chunk; _ } ->
    Alcotest.(check int) "names the demanded chunk" img.entry chunk

(* The placement index against a brute-force scan: after every step of
   a random sequence of allocations (each placement registered as a
   block), pins, leases, removals and flushes, [overlapping] over a
   random range and over the whole region lists exactly the resident
   blocks meeting it, in paddr order, and [occupied_bytes] equals a
   fold over the blocks and the stub areas. *)
type tc_op =
  | Fifo of int * int  (* shard, words *)
  | Seeded of int * int * int  (* shard, victim pick, words *)
  | Append of int * int
  | Persistent of int * int
  | Pin of int  (* pick among the resident blocks *)
  | Lease of int
  | Remove of int
  | Reset

let tc_op_name = function
  | Fifo (s, w) -> Printf.sprintf "fifo s%d %dw" s w
  | Seeded (s, k, w) -> Printf.sprintf "seeded s%d #%d %dw" s k w
  | Append (s, w) -> Printf.sprintf "append s%d %dw" s w
  | Persistent (s, w) -> Printf.sprintf "persistent s%d %dw" s w
  | Pin k -> Printf.sprintf "pin #%d" k
  | Lease k -> Printf.sprintf "lease #%d" k
  | Remove k -> Printf.sprintf "remove #%d" k
  | Reset -> "reset"

let gen_tc_step =
  QCheck.Gen.(
    let shard = int_bound 1 and words = int_range 1 12 and pick = int_bound 63 in
    pair
      (frequency
         [
           (4, map2 (fun s w -> Fifo (s, w)) shard words);
           (2, map3 (fun s k w -> Seeded (s, k, w)) shard pick words);
           (3, map2 (fun s w -> Append (s, w)) shard words);
           (1, map2 (fun s w -> Persistent (s, w)) shard (int_range 1 2));
           (1, map (fun k -> Pin k) pick);
           (1, map (fun k -> Lease k) pick);
           (2, map (fun k -> Remove k) pick);
           (1, return Reset);
         ])
      (* probe range: byte offset from the base (straddling both ends of
         the region) and length *)
      (pair (int_range (-16) 271) (int_range 0 64)))

let test_placement_index =
  let module T = Softcache.Tcache in
  QCheck.Test.make ~count:300 ~name:"placement index = brute-force scan"
    QCheck.(
      make
        ~print:(fun (shards, steps) ->
          Printf.sprintf "%d shard(s): %s" shards
            (String.concat "; "
               (List.map
                  (fun (op, (lo, len)) ->
                    Printf.sprintf "%s ?[%d,+%d)" (tc_op_name op) lo len)
                  steps)))
        Gen.(pair (int_range 1 2) (list_size (int_range 1 60) gen_tc_step)))
    (fun (shards, steps) ->
      let base = 0x20000 in
      let tc = T.create_sharded ~shards ~base ~bytes:256 in
      let next_id = ref 0 in
      let by_id = List.sort (fun (a : T.block) b -> compare a.id b.id) in
      let by_paddr =
        List.sort (fun (a : T.block) b -> compare a.paddr b.paddr)
      in
      let nth_resident k =
        match by_id (T.blocks tc) with
        | [] -> None
        | bs -> Some (List.nth bs (k mod List.length bs))
      in
      let place words = function
        | Ok p ->
          let id = !next_id in
          incr next_id;
          T.register tc (block ~id ~vaddr:(0x1000 + (4 * id)) ~paddr:p ~words)
        | Error _ -> ()
      in
      let apply = function
        | Fifo (s, words) ->
          place words
            (Result.map fst (T.alloc ~shard:(s mod shards) tc ~words))
        | Seeded (s, k, words) ->
          let seed =
            match nth_resident k with
            | Some b -> b.paddr
            | None -> base + (4 * k)
          in
          place words
            (Result.map fst
               (T.alloc ~shard:(s mod shards) ~seed tc ~words))
        | Append (s, words) ->
          place words (T.alloc_append ~shard:(s mod shards) tc ~words)
        | Persistent (s, words) ->
          ignore (T.alloc_persistent ~shard:(s mod shards) tc ~words)
        | Pin k -> Option.iter (T.pin tc) (nth_resident k)
        | Lease k -> Option.iter (T.lease tc) (nth_resident k)
        | Remove k -> Option.iter (T.remove tc) (nth_resident k)
        | Reset -> ignore (T.reset tc)
      in
      let ids = List.map (fun (b : T.block) -> b.id) in
      let agrees lo hi =
        (* an empty range meets no block *)
        let brute =
          List.filter
            (fun (b : T.block) ->
              lo < hi && b.paddr < hi && b.paddr + (4 * b.words) > lo)
            (T.blocks tc)
        in
        ids (T.overlapping tc lo hi) = ids (by_paddr brute)
      in
      let occupancy_folds () =
        let stubs = ref 0 in
        for sh = 0 to shards - 1 do
          stubs := !stubs + (snd (T.shard_bounds tc sh) - T.persist_base ~shard:sh tc)
        done;
        T.occupied_bytes tc
        = List.fold_left
            (fun acc (b : T.block) -> acc + (4 * b.words))
            !stubs (T.blocks tc)
      in
      List.for_all
        (fun (op, (lo, len)) ->
          apply op;
          agrees (base + lo) (base + lo + len)
          && agrees base (T.top tc)
          && occupancy_folds ())
        steps)

(* The index's block column against a brute-force scan of
   [Tcache.blocks]: after every step of a random sequence of placements
   (each registered as a fresh block), persistent growth, removals (of
   any block ever registered: removing a dead one changes nothing) and
   flushes, on one or two shards of 64 to 512 bytes, [covering] at every
   word, [owns] for every id ever registered (and the vacant column's
   -1), [overlapping] over a random range, [sweep_next] for each shard
   and for none, and the occupancy count agree with the residents. *)
let index_cases_executed = ref 0

let gen_index_step =
  QCheck.Gen.(
    let shard = int_bound 1 and words = int_range 1 12 and pick = int_bound 63 in
    triple
      (frequency
         [
           (4, map2 (fun s w -> Fifo (s, w)) shard words);
           (2, map3 (fun s k w -> Seeded (s, k, w)) shard pick words);
           (3, map2 (fun s w -> Append (s, w)) shard words);
           (1, map2 (fun s w -> Persistent (s, w)) shard (int_range 1 2));
           (3, map (fun k -> Remove k) pick);
           (1, return Reset);
         ])
      (pair (int_range (-16) 527) (int_range 0 64))
      (int_bound 2) (* which ids the sweep's filter rejects *))

let index_names_blocks (shards, words, steps) =
  let module T = Softcache.Tcache in
  incr index_cases_executed;
  let base = 0x20000 in
  let tc = T.create_sharded ~shards ~base ~bytes:(4 * words) in
  let ever = ref [] and next_id = ref 0 in
  let place words = function
    | Ok p ->
      let b = block ~id:!next_id ~vaddr:(0x1000 + (4 * !next_id)) ~paddr:p ~words in
      incr next_id;
      T.register tc b;
      ever := b :: !ever
    | Error _ -> ()
  in
  let pick bs k =
    match List.sort (fun (a : T.block) b -> compare a.id b.id) bs with
    | [] -> None
    | bs -> Some (List.nth bs (k mod List.length bs))
  in
  let apply = function
    | Fifo (s, words) ->
      place words (Result.map fst (T.alloc ~shard:(s mod shards) tc ~words))
    | Seeded (s, k, words) ->
      let seed =
        match pick (T.blocks tc) k with
        | Some b -> b.paddr
        | None -> base + (4 * k)
      in
      place words
        (Result.map fst (T.alloc ~shard:(s mod shards) ~seed tc ~words))
    | Append (s, words) ->
      place words (T.alloc_append ~shard:(s mod shards) tc ~words)
    | Persistent (s, words) ->
      ignore (T.alloc_persistent ~shard:(s mod shards) tc ~words)
    | Remove k -> Option.iter (T.remove tc) (pick !ever k)
    | Reset -> ignore (T.reset tc)
    | Pin _ | Lease _ -> ()
  in
  let id_of = Option.map (fun (b : T.block) -> b.id) in
  let ends (b : T.block) = b.paddr + (4 * b.words) in
  let words_agree () =
    let residents = T.blocks tc in
    let ids = -1 :: List.map (fun (b : T.block) -> b.id) !ever in
    let rec from a =
      a >= T.top tc + 8
      ||
      let want =
        id_of
          (List.find_opt
             (fun (b : T.block) -> b.paddr <= a && a < ends b)
             residents)
      in
      id_of (T.covering tc a) = want
      && List.for_all (fun id -> T.owns tc ~id a = (want = Some id)) ids
      && from (a + 4)
    in
    from (base - 8)
  in
  let overlapping_agrees lo hi =
    let brute =
      List.filter
        (fun (b : T.block) -> lo < hi && b.paddr < hi && ends b > lo)
        (T.blocks tc)
    in
    List.map (fun (b : T.block) -> b.id) (T.overlapping tc lo hi)
    = List.map
        (fun (b : T.block) -> b.id)
        (List.sort (fun (a : T.block) b -> compare a.paddr b.paddr) brute)
  in
  let sweeps_agree salt =
    let lowest =
      List.fold_left
        (fun best (b : T.block) ->
          match best with
          | Some (c : T.block) when c.paddr <= b.paddr -> best
          | _ -> Some b)
        None
    in
    List.for_all
      (fun (ok : T.block -> bool) ->
        List.for_all
          (fun shard ->
            let ptr = T.alloc_ptr ?shard tc in
            let mine =
              List.filter
                (fun (b : T.block) ->
                  ok b
                  &&
                  match shard with
                  | None -> true
                  | Some s -> T.shard_of_paddr tc b.paddr = s)
                (T.blocks tc)
            in
            let brute =
              match lowest (List.filter (fun b -> ends b > ptr) mine) with
              | Some _ as ahead -> ahead
              | None -> lowest mine
            in
            id_of (T.sweep_next ?shard tc ~ok) = id_of brute)
          (None :: List.init shards Option.some))
      [ (fun _ -> true); (fun b -> (b.id + salt) mod 3 <> 0) ]
  in
  let occupancy_folds () =
    let stubs = ref 0 in
    for sh = 0 to shards - 1 do
      stubs :=
        !stubs + (snd (T.shard_bounds tc sh) - T.persist_base ~shard:sh tc)
    done;
    T.occupied_bytes tc
    = List.fold_left (fun acc b -> acc + (4 * b.T.words)) !stubs (T.blocks tc)
  in
  List.for_all
    (fun (op, (lo, len), salt) ->
      apply op;
      words_agree ()
      && overlapping_agrees (base + lo) (base + lo + len)
      && sweeps_agree salt
      && occupancy_folds ())
    steps

let test_index_names_blocks () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:300 ~name:"index names its blocks"
       (QCheck.make
          ~print:(fun (shards, words, steps) ->
            Printf.sprintf "%d shard(s), %d bytes: %s" shards (4 * words)
              (String.concat "; "
                 (List.map
                    (fun (op, (lo, len), salt) ->
                      Printf.sprintf "%s ?[%d,+%d) ~%d" (tc_op_name op) lo len
                        salt)
                    steps)))
          QCheck.Gen.(
            triple (int_range 1 2) (int_range 16 128)
              (list_size (int_range 1 40) gen_index_step)))
       index_names_blocks);
  (* the property must not silently shrink: the counter lives inside it *)
  Alcotest.(check bool)
    (Printf.sprintf "qcheck executed %d cases (>= 300)" !index_cases_executed)
    true
    (!index_cases_executed >= 300)

let () =
  Alcotest.run "core-units"
    [
      ( "chunker",
        [
          Alcotest.test_case "basic block extent" `Quick test_chunk_basic_block;
          Alcotest.test_case "procedure extent" `Quick test_chunk_procedure;
          Alcotest.test_case "bad addresses" `Quick test_chunk_bad_addresses;
          Alcotest.test_case "rejects traps" `Quick test_chunk_rejects_trap;
        ] );
      ( "rewriter-layout",
        [
          Alcotest.test_case "sizes per terminator" `Quick test_layout_sizes;
          Alcotest.test_case "internal branch" `Quick
            test_layout_internal_branch;
        ] );
      ( "rewriter-emission",
        [
          QCheck_alcotest.to_alcotest test_rewriter_invariants;
          Alcotest.test_case "verbatim body" `Quick test_emit_verbatim_body;
          Alcotest.test_case "trap in a chunk is a Rewrite_error" `Quick
            test_emit_rejects_trap;
          Alcotest.test_case "unbound jmp traps" `Quick
            test_emit_unbound_jmp_is_trap;
          Alcotest.test_case "bound jmp direct" `Quick
            test_emit_bound_jmp_is_direct;
          Alcotest.test_case "call shape (jal+pad+island)" `Quick
            test_emit_call_shape;
          Alcotest.test_case "branch shape" `Quick test_emit_branch_shape;
          Alcotest.test_case "computed jump" `Quick test_emit_computed_jump;
          Alcotest.test_case "return verbatim" `Quick
            test_emit_return_verbatim;
          Alcotest.test_case "resume map" `Quick test_emit_resume_map;
          Alcotest.test_case "internal jmp" `Quick test_emit_internal_jmp;
          Alcotest.test_case "a call shifts later offsets" `Quick
            test_emit_call_shifts_offsets;
        ] );
      ( "tcache",
        [
          Alcotest.test_case "register/lookup" `Quick
            test_tcache_register_lookup;
          Alcotest.test_case "fifo wrap evicts" `Quick
            test_tcache_fifo_wrap_evicts;
          Alcotest.test_case "too large" `Quick test_tcache_too_large;
          Alcotest.test_case "pin crowding is Full" `Quick
            test_tcache_pin_crowding_full;
          Alcotest.test_case "pin crowding raises Tcache_too_small" `Quick
            test_controller_pin_crowding;
          Alcotest.test_case "append full" `Quick test_tcache_append_full;
          Alcotest.test_case "persistent shrinks space" `Quick
            test_tcache_persistent_shrinks_space;
          Alcotest.test_case "persistent evicts overlap" `Quick
            test_tcache_persistent_evicts_overlap;
          Alcotest.test_case "reset keeps persistent" `Quick
            test_tcache_reset_keeps_persistent;
          Alcotest.test_case "occupancy accounting" `Quick
            test_tcache_occupancy;
          Alcotest.test_case "parked CPU redirected once" `Quick
            test_evict_redirects_parked_cpu_once;
          Alcotest.test_case "transport reply without demand is typed" `Quick
            test_transport_reply_without_demand;
          QCheck_alcotest.to_alcotest test_placement_index;
          Alcotest.test_case "index column, 300 cases" `Quick
            test_index_names_blocks;
        ] );
    ]
