exception Rewrite_error of string

type emission = {
  words : int array;
  bound : (int * int * int * int) list;
  pads : (int * int) list;
  resume : int array;
  overhead_words : int;
}

let err fmt = Format.kasprintf (fun s -> raise (Rewrite_error s)) fmt

let inline_words : Isa.Instr.t -> int = function
  | Br _ -> 1
  | Jal _ -> 2 (* call + landing pad *)
  | Jalr _ -> 2 (* lookup trap + landing pad *)
  | _ -> 1

(* Chunks whose last instruction can fall off the end need a
   fall-through slot. Calls continue through their landing pad. *)
let needs_fall_slot : Isa.Instr.t -> bool = function
  | Jmp _ | Jr _ | Halt | Jal _ | Jalr _ -> false
  | Br _ | _ -> true

let is_internal (c : Chunker.t) tv =
  let len = Array.length c.instrs in
  tv >= c.vaddr && tv < c.vaddr + (4 * len) && (tv - c.vaddr) land 3 = 0

(* Offsets of each source instruction in the emission, plus the
   fall-slot offset (-1 if none) and the first island offset.
   [plt_of], when given, is the PLT slot map of function-granularity
   mode: an external [Jal] whose target has a slot calls through it
   directly and needs no island. *)
let layout ?(plt_of = fun _ -> None) (c : Chunker.t) =
  let len = Array.length c.instrs in
  let off = Array.make len 0 in
  let pos = ref 0 in
  for i = 0 to len - 1 do
    off.(i) <- !pos;
    pos := !pos + inline_words c.instrs.(i)
  done;
  let fall_off = if needs_fall_slot c.instrs.(len - 1) then !pos else -1 in
  if fall_off >= 0 then incr pos;
  let islands_start = !pos in
  (* islands: one per Br/Jal with an external target (minus PLT calls) *)
  let n_islands = ref 0 in
  Array.iteri
    (fun idx i ->
      let vi = c.vaddr + (4 * idx) in
      match (i : Isa.Instr.t) with
      | Br (_, _, _, boff) when not (is_internal c (vi + (4 * boff))) ->
        incr n_islands
      | Jal tv when (not (is_internal c tv)) && plt_of tv = None ->
        incr n_islands
      | _ -> ())
    c.instrs;
  (off, fall_off, islands_start, islands_start + !n_islands)

let layout_words ?plt_of c =
  let _, _, _, total = layout ?plt_of c in
  total

let fits = Isa.Encode.branch_offset_fits
let enc = Isa.Encode.encode

let translate ?(plt_of = fun _ -> None) (c : Chunker.t) ~block_id ~base
    ~resident ~alloc_stub =
  let len = Array.length c.instrs in
  let off, fall_off, islands_start, total = layout ~plt_of c in
  let words = Array.make total (enc Isa.Instr.Nop) in
  (* source vaddr at which execution can safely resume for each emitted
     word; pads resume at their return target, islands at the branch
     target control had already committed to *)
  let resume = Array.make total (c.vaddr + (4 * len)) in
  let bound = ref [] in
  let pads = ref [] in
  let next_island = ref islands_start in
  let off_of tv = off.((tv - c.vaddr) lsr 2) in
  let paddr_of o = base + (4 * o) in
  let internal_branch_off oi tv =
    let d = off_of tv - oi in
    if not (fits d) then err "internal branch offset %d does not fit" d;
    d
  in
  (* A word-slot exit (fall slots, pads, plain jumps): bind directly if
     the target is resident, otherwise plant a trap. *)
  let emit_word_slot o target =
    resume.(o) <- target;
    let site = paddr_of o in
    let k =
      alloc_stub (fun k ->
          Stub.Exit
            {
              block = block_id;
              site_paddr = site;
              kind = Stub.Patch_jmp;
              target;
              revert_word = enc (Isa.Instr.Trap k);
            })
    in
    match resident target with
    | Some (tb, tp) ->
      words.(o) <- enc (Isa.Instr.Jmp tp);
      bound := (tb, site, enc (Isa.Instr.Trap k), k) :: !bound
    | None -> words.(o) <- enc (Isa.Instr.Trap k)
  in
  let emit_pad o ret_vaddr ~ret_internal =
    pads := (paddr_of o, ret_vaddr) :: !pads;
    resume.(o) <- ret_vaddr;
    if ret_internal then
      words.(o) <- enc (Isa.Instr.Jmp (paddr_of (off_of ret_vaddr)))
    else emit_word_slot o ret_vaddr
  in
  Array.iteri
    (fun idx i ->
      let vi = c.vaddr + (4 * idx) in
      let oi = off.(idx) in
      resume.(oi) <- vi;
      let site = paddr_of oi in
      match (i : Isa.Instr.t) with
      | Trap _ -> err "trap word at 0x%x in a chunk (the chunker rejects these)" vi
      | Br (cond, r1, r2, boff) ->
        let tv = vi + (4 * boff) in
        if is_internal c tv then
          words.(oi) <-
            enc (Isa.Instr.Br (cond, r1, r2, internal_branch_off oi tv))
        else begin
          let io = !next_island in
          incr next_island;
          resume.(io) <- tv;
          let to_island = Isa.Instr.Br (cond, r1, r2, io - oi) in
          if not (fits (io - oi)) then err "island out of branch range";
          let k =
            alloc_stub (fun _k ->
                Stub.Exit
                  {
                    block = block_id;
                    site_paddr = site;
                    kind = Stub.Patch_br;
                    target = tv;
                    revert_word = enc to_island;
                  })
          in
          words.(io) <- enc (Isa.Instr.Trap k);
          match resident tv with
          | Some (tb, tp) when fits ((tp - site) asr 2) ->
            words.(oi) <-
              enc (Isa.Instr.Br (cond, r1, r2, (tp - site) asr 2));
            bound := (tb, site, enc to_island, k) :: !bound
          | Some _ | None -> words.(oi) <- enc to_island
        end
      | Jmp tv ->
        if is_internal c tv then
          words.(oi) <- enc (Isa.Instr.Jmp (paddr_of (off_of tv)))
        else emit_word_slot oi tv
      | Jal tv ->
        let rv = vi + 4 in
        let ret_internal = idx < len - 1 in
        if is_internal c tv then
          words.(oi) <- enc (Isa.Instr.Jal (paddr_of (off_of tv)))
        else begin
          match plt_of tv with
          | Some slot ->
            (* function-granularity call: link to the pad as usual, jump
               through the callee's PLT slot — the slot is the only word
               the controller patches, so this site never reverts *)
            words.(oi) <- enc (Isa.Instr.Jal slot)
          | None -> (
            let io = !next_island in
            incr next_island;
            resume.(io) <- tv;
            let to_island = Isa.Instr.Jal (paddr_of io) in
            let k =
              alloc_stub (fun _k ->
                  Stub.Exit
                    {
                      block = block_id;
                      site_paddr = site;
                      kind = Stub.Patch_jal;
                      target = tv;
                      revert_word = enc to_island;
                    })
            in
            words.(io) <- enc (Isa.Instr.Trap k);
            match resident tv with
            | Some (tb, tp) ->
              words.(oi) <- enc (Isa.Instr.Jal tp);
              bound := (tb, site, enc to_island, k) :: !bound
            | None -> words.(oi) <- enc to_island)
        end;
        emit_pad (oi + 1) rv ~ret_internal
      | Jalr (rd, rs) ->
        let rv = vi + 4 in
        let k =
          alloc_stub (fun _k ->
              Stub.Icall { rd; rs; pad_paddr = paddr_of (oi + 1) })
        in
        words.(oi) <- enc (Isa.Instr.Trap k);
        emit_pad (oi + 1) rv ~ret_internal:(idx < len - 1)
      | Jr rs when Isa.Reg.equal rs Isa.Reg.ra ->
        (* procedure return: [ra] holds a landing-pad physical address *)
        words.(oi) <- enc i
      | Jr rs ->
        let k = alloc_stub (fun _k -> Stub.Computed { rs }) in
        words.(oi) <- enc (Isa.Instr.Trap k)
      | Halt | Alu _ | Alui _ | Lui _ | Ld _ | St _ | Ldb _ | Stb _ | Out _
      | Nop ->
        words.(oi) <- enc i)
    c.instrs;
  if fall_off >= 0 then emit_word_slot fall_off (c.vaddr + (4 * len));
  if !next_island <> total then
    err "chunk at 0x%x: emitted %d islands, layout reserved %d" c.vaddr
      (!next_island - islands_start)
      (total - islands_start);
  { words; bound = !bound; pads = !pads; resume; overhead_words = total - len }
