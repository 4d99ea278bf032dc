exception Rewrite_error of string

type 'b emission = {
  payload : Bytes.t;
  bound : ('b * int * int * int) list;
  pads : (int * int) list;
  resume : int array;
  overhead_words : int;
}

type layout = {
  chunk : Chunker.t;
  plt_of : int -> int option;
  off : int array;
      (* emitted offset of each source word; [||] while that offset is
         the word's own index, i.e. no call sits before the last word
         (always so in basic-block mode, where only the terminator can
         be a call) *)
  fall : int;  (* the fall-through slot's offset, -1 if none *)
  islands : int;  (* the first island's offset *)
  words : int;
}

let err fmt = Format.kasprintf (fun s -> raise (Rewrite_error s)) fmt

let is_internal (c : Chunker.t) tv =
  tv >= c.vaddr && tv < c.vaddr + (4 * c.len) && (tv - c.vaddr) land 3 = 0

let no_plt _ = None

let inline_words w =
  match Isa.Encode.form w with
  | Jal -> 2 (* call + landing pad *)
  | Jalr -> 2 (* lookup trap + landing pad *)
  | Invalid | Plain | Br | Jmp | Jr | Trap | Halt -> 1

(* One pass over the source words: their emitted size, then the
   fall-through slot if the chunk can run off its end (calls continue
   through their landing pad), then one island per [Br] or [Jal] with
   an external target, minus the calls [plt_of] routes through a PLT
   slot. A second pass records each word's offset only when a call
   before the last word shifts them. *)
let layout ?(plt_of = no_plt) (c : Chunker.t) =
  let len = c.len in
  let pos = ref 0 in
  let islands = ref 0 in
  let shifted = ref false in
  for i = 0 to len - 1 do
    let site = c.vaddr + (4 * i) in
    let w = Chunker.word c i in
    match Isa.Encode.form w with
    | Br ->
      incr pos;
      if not (is_internal c (Isa.Encode.branch_target ~site w)) then
        incr islands
    | Jal ->
      pos := !pos + 2;
      if i < len - 1 then shifted := true;
      let tv = Isa.Encode.static_target ~site w in
      if (not (is_internal c tv)) && Option.is_none (plt_of tv) then
        incr islands
    | Jalr ->
      pos := !pos + 2;
      if i < len - 1 then shifted := true
    | Invalid | Plain | Jmp | Jr | Trap | Halt -> incr pos
  done;
  let off =
    if not !shifted then [||]
    else begin
      let off = Array.make len 0 in
      for i = 1 to len - 1 do
        off.(i) <- off.(i - 1) + inline_words (Chunker.word c (i - 1))
      done;
      off
    end
  in
  let fall =
    match Isa.Encode.form (Chunker.word c (len - 1)) with
    | Jmp | Jr | Halt | Jal | Jalr -> -1
    | Invalid | Plain | Br | Trap -> !pos
  in
  if fall >= 0 then incr pos;
  { chunk = c; plt_of; off; fall; islands = !pos; words = !pos + !islands }

let offset l i = if Array.length l.off = 0 then i else l.off.(i)
let words l = l.words
let layout_words ?plt_of c = (layout ?plt_of c).words

let fits = Isa.Encode.branch_offset_fits

(* One translation in progress. A record rather than closures over
   locals: the miss path allocates it once. *)
type 'b emitter = {
  l : layout;
  base : int;
  block_id : int;
  resident : int -> ('b * int) option;
  alloc_stub : (int -> Stub.t) -> int;
  payload : Bytes.t;
  resume : int array;
      (* source vaddr at which execution can safely resume for each
         emitted word; pads resume at their return target, islands at
         the branch target control had already committed to *)
  mutable bound : ('b * int * int * int) list;
  mutable pads : (int * int) list;
  mutable next_island : int;
}

let set e o w = Bytes.set_int32_le e.payload (4 * o) (Int32.of_int w)
let paddr_of e o = e.base + (4 * o)
let off_of e tv = offset e.l ((tv - e.l.chunk.vaddr) lsr 2)

let internal_branch_off e oi tv =
  let d = off_of e tv - oi in
  if not (fits d) then err "internal branch offset %d does not fit" d;
  d

let take_island e =
  let io = e.next_island in
  e.next_island <- io + 1;
  io

(* A word-slot exit (fall slots, pads, plain jumps): bind directly if
   the target is resident, otherwise plant a trap. *)
let emit_word_slot e o target =
  e.resume.(o) <- target;
  let site = paddr_of e o in
  let block = e.block_id in
  let k =
    e.alloc_stub (fun k ->
        Stub.Exit
          {
            block;
            site_paddr = site;
            kind = Stub.Patch_jmp;
            target;
            revert_word = Isa.Encode.trap k;
          })
  in
  match e.resident target with
  | Some (tb, tp) ->
    set e o (Isa.Encode.jmp tp);
    e.bound <- (tb, site, Isa.Encode.trap k, k) :: e.bound
  | None -> set e o (Isa.Encode.trap k)

let emit_pad e o ret_vaddr ~ret_internal =
  e.pads <- (paddr_of e o, ret_vaddr) :: e.pads;
  e.resume.(o) <- ret_vaddr;
  if ret_internal then
    set e o (Isa.Encode.jmp (paddr_of e (off_of e ret_vaddr)))
  else emit_word_slot e o ret_vaddr

(* The island at [io] of a direct exit at emitted offset [oi] aimed at
   the external [tv]: a trap to a new exit stub, which reverts the site
   to [to_island]. Returns the stub index. *)
let island_stub e ~oi ~io tv kind ~to_island =
  e.resume.(io) <- tv;
  let site = paddr_of e oi in
  let block = e.block_id in
  let k =
    e.alloc_stub (fun _k ->
        Stub.Exit
          {
            block;
            site_paddr = site;
            kind;
            target = tv;
            revert_word = to_island;
          })
  in
  set e io (Isa.Encode.trap k);
  k

(* Every non-control word is copied as it is; only control transfers
   are rewritten, field by field. Each emitted word is written exactly
   once: the source words' offsets, the pads after calls, the fall
   slot and every island the layout reserved (the last check below). *)
let translate l ~block_id ~base ~resident ~alloc_stub =
  let c = l.chunk in
  let len = c.len and total = l.words in
  let e =
    {
      l;
      base;
      block_id;
      resident;
      alloc_stub;
      payload = Bytes.create (4 * total);
      resume = Array.make total (c.vaddr + (4 * len));
      bound = [];
      pads = [];
      next_island = l.islands;
    }
  in
  for idx = 0 to len - 1 do
    let vi = c.vaddr + (4 * idx) in
    let oi = offset l idx in
    e.resume.(oi) <- vi;
    let w = Chunker.word c idx in
    match Isa.Encode.form w with
    | Invalid -> err "undecodable word 0x%08x at 0x%x in a chunk" w vi
    | Trap -> err "trap word at 0x%x in a chunk (the chunker rejects these)" vi
    | Br ->
      let tv = Isa.Encode.branch_target ~site:vi w in
      if is_internal c tv then
        set e oi (Isa.Encode.with_branch_offset w (internal_branch_off e oi tv))
      else begin
        let io = take_island e in
        if not (fits (io - oi)) then err "island out of branch range";
        let to_island = Isa.Encode.with_branch_offset w (io - oi) in
        let k = island_stub e ~oi ~io tv Stub.Patch_br ~to_island in
        let site = paddr_of e oi in
        match e.resident tv with
        | Some (tb, tp) when fits ((tp - site) asr 2) ->
          set e oi (Isa.Encode.with_branch_offset w ((tp - site) asr 2));
          e.bound <- (tb, site, to_island, k) :: e.bound
        | Some _ | None -> set e oi to_island
      end
    | Jmp ->
      let tv = Isa.Encode.static_target ~site:vi w in
      if is_internal c tv then
        set e oi (Isa.Encode.jmp (paddr_of e (off_of e tv)))
      else emit_word_slot e oi tv
    | Jal ->
      let tv = Isa.Encode.static_target ~site:vi w in
      (if is_internal c tv then
         set e oi (Isa.Encode.jal (paddr_of e (off_of e tv)))
       else
         match l.plt_of tv with
         | Some slot ->
           (* function-granularity call: link to the pad as usual, jump
              through the callee's PLT slot — the slot is the only word
              the controller patches, so this site never reverts *)
           set e oi (Isa.Encode.jal slot)
         | None -> (
           let io = take_island e in
           let to_island = Isa.Encode.jal (paddr_of e io) in
           let k = island_stub e ~oi ~io tv Stub.Patch_jal ~to_island in
           match e.resident tv with
           | Some (tb, tp) ->
             set e oi (Isa.Encode.jal tp);
             e.bound <- (tb, paddr_of e oi, to_island, k) :: e.bound
           | None -> set e oi to_island));
      emit_pad e (oi + 1) (vi + 4) ~ret_internal:(idx < len - 1)
    | Jalr ->
      let rd = Isa.Encode.reg25 w and rs = Isa.Encode.reg20 w in
      let pad_paddr = paddr_of e (oi + 1) in
      let k = alloc_stub (fun _k -> Stub.Icall { rd; rs; pad_paddr }) in
      set e oi (Isa.Encode.trap k);
      emit_pad e (oi + 1) (vi + 4) ~ret_internal:(idx < len - 1)
    | Jr ->
      let rs = Isa.Encode.reg25 w in
      if Isa.Reg.equal rs Isa.Reg.ra then
        (* procedure return: [ra] holds a landing-pad physical address *)
        set e oi w
      else
        let k = alloc_stub (fun _k -> Stub.Computed { rs }) in
        set e oi (Isa.Encode.trap k)
    | Halt | Plain -> set e oi w
  done;
  if l.fall >= 0 then emit_word_slot e l.fall (c.vaddr + (4 * len));
  if e.next_island <> total then
    err "chunk at 0x%x: emitted %d islands, layout reserved %d" c.vaddr
      (e.next_island - l.islands)
      (total - l.islands);
  {
    payload = e.payload;
    bound = e.bound;
    pads = e.pads;
    resume = e.resume;
    overhead_words = total - len;
  }
