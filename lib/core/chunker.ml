type source = Code of int array | Payload of Bytes.t
type t = { vaddr : int; source : source; first : int; len : int }

exception Bad_address of int
exception Trap_in_source of int

let max_chunk_instrs = 16384

let[@inline] word t i =
  if i < 0 || i >= t.len then invalid_arg "Chunker.word";
  match t.source with
  | Code a -> Array.unsafe_get a (t.first + i)
  | Payload b ->
    Int32.to_int (Bytes.get_int32_le b (4 * (t.first + i))) land 0xFFFFFFFF

(* The image word at [addr], an aligned text address. *)
let image_word (img : Isa.Image.t) addr =
  img.code.((addr - img.code_base) lsr 2)

(* The form of the image word at [addr], raising where decoding it
   would: [Bad_address] for a word with no decoding, [Trap_in_source]
   for a trap. *)
let form_at img addr =
  match Isa.Encode.form (image_word img addr) with
  | Isa.Encode.Invalid -> raise (Bad_address addr)
  | Isa.Encode.Trap -> raise (Trap_in_source addr)
  | f -> f

(* Raise as [form_at] at the first bad word of [v, v + 4n). *)
let check img v n =
  for i = 0 to n - 1 do
    ignore (form_at img (v + (4 * i)) : Isa.Encode.form)
  done

(* [n] plus the number of words from [addr] up to the first block
   terminator (inclusive), [limit] or [max_chunk_instrs] words in all,
   whichever comes first. *)
let rec scan_from img ~limit addr n =
  if addr >= limit || n >= max_chunk_instrs then n
  else
    match form_at img addr with
    | Isa.Encode.Plain -> scan_from img ~limit (addr + 4) (n + 1)
    | _ -> n + 1

let scan img v limit = scan_from img ~limit v 0

let view (img : Isa.Image.t) v len =
  if len = 0 then raise (Bad_address v);
  { vaddr = v; source = Code img.code; first = (v - img.code_base) lsr 2; len }

let chunk_at img mode v =
  if v land 3 <> 0 || not (Isa.Image.contains_code img v) then
    raise (Bad_address v);
  match mode with
  | Config.Basic_block -> view img v (scan img v (Isa.Image.code_end img))
  | Config.Procedure ->
    let limit =
      match Isa.Image.symbol_at img v with
      | Some s -> s.sym_addr + s.sym_size
      | None -> Isa.Image.code_end img
    in
    let n = min ((limit - v) / 4) max_chunk_instrs in
    check img v n;
    view img v n

let of_payload ~vaddr b =
  let t = { vaddr; source = Payload b; first = 0; len = Bytes.length b / 4 } in
  let rec decodable i =
    i = t.len
    || (Isa.Encode.form (word t i) <> Isa.Encode.Invalid && decodable (i + 1))
  in
  if t.len > 0 && decodable 0 then Some t else None

let to_bytes t =
  let b = Bytes.create (4 * t.len) in
  for i = 0 to t.len - 1 do
    Bytes.set_int32_le b (4 * i) (Int32.of_int (word t i))
  done;
  b

let span_bytes t = t.len * Isa.Instr.word_size

(* Whole-function extraction for [Config.granularity = Function]: a
   CFG worklist walk over the basic blocks reachable from [v] inside
   the enclosing symbol (or the rest of the text segment when there is
   no symbol), closed over fall-throughs — a [Jal]/[Jalr] continues the
   walk at its return site, the callee being its own unit — and then
   checked as ONE contiguous chunk covering [v, hi) where hi is the
   highest byte any reachable block touches. Contiguity is what lets
   the rewriter keep every internal edge branch-direct: the unit is a
   plain (large) chunk, no new instruction forms.

   An undecodable word or embedded trap in the contiguous span raises
   exactly as [chunk_at] would; callers distinguish "the requested
   address is bad" (carried address = [v]) from "the function body is
   not contiguously decodable" (carried address > [v]) and degrade the
   latter to block granularity. *)
let max_function_instrs = 8192

let chunk_function img v =
  if v land 3 <> 0 || not (Isa.Image.contains_code img v) then
    raise (Bad_address v);
  let cap =
    match Isa.Image.symbol_at img v with
    | Some s -> min (s.sym_addr + s.sym_size) (Isa.Image.code_end img)
    | None -> Isa.Image.code_end img
  in
  let seen = Hashtbl.create 16 in
  let queue = Queue.create () in
  let push a =
    if a >= v && a < cap && a land 3 = 0 && not (Hashtbl.mem seen a) then begin
      Hashtbl.add seen a ();
      Queue.add a queue
    end
  in
  push v;
  let hi = ref (v + 4) in
  while not (Queue.is_empty queue) do
    let a = Queue.pop queue in
    let n = scan img a cap in
    if n > 0 then begin
      hi := max !hi (a + (4 * n));
      let last = a + (4 * (n - 1)) in
      let w = image_word img last in
      match Isa.Encode.form w with
      | Isa.Encode.Br ->
        push (Isa.Encode.branch_target ~site:last w);
        push (last + 4)
      | Isa.Encode.Jmp -> push (Isa.Encode.static_target ~site:last w)
      | Isa.Encode.Jal | Isa.Encode.Jalr ->
        (* fall-through closure: the return site belongs to this unit *)
        push (last + 4)
      | Isa.Encode.Jr | Isa.Encode.Halt | Isa.Encode.Trap -> ()
      | Isa.Encode.Plain | Isa.Encode.Invalid ->
        () (* scan hit [cap] without a terminator *)
    end
  done;
  (* no truncation: [function_unit] applies the degradation rule
     against [max_function_instrs], so it must see the true extent *)
  let len = (!hi - v) / 4 in
  check img v len;
  view img v len

(* The one degradation rule; a bad [v] itself propagates. *)
let function_unit img v =
  match chunk_function img v with
  | c when c.len > max_function_instrs -> Error (v + span_bytes c)
  | c -> Ok c
  | exception Bad_address a when a > v -> Error a
  | exception Trap_in_source a when a > v -> Error a

let successors img t =
  let n = t.len in
  (* fallthrough first: straight-line continuation is the likeliest
     next miss unless the chunk ends in an unconditional transfer *)
  let exits =
    ref
      (match Isa.Encode.form (word t (n - 1)) with
      | Isa.Encode.Jmp | Isa.Encode.Jr | Isa.Encode.Halt | Isa.Encode.Trap ->
        []
      | _ -> [ t.vaddr + (n * 4) ])
  in
  (* consed in reverse, then restored to source order *)
  for i = 0 to n - 1 do
    let a = t.vaddr + (4 * i) in
    let w = word t i in
    match Isa.Encode.form w with
    | Isa.Encode.Br | Isa.Encode.Jmp ->
      exits := Isa.Encode.static_target ~site:a w :: !exits
    | Isa.Encode.Jal ->
      exits := (a + 4) :: Isa.Encode.static_target ~site:a w :: !exits
    | Isa.Encode.Jalr -> exits := (a + 4) :: !exits
    | _ -> ()
  done;
  let seen = Hashtbl.create 8 in
  List.filter
    (fun a ->
      if
        a land 3 <> 0 || a = t.vaddr
        || (not (Isa.Image.contains_code img a))
        || Hashtbl.mem seen a
      then false
      else begin
        Hashtbl.add seen a ();
        true
      end)
    (List.rev !exits)

(* Successors outside the unit's own span — in function mode the
   internal block heads are already part of this chunk, so only
   external edges are prefetch candidates or sizing-walk seeds. *)
let external_successors img t =
  let lo = t.vaddr and hi = t.vaddr + span_bytes t in
  List.filter (fun a -> a < lo || a >= hi) (successors img t)

(* Direct-call targets leaving the unit: the set of PLT slots the
   rewritten unit will call through. Internal targets are excluded —
   the rewriter resolves any [Jal] landing inside the unit's own span
   as a direct branch, so only external callees route through the
   indirection table. *)
let call_targets img t =
  let lo = t.vaddr and hi = t.vaddr + span_bytes t in
  let seen = Hashtbl.create 8 in
  let acc = ref [] in
  for i = 0 to t.len - 1 do
    let w = word t i in
    if Isa.Encode.form w = Isa.Encode.Jal then begin
      let target = Isa.Encode.static_target ~site:0 w in
      if
        (target < lo || target >= hi)
        && target land 3 = 0
        && Isa.Image.contains_code img target
        && not (Hashtbl.mem seen target)
      then begin
        Hashtbl.add seen target ();
        acc := target :: !acc
      end
    end
  done;
  List.rev !acc

let pp ppf t = Format.fprintf ppf "chunk 0x%x (%d instrs)" t.vaddr t.len
