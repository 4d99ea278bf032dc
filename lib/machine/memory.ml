(* Flat byte memory plus the predecode cache.

   The decode cache is a direct-mapped, word-indexed array of
   predecoded instructions over the memory image. Coherence is enforced
   HERE, not by callers: the SoftCache controller rewrites code at
   runtime (backpatching, stub reverts, eviction unlinking, flushes),
   and every one of those edits arrives through [write32]/[write8],
   which invalidate the covering line. No "remember to invalidate"
   protocol exists above this layer, so the cache can never serve a
   stale instruction after a patch. *)

exception Out_of_bounds of int
exception Unaligned of int
exception Undecodable of int

type decode_stats = { hits : int; misses : int; invalidations : int }

type t = {
  bytes : Bytes.t;
  (* decode cache: line [i] holds the predecoded instruction for the
     word at byte address [dtags.(i)], or nothing when [dtags.(i) < 0].
     Tags are full word-aligned byte addresses, so aliased addresses
     (same index, different tag) simply miss and refill. *)
  dtags : int array;
  dinstrs : Isa.Instr.t array;
  dmask : int;
  mutable dlo : int;
  mutable dhi : int;
      (* every line filled since the last flush lies in [dlo, dhi]
         (empty while [dlo > dhi]): the range only grows between
         flushes, so it covers every valid tag *)
  mutable dhits : int;
  mutable dmisses : int;
  mutable dinvals : int;
}

(* 32K lines cover any working set the simulator runs; bigger memories
   just alias. Kept a power of two so the index is a mask. *)
let decode_lines_cap = 1 lsl 15

let create n =
  let words = max 1 ((n + 3) / 4) in
  let rec pow2 k = if k >= words || k >= decode_lines_cap then k else pow2 (k * 2) in
  let lines = pow2 1 in
  {
    bytes = Bytes.make n '\000';
    dtags = Array.make lines (-1);
    dinstrs = Array.make lines Isa.Instr.Nop;
    dmask = lines - 1;
    dlo = lines;
    dhi = -1;
    dhits = 0;
    dmisses = 0;
    dinvals = 0;
  }

let size t = Bytes.length t.bytes

let check32 t addr =
  if addr < 0 || addr + 4 > Bytes.length t.bytes then raise (Out_of_bounds addr);
  if addr land 3 <> 0 then raise (Unaligned addr)

let read32 t addr =
  check32 t addr;
  Int32.to_int (Bytes.get_int32_le t.bytes addr)

(* Drop the line covering the word at (4-aligned) [waddr], if cached. *)
let[@inline] invalidate_word t waddr =
  let idx = (waddr lsr 2) land t.dmask in
  if Array.unsafe_get t.dtags idx = waddr then begin
    Array.unsafe_set t.dtags idx (-1);
    t.dinvals <- t.dinvals + 1
  end

let write32 t addr v =
  check32 t addr;
  Bytes.set_int32_le t.bytes addr (Int32.of_int v);
  invalidate_word t addr

let write_bytes t addr b =
  let len = Bytes.length b in
  if len land 3 <> 0 then invalid_arg "Memory.write_bytes: not whole words";
  if addr < 0 || addr + len > Bytes.length t.bytes then
    raise (Out_of_bounds addr);
  if addr land 3 <> 0 then raise (Unaligned addr);
  Bytes.blit b 0 t.bytes addr len;
  let a = ref addr in
  while !a < addr + len do
    invalidate_word t !a;
    a := !a + 4
  done

let read8 t addr =
  if addr < 0 || addr >= Bytes.length t.bytes then raise (Out_of_bounds addr);
  Char.code (Bytes.get t.bytes addr)

let write8 t addr v =
  if addr < 0 || addr >= Bytes.length t.bytes then raise (Out_of_bounds addr);
  Bytes.set t.bytes addr (Char.chr (v land 0xFF));
  invalidate_word t (addr land lnot 3)

let decode_flush t =
  if t.dlo <= t.dhi then Array.fill t.dtags t.dlo (t.dhi - t.dlo + 1) (-1);
  t.dlo <- Array.length t.dtags;
  t.dhi <- -1

(* Out of line, so the inlined hit path below stays a few instructions.
   The only place a tag is installed, so the only place the filled
   range widens. *)
let fetch_miss t addr idx =
  t.dmisses <- t.dmisses + 1;
  let w = read32 t addr land 0xFFFFFFFF in
  match Isa.Encode.decode w with
  | Some i ->
    Array.unsafe_set t.dinstrs idx i;
    Array.unsafe_set t.dtags idx addr;
    if idx < t.dlo then t.dlo <- idx;
    if idx > t.dhi then t.dhi <- idx;
    i
  | None -> raise (Undecodable w)

let[@inline] fetch_decoded t addr =
  let idx = (addr lsr 2) land t.dmask in
  if Array.unsafe_get t.dtags idx = addr then begin
    (* a tag is only ever installed after [check32] passed for this
       exact address, so the hit path re-validates nothing *)
    t.dhits <- t.dhits + 1;
    Array.unsafe_get t.dinstrs idx
  end
  else fetch_miss t addr idx

let decode_peek t addr =
  if addr < 0 || addr land 3 <> 0 || addr + 4 > Bytes.length t.bytes then None
  else
    let idx = (addr lsr 2) land t.dmask in
    if t.dtags.(idx) = addr then Some t.dinstrs.(idx) else None

let decode_stats t =
  { hits = t.dhits; misses = t.dmisses; invalidations = t.dinvals }

(* Walks the filled range only, downwards so the list comes out
   ascending. Decode is canonical ([decode w = Some i] implies
   [encode i = w]), so re-encoding the cached instruction and comparing
   words is the same test as re-decoding the word, and allocates
   nothing while the cache is coherent. *)
let decode_audit t =
  let stale = ref [] in
  for idx = t.dhi downto t.dlo do
    let addr = Array.unsafe_get t.dtags idx in
    if
      addr >= 0
      && Isa.Encode.encode (Array.unsafe_get t.dinstrs idx)
         <> read32 t addr land 0xFFFFFFFF
    then stale := addr :: !stale
  done;
  !stale

let blit_code t ~addr (img : Isa.Image.t) =
  Array.iteri
    (fun i w -> write32 t (addr + (i * Isa.Instr.word_size)) w)
    img.code

let load_data t (img : Isa.Image.t) =
  let len = Bytes.length img.data in
  if len > 0 then begin
    if img.data_base < 0 || img.data_base + len > Bytes.length t.bytes then
      raise (Out_of_bounds img.data_base);
    Bytes.blit img.data 0 t.bytes img.data_base len;
    (* bulk write bypasses write32/write8 — drop everything *)
    decode_flush t
  end

let load_image t (img : Isa.Image.t) =
  blit_code t ~addr:img.code_base img;
  load_data t img

let hash t ~lo ~hi =
  let h = ref 0x811C9DC5 in
  for i = lo to hi - 1 do
    h :=
      (!h lxor Char.code (Bytes.get t.bytes i))
      * 0x01000193
      land 0x3FFFFFFFFFFFFFFF
  done;
  !h
