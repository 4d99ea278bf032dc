(* CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) — the checksum
   the CC verifies on every chunk the MC ships over the link. Any
   single-bit corruption is guaranteed to change the digest.

   Slice-by-4: [table] holds four 256-entry tables back to back. The
   first is the classic bytewise table; entry [n] of table [k] is the
   CRC of byte [n] followed by [k] zero bytes, so four table reads fold
   one little-endian word into the register at once. Built eagerly at
   module initialisation: 1,024 ints, and no lazy value for two domains
   to race on forcing. *)
let table =
  let t = Array.make 1024 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 3 do
    for n = 0 to 255 do
      let prev = t.((256 * (k - 1)) + n) in
      t.((256 * k) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done
  done;
  t

let bytes ?(pos = 0) ?len b =
  let len = match len with Some l -> l | None -> Bytes.length b - pos in
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Crc32.bytes";
  let crc = ref 0xFFFFFFFF in
  let i = ref pos in
  let words_end = pos + (len land lnot 3) in
  while !i < words_end do
    let c =
      !crc lxor (Int32.to_int (Bytes.get_int32_le b !i) land 0xFFFFFFFF)
    in
    crc :=
      Array.unsafe_get table (768 + (c land 0xFF))
      lxor Array.unsafe_get table (512 + ((c lsr 8) land 0xFF))
      lxor Array.unsafe_get table (256 + ((c lsr 16) land 0xFF))
      lxor Array.unsafe_get table (c lsr 24);
    i := !i + 4
  done;
  for j = words_end to pos + len - 1 do
    let byte = Char.code (Bytes.unsafe_get b j) in
    crc := Array.unsafe_get table ((!crc lxor byte) land 0xFF) lxor (!crc lsr 8)
  done;
  !crc lxor 0xFFFFFFFF

let string s = bytes (Bytes.unsafe_of_string s)
