type prediction = Same_index | Second_chance

type t = {
  dcache_bytes : int;
  block_bytes : int;
  scache_frames : int;
  prediction : prediction;
  specialise_constants : bool;
  specialise_threshold : int;
  net : Netmodel.t;
}

let const_cycles = 2
let predicted_hit_cycles = 9
let search_step_cycles = 6
let miss_fixed_cycles = 40
let scache_check_cycles = 3
let spill_refill_cycles = 64
let is_pow2 n = n > 0 && n land (n - 1) = 0

let make ?(dcache_bytes = 8 * 1024) ?(block_bytes = 32) ?(scache_frames = 16)
    ?(prediction = Same_index) ?(specialise_constants = true)
    ?(specialise_threshold = 32) () =
  if not (is_pow2 block_bytes) then
    invalid_arg "Dcache.Config.make: block size must be a power of two";
  if dcache_bytes < block_bytes then
    invalid_arg "Dcache.Config.make: dcache smaller than one block";
  if scache_frames < 2 then
    invalid_arg
      "Dcache.Config.make: the stack cache must hold at least two frames";
  {
    dcache_bytes;
    block_bytes;
    scache_frames;
    prediction;
    specialise_constants;
    specialise_threshold;
    net = Netmodel.local ();
  }

let pp ppf t =
  Format.fprintf ppf "dcache %dB/%dB blocks, scache %d frames, %s%s"
    t.dcache_bytes t.block_bytes t.scache_frames
    (match t.prediction with
    | Same_index -> "same-index"
    | Second_chance -> "second-chance")
    (if t.specialise_constants then ", const-specialising" else "")
