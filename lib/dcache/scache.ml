type t = {
  frames : int;
  mutable depth : int; (* logical call depth *)
  mutable resident : int; (* topmost frames held in the buffer *)
  mutable spills : int;
  mutable refills : int;
}

let create ~frames =
  if frames < 2 then invalid_arg "Dcache.Scache.create: need >= 2 frames";
  { frames; depth = 0; resident = 0; spills = 0; refills = 0 }

let enter t =
  t.depth <- t.depth + 1;
  if t.resident < t.frames then begin
    t.resident <- t.resident + 1;
    false
  end
  else begin
    (* buffer full: the deepest resident frame spills to the server *)
    t.spills <- t.spills + 1;
    true
  end

let leave t =
  if t.depth > 0 then t.depth <- t.depth - 1;
  if t.resident > 0 then t.resident <- t.resident - 1;
  if t.resident = 0 && t.depth > 0 then begin
    (* the frame being returned into had been spilled: refill it *)
    t.refills <- t.refills + 1;
    t.resident <- 1;
    true
  end
  else false

let depth t = t.depth
let resident t = t.resident
let spills t = t.spills
let refills t = t.refills
