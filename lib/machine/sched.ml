(* Windowed min-clock hart scheduler over a self-contained xorshift64
   PRNG. No dependency on [Random] — the global generator's state is
   shared process-wide and would make replays depend on unrelated
   draws; determinism here must be a local property. *)

type t = {
  seed : int;
  window : int;
  mutable state : int64;
  mutable draws : int;
}

let create ?(window = 0) seed =
  let state =
    (* xorshift has no all-zero state; fold the seed over a golden-ratio
       constant so nearby seeds diverge immediately *)
    let s = Int64.logxor (Int64.of_int seed) 0x9E3779B97F4A7C15L in
    if Int64.equal s 0L then 0x2545F4914F6CDD1DL else s
  in
  { seed; window = max 0 window; state; draws = 0 }

let seed t = t.seed
let draws t = t.draws

let next t =
  let x = t.state in
  let x = Int64.logxor x (Int64.shift_left x 13) in
  let x = Int64.logxor x (Int64.shift_right_logical x 7) in
  let x = Int64.logxor x (Int64.shift_left x 17) in
  t.state <- x;
  t.draws <- t.draws + 1;
  Int64.to_int (Int64.shift_right_logical x 2)

let pick t runnable =
  match runnable with
  | [ (id, _) ] ->
    (* single runnable hart: no draw, so a 1-hart run consumes no
       PRNG state and is seed-independent *)
    id
  | _ -> (
    match
      List.sort (fun (i1, c1) (i2, c2) -> compare (c1, i1) (c2, i2)) runnable
    with
    | [] -> invalid_arg "Sched.pick: no runnable harts"
    | (_, cmin) :: _ as sorted ->
      let window =
        List.filter (fun (_, c) -> c <= cmin + t.window) sorted
      in
      let n = List.length window in
      let k = if n = 1 then 0 else next t mod n in
      fst (List.nth window k))
