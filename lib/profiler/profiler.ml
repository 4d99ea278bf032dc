type entry = {
  name : string;
  addr : int;
  size_bytes : int;
  samples : int;
  fraction : float;
}

type t = {
  image : Isa.Image.t;
  counts : int array; (* per instruction word of the text segment *)
  edges : (int, (int, int) Hashtbl.t) Hashtbl.t;
      (* taken control transfers: source vaddr -> (target vaddr -> count)
         for every observed fetch pair where the successor is not the
         sequential next instruction *)
  mutable last : int; (* previous fetch address, -1 before the first *)
  mutable total : int;
  mutable unattributed : int;
}

let create (image : Isa.Image.t) =
  {
    image;
    counts = Array.make (Array.length image.code) 0;
    edges = Hashtbl.create 256;
    last = -1;
    total = 0;
    unattributed = 0;
  }

let record t addr =
  t.total <- t.total + 1;
  (if t.last >= 0 && addr <> t.last + 4 then
     match Hashtbl.find_opt t.edges t.last with
     | Some targets ->
       Hashtbl.replace targets addr
         (1 + Option.value ~default:0 (Hashtbl.find_opt targets addr))
     | None ->
       let targets = Hashtbl.create 4 in
       Hashtbl.replace targets addr 1;
       Hashtbl.replace t.edges t.last targets);
  t.last <- addr;
  if Isa.Image.contains_code t.image addr then begin
    let i = (addr - t.image.code_base) lsr 2 in
    t.counts.(i) <- t.counts.(i) + 1
  end
  else t.unattributed <- t.unattributed + 1

let attach t (cpu : Machine.Cpu.t) =
  let previous = cpu.on_fetch in
  cpu.on_fetch <-
    Some
      (match previous with
      | None -> record t
      | Some f ->
        fun addr ->
          f addr;
          record t addr)

let profile ?fuel img =
  let t = create img in
  let cpu = Machine.Cpu.of_image img in
  attach t cpu;
  (match Machine.Cpu.run ?fuel cpu with
  | Machine.Cpu.Halted | Machine.Cpu.Out_of_fuel -> ());
  (t, cpu)

let total_samples t = t.total

let edges_from t src =
  match Hashtbl.find_opt t.edges src with
  | None -> []
  | Some targets ->
    Hashtbl.fold (fun dst n acc -> (dst, n) :: acc) targets []
    |> List.sort (fun (a, an) (b, bn) ->
           match compare bn an with 0 -> compare a b | c -> c)

let samples_in t ~lo ~hi =
  let base = t.image.code_base in
  let i0 = max 0 ((lo - base) asr 2) in
  (* round up: an unaligned [hi] still covers part of its final word *)
  let i1 = min (Array.length t.counts) ((hi - base + 3) asr 2) in
  let s = ref 0 in
  for i = i0 to i1 - 1 do
    s := !s + t.counts.(i)
  done;
  !s

let entries t =
  let syms = t.image.symbols in
  let covered = Hashtbl.create 64 in
  let sym_entries =
    List.filter_map
      (fun (s : Isa.Image.symbol) ->
        for
          i = (s.sym_addr - t.image.code_base) asr 2
          to ((s.sym_addr + s.sym_size - t.image.code_base) asr 2) - 1
        do
          Hashtbl.replace covered i ()
        done;
        let n = samples_in t ~lo:s.sym_addr ~hi:(s.sym_addr + s.sym_size) in
        if n = 0 then None
        else
          Some
            {
              name = s.sym_name;
              addr = s.sym_addr;
              size_bytes = s.sym_size;
              samples = n;
              fraction =
                (if t.total = 0 then 0.0
                 else float_of_int n /. float_of_int t.total);
            })
      syms
  in
  (* instructions executed outside any symbol *)
  let stray = ref t.unattributed in
  Array.iteri
    (fun i c -> if c > 0 && not (Hashtbl.mem covered i) then stray := !stray + c)
    t.counts;
  let all =
    if !stray = 0 then sym_entries
    else
      {
        name = "<unattributed>";
        addr = 0;
        size_bytes = 0;
        samples = !stray;
        fraction =
          (if t.total = 0 then 0.0
           else float_of_int !stray /. float_of_int t.total);
      }
      :: sym_entries
  in
  List.sort (fun a b -> compare b.samples a.samples) all

(* The cumulative cut is computed in integer samples, not accumulated
   float fractions: summing fractions can land at 0.999... for a
   threshold of 1.0 (returning a partial set) and a zero-sample profile
   would divide 0/0. [ceil] maps a threshold to the smallest sample
   count that covers it; a zero-sample profile has nothing hot. *)
let hot_set ?(threshold = 0.9) t =
  if t.total = 0 then []
  else
    let need =
      max 1 (int_of_float (ceil (threshold *. float_of_int t.total)))
    in
    let rec take acc cum = function
      | [] -> List.rev acc
      | e :: rest ->
        let cum = cum + e.samples in
        if cum >= need then List.rev (e :: acc)
        else take (e :: acc) cum rest
    in
    take [] 0 (entries t)

let hot_bytes ?threshold t =
  List.fold_left (fun a e -> a + e.size_bytes) 0 (hot_set ?threshold t)

type temperature = Hot | Warm | Cold

let temperature_name = function Hot -> "hot" | Warm -> "warm" | Cold -> "cold"

(* Cumulative-share bands over the per-word sample counts, the same
   machinery as [hot_set] but at word rather than symbol granularity:
   sort the executed words hottest first and find the per-word count at
   which the cumulative share crosses [hot] (and [warm]) — every word
   at or above that count is in the band. A range classifies [Hot]
   ([Warm]) when the majority of *its own* execution mass lives in
   hot-band (warm-band) words, so a basic block inside the loop nest
   reads hot even when the enclosing symbol dilutes it with a run-once
   prologue. All in integer samples — no float accumulation, no 0/0.

   Degenerate profiles rank nothing: with zero samples, or when every
   executed word has the same count (a flat profile has no contrast),
   the classifier is constantly [Cold] — the one prior that invents no
   information, so trrip built on it decides exactly as unprimed. *)
let temperature_classifier ?(hot = 0.5) ?(warm = 0.9) t =
  if not (0.0 <= hot && hot <= warm && warm <= 1.0) then
    invalid_arg "Profiler.temperature_classifier: want 0 <= hot <= warm <= 1";
  let nonzero =
    Array.to_list t.counts
    |> List.filter (fun c -> c > 0)
    |> List.sort (fun a b -> compare b a)
  in
  match nonzero with
  | [] -> fun ~lo:_ ~hi:_ -> Cold
  | first :: rest when List.for_all (fun c -> c = first) rest ->
    fun ~lo:_ ~hi:_ -> Cold
  | _ ->
    let csum = List.fold_left ( + ) 0 nonzero in
    let cut share =
      let need = max 1 (int_of_float (ceil (share *. float_of_int csum))) in
      let rec go cum = function
        | [] -> 1
        | c :: rest ->
          let cum = cum + c in
          if cum >= need then c else go cum rest
      in
      go 0 nonzero
    in
    let hot_cut = cut hot and warm_cut = cut warm in
    let base = t.image.code_base in
    fun ~lo ~hi ->
      let i0 = max 0 ((lo - base) asr 2) in
      (* round up: an unaligned [hi] still covers part of its final word *)
      let i1 = min (Array.length t.counts) ((hi - base + 3) asr 2) in
      let s = ref 0 and s_hot = ref 0 and s_warm = ref 0 in
      for i = i0 to i1 - 1 do
        let c = t.counts.(i) in
        s := !s + c;
        if c >= hot_cut then s_hot := !s_hot + c;
        if c >= warm_cut then s_warm := !s_warm + c
      done;
      if !s = 0 then Cold
      else if 2 * !s_hot >= !s then Hot
      else if 2 * !s_warm >= !s then Warm
      else Cold

let dynamic_text_bytes t =
  Array.fold_left (fun a c -> if c > 0 then a + 4 else a) 0 t.counts

let touched_in t ~lo ~hi =
  let base = t.image.code_base in
  let i0 = max 0 ((lo - base) asr 2) in
  (* round up: an unaligned [hi] still covers part of its final word *)
  let i1 = min (Array.length t.counts) ((hi - base + 3) asr 2) in
  let s = ref 0 in
  for i = i0 to i1 - 1 do
    if t.counts.(i) > 0 then s := !s + 4
  done;
  !s

let pp ppf t =
  Format.fprintf ppf "flat profile of %s (%d samples):@." t.image.name t.total;
  List.iter
    (fun e ->
      Format.fprintf ppf "  %6.2f%%  %8d  %6d B  %s@." (100.0 *. e.fraction)
        e.samples e.size_bytes e.name)
    (entries t)
