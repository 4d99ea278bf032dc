(* Dominant-block analytic tcache sizing.

   The paper sizes CC memory by running the full miss-rate sweep and
   eyeballing the knee (Fig. 7). This module predicts the knee without
   the sweep: walk the chunker's static CFG to enumerate every chunk
   the workload can reach, weight each chunk with a profiling pre-run,
   take the smallest hottest-first prefix covering [threshold] of the
   samples (the dominant set — the same 90% rule the paper's gprof
   sizing used, at chunk granularity), and price that set in *rewritten*
   bytes using the rewriter's own layout arithmetic. A tcache that
   holds the dominant set in rewritten form sits at the knee: smaller,
   and the steady-state working set thrashes; larger, and only the cold
   tail gains. [headroom] covers what the static model cannot see —
   persistent stubs growing down from the top, sweep fragmentation, and
   tail-duplicated chunks translated more than once. *)

type chunk_info = {
  ci_vaddr : int;
  ci_span_bytes : int;
  ci_tcache_bytes : int;
  ci_samples : int;
}

type estimate = {
  chunks_walked : int;
  dominant_chunks : int;
  dominant_source_bytes : int;
  dominant_tcache_bytes : int;
  predicted_bytes : int;
  predicted_knee : int option;
  chunks : chunk_info list;
}

(* Breadth-first over the unit graph, seeded at the image entry and
   every symbol start (computed-jump targets are statically unknowable,
   so symbol starts stand in for them — the same approximation the MC's
   prefetch predictor lives with). Chunks the chunker rejects are
   skipped: an unreachable data-looking successor must not sink the
   estimate.

   In function granularity the unit is the whole-function chunk and the
   edges are its external successors; a function the controller would
   degrade (oversized, or a body that is not cleanly decodable) is
   priced as its entry basic block, mirroring the runtime degradation
   rule one block at a time — the walk reaches the rest of the degraded
   extent through ordinary block successors. *)
let walk_units image chunking granularity =
  let visited = Hashtbl.create 256 in
  let acc = ref [] in
  let queue = Queue.create () in
  let seed v = if not (Hashtbl.mem visited v) then Queue.add v queue in
  seed image.Isa.Image.entry;
  List.iter
    (fun (s : Isa.Image.symbol) -> seed s.sym_addr)
    image.Isa.Image.symbols;
  let unit_at v =
    match granularity with
    | Config.Block -> (Chunker.chunk_at image chunking v, Config.Block)
    | Config.Function -> (
      let degraded () = (Chunker.chunk_at image Config.Basic_block v, Config.Block) in
      match Chunker.chunk_function image v with
      | c when c.len <= Chunker.max_function_instrs ->
        (c, Config.Function)
      | _ -> degraded ()
      | exception Chunker.Bad_address a when a > v -> degraded ()
      | exception Chunker.Trap_in_source a when a > v -> degraded ())
  in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    if not (Hashtbl.mem visited v) then begin
      Hashtbl.replace visited v ();
      match unit_at v with
      | chunk, g ->
        acc := chunk :: !acc;
        let succs =
          match g with
          | Config.Function -> Chunker.external_successors image chunk
          | Config.Block -> Chunker.successors image chunk
        in
        List.iter seed succs
      | exception (Chunker.Bad_address _ | Chunker.Trap_in_source _) -> ()
    end
  done;
  List.rev !acc

let estimate ?(threshold = 0.9) ?(headroom = 1.4)
    ?(granularity = Config.Block) ~image ~chunking ~samples_in ~sizes () =
  if not (0.0 < threshold && threshold <= 1.0) then
    invalid_arg "Sizing.estimate: want 0 < threshold <= 1";
  if headroom < 1.0 then invalid_arg "Sizing.estimate: headroom < 1";
  (* in function mode the controller pre-allocates a PLT slot for every
     external call target, so the rewriter emits no trap island for
     those Jals; price layouts under the same assumption (the slot paddr
     itself is irrelevant to the word count) *)
  let plt_of =
    match granularity with
    | Config.Block -> fun _ -> None
    | Config.Function ->
      fun tv ->
        if tv land 3 = 0 && Isa.Image.contains_code image tv then Some 0
        else None
  in
  let chunks =
    List.map
      (fun (c : Chunker.t) ->
        let span = Chunker.span_bytes c in
        {
          ci_vaddr = c.vaddr;
          ci_span_bytes = span;
          ci_tcache_bytes = 4 * Rewriter.layout_words ~plt_of c;
          ci_samples = samples_in ~lo:c.vaddr ~hi:(c.vaddr + span);
        })
      (walk_units image chunking granularity)
  in
  (* hottest first; density would overweight tiny blocks — the tcache
     pays for whole chunks, so rank by total samples, ties on address *)
  let ranked =
    List.sort
      (fun a b ->
        match compare b.ci_samples a.ci_samples with
        | 0 -> compare a.ci_vaddr b.ci_vaddr
        | c -> c)
      chunks
  in
  let total = List.fold_left (fun a c -> a + c.ci_samples) 0 ranked in
  let need = max 1 (int_of_float (ceil (threshold *. float_of_int total))) in
  let dominant =
    if total = 0 then []
    else
      let rec take acc cum = function
        | [] -> List.rev acc
        | c :: rest ->
          if c.ci_samples = 0 then List.rev acc
          else
            let cum = cum + c.ci_samples in
            if cum >= need then List.rev (c :: acc)
            else take (c :: acc) cum rest
      in
      take [] 0 ranked
  in
  let dom_src = List.fold_left (fun a c -> a + c.ci_span_bytes) 0 dominant in
  let dom_tc = List.fold_left (fun a c -> a + c.ci_tcache_bytes) 0 dominant in
  let predicted_bytes =
    int_of_float (ceil (headroom *. float_of_int dom_tc))
  in
  let predicted_knee =
    List.find_opt (fun s -> s >= predicted_bytes) (List.sort compare sizes)
  in
  {
    chunks_walked = List.length chunks;
    dominant_chunks = List.length dominant;
    dominant_source_bytes = dom_src;
    dominant_tcache_bytes = dom_tc;
    predicted_bytes;
    predicted_knee;
    chunks = ranked;
  }

(* The transition zone around the knee is where a temperature prior
   backfires: the layout nearly fits, steady-state FIFO keeps it
   stable, and every prior-driven sweep deviation restarts the
   allocation sweep mid-layout — churn without protection. A full
   ladder step (2x) below the prediction the dominant set is hopelessly
   oversubscribed and protecting its hottest members is pure win. *)
let deep_thrash e ~tcache_bytes = e.predicted_bytes > 2 * tcache_bytes
