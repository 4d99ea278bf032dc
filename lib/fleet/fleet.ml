(* Multi-client MC fleet service over one shared Netmodel link.

   The simulation is discrete-event in *virtual* time: every session
   carries its own cycle counter ([cpu.cycles]), and the shared link
   serializes frames with a single [link_free_at] horizon measured on
   the same axis. The scheduler interleaves sessions in bounded
   instruction slices, so clients' clocks drift past each other —
   which is exactly what creates the coalescing and piggybacking
   windows a real fleet MC would see.

   Determinism is load-bearing (the bench gate diffs two runs
   byte-for-byte): every iteration below is over arrays or queues in
   insertion order, never over hashtable bindings. *)

open Softcache

type fairness = Fifo | Round_robin

let fairness_table = [ ("fifo", Fifo); ("rr", Round_robin) ]

let fairness_name f =
  match List.find_opt (fun (_, v) -> v = f) fairness_table with
  | Some (n, _) -> n
  | None -> assert false

let fairness_of_name n =
  List.assoc_opt (String.lowercase_ascii n) fairness_table

type config = {
  clients : int;
  fairness : fairness;
  dedup : bool;
  batching : bool;
  cache_chunks : int;
  quantum : int;
}

let config ?(clients = 4) ?(fairness = Fifo) ?(dedup = true)
    ?(batching = true) ?(cache_chunks = 256) ?(quantum = 256) () =
  if clients < 1 then invalid_arg "Fleet.config: clients must be >= 1";
  if quantum < 1 then invalid_arg "Fleet.config: quantum must be >= 1";
  if cache_chunks < 0 then
    invalid_arg "Fleet.config: cache_chunks must be >= 0";
  { clients; fairness; dedup; batching; cache_chunks; quantum }

type outcome =
  | Running
  | Halted
  | Out_of_fuel
  | Unavailable of { vaddr : int; attempts : int }

let pp_outcome ppf = function
  | Running -> Format.fprintf ppf "running"
  | Halted -> Format.fprintf ppf "halted"
  | Out_of_fuel -> Format.fprintf ppf "out-of-fuel"
  | Unavailable { vaddr; attempts } ->
      Format.fprintf ppf "unavailable(0x%x after %d attempts)" vaddr attempts

type session = {
  s_id : int;
  s_ctrl : Controller.t;
  s_image : Isa.Image.t;
      (* the workload this client runs — under heterogeneous fleets the
         audit checks every cached chunk against *this* image's text
         segment, not just the request log *)
  s_shard : Shard.t option;
      (* multi-hart client: the controller is wrapped by the shard
         layer and advanced through its scheduler ([Config.harts > 1]) *)
  s_predicted : int option;
      (* [Sizing]-predicted tcache bytes fed into admission; [None]
         when auto-sizing was not requested for this client *)
  mutable s_outcome : outcome;
  s_requested : (int, unit) Hashtbl.t;
      (* every vaddr this session asked the MC for, demand or prefetch
         rider — the audit's isolation ground truth *)
  mutable s_stalls : int list;  (* reverse attempt order *)
  mutable s_fetches : int;
  mutable s_coalesced : int;
}

(* A frame in flight (or just landed) whose *delivered* demand content
   other clients may coalesce onto. Keyed by the demand payload's exact
   content; holds the received copy — possibly corrupted, so a joiner's
   CRC check stays honest and retries exactly as if it had fetched. *)
type window = { w_completes : int; w_content : Bytes.t }

type t = {
  fc : config;
  fnet : Netmodel.t;
  mutable sessions : session array;
  (* shared-link serialization, virtual cycles *)
  mutable now : int;  (* clock of the session currently being served *)
  mutable link_free_at : int;
  mutable frame_open_until : int;
      (* dispatch instant of the last *delivered* frame: a request whose
         clock is still before it arrived while the frame sat on the
         link, so its segments can ride along; -1 = nothing to ride *)
  (* content-addressed shared chunk cache (the mc_crc memoizer) *)
  cache : (string, int) Hashtbl.t;
  cache_order : string Queue.t;
  mutable f_cache_hits : int;
  mutable f_cache_misses : int;
  mutable f_cache_evictions : int;
  (* coalescing windows *)
  windows : (string, window) Hashtbl.t;
  window_order : (string * int) Queue.t;
  (* MC-side counters *)
  mutable f_attempts : int;
  mutable f_frames : int;
  mutable f_coalesced : int;
  mutable f_piggybacked : int;
  (* link counters at create, so every metric is a delta and a pre-used
     link (e.g. a profiling pre-run sharing the config) cannot skew the
     fleet's books *)
  base_messages : int;
  base_payload : int;
  base_total : int;
  base_duplicates : int;
  mutable rr_cursor : int;
  mutable tracer : Trace.t option;
}

let trace t ev =
  match t.tracer with Some tr -> Trace.emit tr ev | None -> ()

(* --- shared chunk cache ------------------------------------------- *)

let cache_evict_to_bound t =
  let rec drop () =
    if Hashtbl.length t.cache >= t.fc.cache_chunks then
      match Queue.take_opt t.cache_order with
      | None -> ()
      | Some old ->
          if Hashtbl.mem t.cache old then begin
            Hashtbl.remove t.cache old;
            t.f_cache_evictions <- t.f_cache_evictions + 1
          end;
          drop ()
  in
  drop ()

(* The dedup cache *is* the CRC-stamp memoizer: a hit means the MC
   already chunked and CRC-stamped this exact content for some client
   and serves the stamp from the shared cache; only misses chunk. The
   memoized value is what Crc32 would return, so installing the hook
   never changes what any client observes — only the MC's books. *)
let crc_stamp t payload =
  if (not t.fc.dedup) || t.fc.cache_chunks <= 0 then Crc32.bytes payload
  else
    let key = Bytes.to_string payload in
    match Hashtbl.find_opt t.cache key with
    | Some crc ->
        t.f_cache_hits <- t.f_cache_hits + 1;
        crc
    | None ->
        t.f_cache_misses <- t.f_cache_misses + 1;
        let crc = Crc32.bytes payload in
        cache_evict_to_bound t;
        Hashtbl.replace t.cache key crc;
        Queue.add key t.cache_order;
        crc

(* --- coalescing windows ------------------------------------------- *)

(* Windows may only be reclaimed once no session can still join them.
   Session clocks are not monotone across transport calls (a lagging
   client's [now] is legitimately earlier than a window another client
   opened), so pruning against the *current* requester's clock would
   drop joins. The safe horizon is the minimum clock over sessions that
   can still issue requests. *)
let horizon t =
  Array.fold_left
    (fun acc s ->
      if s.s_outcome = Running then min acc s.s_ctrl.cpu.cycles else acc)
    max_int t.sessions

let prune_windows t =
  let h = horizon t in
  let rec go () =
    match Queue.peek_opt t.window_order with
    | Some (key, completes) when completes <= h ->
        ignore (Queue.pop t.window_order);
        (match Hashtbl.find_opt t.windows key with
        | Some w when w.w_completes <= h -> Hashtbl.remove t.windows key
        | _ -> ());
        go ()
    | _ -> ()
  in
  go ()

let open_window t key ~completes ~content =
  if t.fc.dedup then begin
    Hashtbl.replace t.windows key { w_completes = completes; w_content = content };
    Queue.add (key, completes) t.window_order
  end

(* --- the MC transport --------------------------------------------- *)

(* Every stall sample also lands in the trace, so the exported timeline
   carries the same population the summary's percentiles are computed
   from. [trace] charges nothing — conservation is untouched. *)
let sample t s cycles =
  s.s_stalls <- cycles :: s.s_stalls;
  trace t (Trace.Fl_stall { client = s.s_id; cycles })

(* One demand frame from session [s]. [payloads] is the MC-stamped
   demand segment followed by its prefetch riders; whatever we return
   flows straight into the client's retry/CRC machinery, so faults are
   reported exactly as [Netmodel.transfer_batch] would. *)
let transport t s ~vaddr ~prefetch_vaddrs ~payloads =
  let now = s.s_ctrl.cpu.cycles in
  t.now <- now;
  t.f_attempts <- t.f_attempts + 1;
  s.s_fetches <- s.s_fetches + 1;
  Hashtbl.replace s.s_requested vaddr ();
  List.iter (fun pv -> Hashtbl.replace s.s_requested pv ()) prefetch_vaddrs;
  trace t (Trace.Fl_request { client = s.s_id; chunk = vaddr });
  let demand = List.hd payloads in
  let key = Bytes.to_string demand in
  prune_windows t;
  let joinable =
    if t.fc.dedup then
      match Hashtbl.find_opt t.windows key with
      | Some w when now < w.w_completes -> Some w
      | _ -> None
    else None
  in
  match joinable with
  | Some w ->
      (* Identical content is already on its way to another client: wait
         for that frame to land and read the same delivered bytes. No
         wire traffic, no rng draw. *)
      let wait = w.w_completes - now in
      t.f_coalesced <- t.f_coalesced + 1;
      s.s_coalesced <- s.s_coalesced + 1;
      sample t s wait;
      trace t (Trace.Fl_coalesce { client = s.s_id; chunk = vaddr; wait });
      Ok (wait, [ Bytes.copy w.w_content ])
  | None ->
      let dispatch_at = max now t.link_free_at in
      let queued = dispatch_at - now in
      if t.fc.batching && now < t.link_free_at && now <= t.frame_open_until
      then begin
        (* The frame occupying the link had not yet departed when this
           request arrived (in virtual time): append the segments to it
           at marginal per-byte cost — no second latency or header. *)
        let cost, segments = Netmodel.transfer_piggyback t.fnet ~payloads in
        t.f_piggybacked <- t.f_piggybacked + 1;
        t.link_free_at <- t.link_free_at + cost;
        let total_wait = t.link_free_at - now in
        (match segments with
        | received :: _ ->
            open_window t key ~completes:t.link_free_at ~content:received
        | [] -> ());
        sample t s total_wait;
        trace t
          (Trace.Fl_piggyback
             { client = s.s_id; bytes = Bytes.length demand });
        Ok (total_wait, segments)
      end
      else begin
        t.f_frames <- t.f_frames + 1;
        trace t
          (Trace.Fl_frame
             { client = s.s_id; segments = List.length payloads; queued });
        match Netmodel.transfer_batch t.fnet ~payloads with
        | Error (`Dropped wasted) ->
            (* the link was still burned for the wasted cycles; nothing
               landed, so nothing to coalesce onto *)
            t.link_free_at <- dispatch_at + wasted;
            t.frame_open_until <- -1;
            sample t s (queued + wasted);
            Error (`Dropped (queued + wasted))
        | Ok (cost, segments) ->
            t.link_free_at <- dispatch_at + cost;
            t.frame_open_until <- dispatch_at;
            (match segments with
            | received :: _ ->
                open_window t key ~completes:t.link_free_at ~content:received
            | [] -> ());
            sample t s (queued + cost);
            Ok (queued + cost, segments)
      end

(* --- construction -------------------------------------------------- *)

let default_config = config ()

(* [sizing] is the auto-size admission hook: for client [i] it returns
   the [Sizing.estimate]-predicted smallest acceptable tcache in bytes
   (the caller runs the analytic model — the profiler lives above this
   layer). An under-provisioned client is admitted at the predicted
   size instead of its configured one; the summary reports both. *)
let create ?(config = default_config) ?sizing ~net mk_cfg images =
  if Array.length images = 0 then invalid_arg "Fleet.create: no images";
  let t =
    {
      fc = config;
      fnet = net;
      sessions = [||];
      now = 0;
      link_free_at = 0;
      frame_open_until = -1;
      cache = Hashtbl.create 256;
      cache_order = Queue.create ();
      f_cache_hits = 0;
      f_cache_misses = 0;
      f_cache_evictions = 0;
      windows = Hashtbl.create 32;
      window_order = Queue.create ();
      f_attempts = 0;
      f_frames = 0;
      f_coalesced = 0;
      f_piggybacked = 0;
      base_messages = Netmodel.messages net;
      base_payload = Netmodel.payload_bytes net;
      base_total = Netmodel.total_bytes net;
      base_duplicates = Netmodel.duplicates net;
      rr_cursor = 0;
      tracer = None;
    }
  in
  (* the transport hooks close over [t], so the sessions are stitched in
     after the record exists *)
  t.sessions <-
    Array.init config.clients (fun i ->
        let cfg = { (mk_cfg i) with Config.net } in
        let predicted = match sizing with Some f -> f i | None -> None in
        let cfg =
          match predicted with
          | Some p when p > cfg.Config.tcache_bytes ->
              { cfg with Config.tcache_bytes = (p + 15) land lnot 15 }
          | Some _ | None -> cfg
        in
        let image = images.(i mod Array.length images) in
        let ctrl = Controller.create cfg image in
        let shard =
          if cfg.Config.harts > 1 then Some (Shard.attach ctrl) else None
        in
        let s =
          {
            s_id = i;
            s_ctrl = ctrl;
            s_image = image;
            s_shard = shard;
            s_predicted = predicted;
            s_outcome = Running;
            s_requested = Hashtbl.create 64;
            s_stalls = [];
            s_fetches = 0;
            s_coalesced = 0;
          }
        in
        ctrl.Controller.mc_crc <- Some (fun payload -> crc_stamp t payload);
        ctrl.Controller.mc_transport <-
          Some
            (fun ~vaddr ~prefetch_vaddrs ~payloads ->
              transport t s ~vaddr ~prefetch_vaddrs ~payloads);
        s);
  t

let attach_tracer t tr =
  t.tracer <- Some tr;
  Trace.set_clock tr (fun () -> t.now);
  Netmodel.set_tracer t.fnet (Some tr)

(* --- scheduling ----------------------------------------------------- *)

(* Binary min-heap of (virtual clock, session id) keys, compared
   lexicographically — the Fifo scheduler's pick structure. The old
   linear scan rescanned every session per quantum pick, O(N) each; the
   heap makes a pick O(log N). The lexicographic order is exactly the
   scan's fold (strict [<] on clocks, first-visited — i.e. lowest id —
   wins ties), so the two are pick-identical; the qcheck equivalence
   property in test_fleet drives both against random schedules. *)
module Clockheap = struct
  type t = { mutable keys : (int * int) array; mutable len : int }

  let create ?(capacity = 16) () =
    { keys = Array.make (max 1 capacity) (0, 0); len = 0 }

  let length h = h.len
  let is_empty h = h.len = 0
  let lt (c1, i1) (c2, i2) = c1 < c2 || (c1 = c2 && i1 < i2)

  let swap h i j =
    let tmp = h.keys.(i) in
    h.keys.(i) <- h.keys.(j);
    h.keys.(j) <- tmp

  let rec sift_up h i =
    if i > 0 then begin
      let p = (i - 1) / 2 in
      if lt h.keys.(i) h.keys.(p) then begin
        swap h i p;
        sift_up h p
      end
    end

  let rec sift_down h i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let m = if l < h.len && lt h.keys.(l) h.keys.(i) then l else i in
    let m = if r < h.len && lt h.keys.(r) h.keys.(m) then r else m in
    if m <> i then begin
      swap h i m;
      sift_down h m
    end

  let push h ~clock ~id =
    if h.len = Array.length h.keys then begin
      let bigger = Array.make (2 * h.len) (0, 0) in
      Array.blit h.keys 0 bigger 0 h.len;
      h.keys <- bigger
    end;
    h.keys.(h.len) <- (clock, id);
    h.len <- h.len + 1;
    sift_up h (h.len - 1)

  let pop h =
    if h.len = 0 then None
    else begin
      let top = h.keys.(0) in
      h.len <- h.len - 1;
      h.keys.(0) <- h.keys.(h.len);
      if h.len > 0 then sift_down h 0;
      Some top
    end
end

let runnable s = s.s_outcome = Running

(* Multi-hart sessions retire instructions on several cpus; fuel
   accounting uses the furthest hart (the shard scheduler hands each
   hart the same per-call fuel, so the max is what bounds progress). *)
let session_retired s =
  match s.s_shard with
  | None -> s.s_ctrl.Controller.cpu.retired
  | Some sh ->
      List.fold_left
        (fun acc (h : Shard.hart) -> max acc h.h_cpu.retired)
        0 (Shard.harts sh)

let session_run ~fuel s =
  match s.s_shard with
  | None -> Controller.run ~fuel s.s_ctrl
  | Some sh -> Shard.run ~fuel sh

let pick_rr t =
  let n = Array.length t.sessions in
  let rec scan k =
    if k >= n then None
    else
      let s = t.sessions.((t.rr_cursor + k) mod n) in
      if runnable s then begin
        t.rr_cursor <- (t.rr_cursor + k + 1) mod n;
        Some s
      end
      else scan (k + 1)
  in
  scan 0

(* One quantum for session [s]. Returns true while the session should
   stay in the schedule. *)
let step ~fuel t s =
  let left = fuel - session_retired s in
  if left <= 0 then begin
    s.s_outcome <- Out_of_fuel;
    false
  end
  else begin
    let slice = min t.fc.quantum left in
    t.now <- s.s_ctrl.cpu.cycles;
    match session_run ~fuel:slice s with
    | Machine.Cpu.Halted ->
        s.s_outcome <- Halted;
        false
    | Machine.Cpu.Out_of_fuel ->
        if fuel - session_retired s <= 0 then begin
          s.s_outcome <- Out_of_fuel;
          false
        end
        else true
    | exception Controller.Chunk_unavailable { vaddr; attempts } ->
        s.s_outcome <- Unavailable { vaddr; attempts };
        false
  end

(* Fifo = serve the least-advanced virtual clock first (the shared-link
   arrival order a real MC would observe); ties break to the lowest
   session id so the schedule is total and deterministic. Heap keys
   cannot go stale while queued — a session's clock only advances when
   it is picked and run, and it is re-pushed with the fresh clock — but
   resumed [run] calls rebuild the heap, and the staleness check keeps
   the pick honest should a future hook ever move a waiting clock. *)
let run_fifo ~fuel t =
  let heap = Clockheap.create ~capacity:(Array.length t.sessions) () in
  Array.iter
    (fun s ->
      if runnable s then
        Clockheap.push heap ~clock:s.s_ctrl.cpu.cycles ~id:s.s_id)
    t.sessions;
  let rec loop () =
    match Clockheap.pop heap with
    | None -> ()
    | Some (clock, id) ->
        let s = t.sessions.(id) in
        if not (runnable s) then loop ()
        else if s.s_ctrl.cpu.cycles <> clock then begin
          Clockheap.push heap ~clock:s.s_ctrl.cpu.cycles ~id;
          loop ()
        end
        else begin
          if step ~fuel t s then
            Clockheap.push heap ~clock:s.s_ctrl.cpu.cycles ~id;
          loop ()
        end
  in
  loop ()

let run ?(fuel = 2_000_000) t =
  match t.fc.fairness with
  | Fifo -> run_fifo ~fuel t
  | Round_robin ->
      let rec loop () =
        match pick_rr t with
        | None -> ()
        | Some s ->
            let (_ : bool) = step ~fuel t s in
            loop ()
      in
      loop ()

(* --- introspection -------------------------------------------------- *)

let session_id s = s.s_id
let controller s = s.s_ctrl
let image s = s.s_image
let shard s = s.s_shard
let predicted_tcache s = s.s_predicted
let outcome s = s.s_outcome
let requested s v = Hashtbl.mem s.s_requested v
let fetches s = s.s_fetches
let session_coalesced s = s.s_coalesced
let stall_samples s = List.rev_map float_of_int s.s_stalls
let config_of t = t.fc
let net t = t.fnet
let sessions t = t.sessions
let attempts t = t.f_attempts
let frames t = t.f_frames
let coalesced t = t.f_coalesced
let piggybacked t = t.f_piggybacked
let cache_hits t = t.f_cache_hits
let cache_misses t = t.f_cache_misses
let cache_entries t = Hashtbl.length t.cache
let cache_evictions t = t.f_cache_evictions
let messages_delta t = Netmodel.messages t.fnet - t.base_messages
let duplicates_delta t = Netmodel.duplicates t.fnet - t.base_duplicates

(* --- metrics -------------------------------------------------------- *)

type client_stats = {
  c_id : int;
  c_outcome : outcome;
  c_cycles : int;
  c_retired : int;
  c_translations : int;
  c_traps : int;
  c_fetches : int;
  c_coalesced : int;
  c_workload : string;
  c_harts : int;
  c_tcache_bytes : int;  (* the size the client was admitted at *)
  c_predicted_bytes : int option;
      (** [Sizing]-predicted smallest acceptable tcache under
          [create ?sizing]; [None] when auto-sizing was off *)
  c_stall_p50 : float option;
      (** [None] when the client recorded no stall samples — e.g. every
          chunk arrived via another client's dedup window before this
          one ever touched the wire. Masking the empty case as 0.0
          would be indistinguishable from a genuinely stall-free
          population; [Report.percentile] itself stays strict. *)
  c_stall_p99 : float option;
}

type summary = {
  f_clients : int;
  f_fairness : fairness;
  f_dedup : bool;
  f_batching : bool;
  f_attempts : int;
  f_frames : int;
  f_coalesced : int;
  f_piggybacked : int;
  f_cache_hits : int;
  f_cache_misses : int;
  f_cache_entries : int;
  f_messages : int;
  f_payload_bytes : int;
  f_wire_bytes : int;
  f_per_client : client_stats list;
}

let client_stats s =
  let c = s.s_ctrl in
  let stalls = stall_samples s in
  let pct p = if stalls = [] then None else Some (Report.percentile p stalls) in
  (* a multi-hart client's wall clock is the shard makespan and its
     work is the sum over harts, not the scheduler-resident cpu *)
  let cycles, retired =
    match s.s_shard with
    | None -> (c.cpu.cycles, c.cpu.retired)
    | Some sh ->
        ( Shard.makespan sh,
          List.fold_left
            (fun acc (h : Shard.hart) -> acc + h.h_cpu.retired)
            0 (Shard.harts sh) )
  in
  {
    c_id = s.s_id;
    c_outcome = s.s_outcome;
    c_cycles = cycles;
    c_retired = retired;
    c_translations = c.stats.Stats.translations;
    c_traps = c.stats.Stats.traps;
    c_fetches = s.s_fetches;
    c_coalesced = s.s_coalesced;
    c_workload = s.s_image.Isa.Image.name;
    c_harts = c.cfg.Config.harts;
    c_tcache_bytes = c.cfg.Config.tcache_bytes;
    c_predicted_bytes = s.s_predicted;
    c_stall_p50 = pct 50.0;
    c_stall_p99 = pct 99.0;
  }

let summary t =
  {
    f_clients = t.fc.clients;
    f_fairness = t.fc.fairness;
    f_dedup = t.fc.dedup;
    f_batching = t.fc.batching;
    f_attempts = t.f_attempts;
    f_frames = t.f_frames;
    f_coalesced = t.f_coalesced;
    f_piggybacked = t.f_piggybacked;
    f_cache_hits = t.f_cache_hits;
    f_cache_misses = t.f_cache_misses;
    f_cache_entries = Hashtbl.length t.cache;
    f_messages = messages_delta t;
    f_payload_bytes = Netmodel.payload_bytes t.fnet - t.base_payload;
    f_wire_bytes = Netmodel.total_bytes t.fnet - t.base_total;
    f_per_client = Array.to_list (Array.map client_stats t.sessions);
  }

let stall_str = function
  | Some v -> Printf.sprintf "%.0f" v
  | None -> "n/a"

let summary_fields t =
  let s = summary t in
  let joined f =
    String.concat ";" (List.map f s.f_per_client)
  in
  let outcome_str c = Format.asprintf "%a" pp_outcome c.c_outcome in
  [
    ("clients", string_of_int s.f_clients);
    ("fairness", fairness_name s.f_fairness);
    ("dedup", string_of_bool s.f_dedup);
    ("batching", string_of_bool s.f_batching);
    ("attempts", string_of_int s.f_attempts);
    ("frames", string_of_int s.f_frames);
    ("coalesced", string_of_int s.f_coalesced);
    ("piggybacked", string_of_int s.f_piggybacked);
    ("cache_hits", string_of_int s.f_cache_hits);
    ("cache_misses", string_of_int s.f_cache_misses);
    ("cache_entries", string_of_int s.f_cache_entries);
    ("messages", string_of_int s.f_messages);
    ("payload_bytes", string_of_int s.f_payload_bytes);
    ("wire_bytes", string_of_int s.f_wire_bytes);
    ("outcomes", joined outcome_str);
    ("cycles", joined (fun c -> string_of_int c.c_cycles));
    ("retired", joined (fun c -> string_of_int c.c_retired));
    ("translations", joined (fun c -> string_of_int c.c_translations));
    ("traps", joined (fun c -> string_of_int c.c_traps));
    ("workloads", joined (fun c -> c.c_workload));
    ("harts", joined (fun c -> string_of_int c.c_harts));
    ("tcache_bytes", joined (fun c -> string_of_int c.c_tcache_bytes));
    ( "predicted_bytes",
      joined (fun c ->
          match c.c_predicted_bytes with
          | Some p -> string_of_int p
          | None -> "n/a") );
    ("stall_p50", joined (fun c -> stall_str c.c_stall_p50));
    ("stall_p99", joined (fun c -> stall_str c.c_stall_p99));
  ]

let print_summary t =
  List.iter (fun (k, v) -> Report.kv k v) (summary_fields t)
