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

let cache_chunks = 256
let quantum = 256

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
  dedup : bool;
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
  mutable tracer : Trace.t option;
}

let trace t ev =
  match t.tracer with Some tr -> Trace.emit tr ev | None -> ()

(* --- shared chunk cache ------------------------------------------- *)

let cache_evict_to_bound t =
  let rec drop () =
    if Hashtbl.length t.cache >= cache_chunks then
      match Queue.take_opt t.cache_order with
      | None -> ()
      | Some old ->
          Hashtbl.remove t.cache old;
          drop ()
  in
  drop ()

(* The dedup cache *is* the CRC-stamp memoizer: a hit means the MC
   already chunked and CRC-stamped this exact content for some client
   and serves the stamp from the shared cache; only misses chunk. The
   memoized value is what Crc32 would return, so installing the hook
   never changes what any client observes — only the MC's books. *)
let crc_stamp t payload =
  if not t.dedup then Crc32.bytes payload
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

(* The earliest clock at which a session can still send a request: a
   multi-hart session's controller cpu is only the hart that ran last,
   so a lagging hart that has not halted bounds it instead. *)
let session_clock s =
  match s.s_shard with
  | None -> s.s_ctrl.cpu.cycles
  | Some sh ->
      List.fold_left
        (fun acc (h : Shard.hart) ->
          if h.h_cpu.halted then acc else min acc h.h_cpu.cycles)
        max_int (Shard.harts sh)

(* Windows may only be reclaimed once no session can still join them.
   Session clocks are not monotone across transport calls (a lagging
   client's [now] is legitimately earlier than a window another client
   opened), so pruning against the *current* requester's clock would
   drop joins. The safe horizon is the minimum clock over sessions that
   can still issue requests. *)
let horizon t =
  Array.fold_left
    (fun acc s ->
      if s.s_outcome = Running then min acc (session_clock s) else acc)
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
  if t.dedup then begin
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
    if t.dedup then
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
      if now < t.link_free_at && now <= t.frame_open_until then begin
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

(* [sizing] is the auto-size admission hook: for client [i] it returns
   the [Sizing.estimate]-predicted smallest acceptable tcache in bytes
   (the caller runs the analytic model — the profiler lives above this
   layer). An under-provisioned client is admitted at the predicted
   size instead of its configured one; the summary reports both. *)
let create ?(clients = 4) ?(dedup = true) ?sizing ~net mk_cfg images =
  if clients < 1 then invalid_arg "Fleet.create: clients must be >= 1";
  if Array.length images = 0 then invalid_arg "Fleet.create: no images";
  let t =
    {
      dedup;
      fnet = net;
      sessions = [||];
      now = 0;
      link_free_at = 0;
      frame_open_until = -1;
      cache = Hashtbl.create 256;
      cache_order = Queue.create ();
      f_cache_hits = 0;
      f_cache_misses = 0;
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
      tracer = None;
    }
  in
  (* the transport hooks close over [t], so the sessions are stitched in
     after the record exists *)
  t.sessions <-
    Array.init clients (fun i ->
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

(* Serve the least-advanced virtual clock first (the shared-link
   arrival order a real MC would observe); ties break to the lowest
   session id so the schedule is total and deterministic. One scan per
   quantum: fleets are a handful of clients. *)
let pick t =
  Array.fold_left
    (fun best s ->
      if not (runnable s) then best
      else
        match best with
        | Some b when b.s_ctrl.cpu.cycles <= s.s_ctrl.cpu.cycles -> best
        | _ -> Some s)
    None t.sessions

(* One quantum for session [s]; a session leaving [Running] drops out
   of the schedule. *)
let step ~fuel t s =
  let left = fuel - session_retired s in
  if left <= 0 then s.s_outcome <- Out_of_fuel
  else begin
    t.now <- s.s_ctrl.cpu.cycles;
    match session_run ~fuel:(min quantum left) s with
    | Machine.Cpu.Halted -> s.s_outcome <- Halted
    | Machine.Cpu.Out_of_fuel ->
        if fuel - session_retired s <= 0 then s.s_outcome <- Out_of_fuel
    | exception Controller.Chunk_unavailable { vaddr; attempts } ->
        s.s_outcome <- Unavailable { vaddr; attempts }
  end

let run ?(fuel = 2_000_000) t =
  let rec loop () =
    match pick t with
    | None -> ()
    | Some s ->
        step ~fuel t s;
        loop ()
  in
  loop ()

(* --- introspection -------------------------------------------------- *)

let session_id s = s.s_id
let controller s = s.s_ctrl
let image s = s.s_image
let shard s = s.s_shard
let requested s v = Hashtbl.mem s.s_requested v
let fetches s = s.s_fetches
let session_coalesced s = s.s_coalesced
let stall_samples s = List.rev_map float_of_int s.s_stalls
let dedup t = t.dedup
let sessions t = t.sessions
let attempts t = t.f_attempts
let frames t = t.f_frames
let coalesced t = t.f_coalesced
let piggybacked t = t.f_piggybacked
let cache_entries t = Hashtbl.length t.cache
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
  c_stall_p50 : float option;
      (* [None] when the client recorded no stall samples — e.g. every
         chunk arrived via another client's dedup window before this
         one ever touched the wire. Masking the empty case as 0.0
         would be indistinguishable from a genuinely stall-free
         population; [Report.percentile] itself stays strict. *)
  c_stall_p99 : float option;
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

let summary_fields t =
  let clients = Array.to_list (Array.map client_stats t.sessions) in
  let joined f = String.concat ";" (List.map f clients) in
  let int = string_of_int in
  let opt f = function Some v -> f v | None -> "n/a" in
  let stall = opt (Printf.sprintf "%.0f") in
  [
    ("clients", int (Array.length t.sessions));
    ("dedup", string_of_bool t.dedup);
    ("attempts", int t.f_attempts);
    ("frames", int t.f_frames);
    ("coalesced", int t.f_coalesced);
    ("piggybacked", int t.f_piggybacked);
    ("cache_hits", int t.f_cache_hits);
    ("cache_misses", int t.f_cache_misses);
    ("cache_entries", int (cache_entries t));
    ("messages", int (messages_delta t));
    ("payload_bytes", int (Netmodel.payload_bytes t.fnet - t.base_payload));
    ("wire_bytes", int (Netmodel.total_bytes t.fnet - t.base_total));
    ("outcomes", joined (fun c -> Format.asprintf "%a" pp_outcome c.c_outcome));
    ("cycles", joined (fun c -> int c.c_cycles));
    ("retired", joined (fun c -> int c.c_retired));
    ("translations", joined (fun c -> int c.c_translations));
    ("traps", joined (fun c -> int c.c_traps));
    ("workloads", joined (fun c -> c.c_workload));
    ("harts", joined (fun c -> int c.c_harts));
    ("tcache_bytes", joined (fun c -> int c.c_tcache_bytes));
    ("predicted_bytes", joined (fun c -> opt int c.c_predicted_bytes));
    ("stall_p50", joined (fun c -> stall c.c_stall_p50));
    ("stall_p99", joined (fun c -> stall c.c_stall_p99));
  ]

let print_summary t =
  List.iter (fun (k, v) -> Report.kv k v) (summary_fields t)
