type chunking = Basic_block | Procedure
type eviction = Flush_all | Fifo | Lru | Trrip

(* The one place the CLI flag, the pretty-printer and the policy sweep
   all draw the valid-policy set from. The name is a total match over
   the constructors; the table lists them in the order everything
   enumerates. *)
let eviction_name = function
  | Fifo -> "fifo"
  | Flush_all -> "flush"
  | Lru -> "lru"
  | Trrip -> "trrip"

let eviction_table =
  List.map (fun e -> (eviction_name e, e)) [ Fifo; Flush_all; Lru; Trrip ]

type granularity = Block | Function

(* Same single-table discipline as [eviction_table]: the CLI flag, the
   pretty-printer and the gransweep grid all read this. *)
let granularity_name = function Block -> "block" | Function -> "function"

let granularity_table =
  List.map (fun g -> (granularity_name g, g)) [ Block; Function ]

type t = {
  tcache_bytes : int;
  chunking : chunking;
  eviction : eviction;
  bind_at_translate : bool;
  net : Netmodel.t;
  engine : Machine.Cpu.engine;
  prefetch_degree : int;
  staging_chunks : int;
  trace_limit : int;
  chain : bool;
  superblock_threshold : int;
  granularity : granularity;
  harts : int;
  shards : int;
  sched_seed : int;
}

let tcache_base = 0x10000
let lookup_cycles = 12
let patch_cycles = 4
let miss_fixed_cycles = 30
let translate_cycles_per_word = 2
let scrub_cycles_per_word = 2
let max_retries = 8
let retry_backoff_cycles = 64
let timeout_cycles = 1000
let quantum = 64

let make ?(tcache_bytes = 48 * 1024) ?(chunking = Basic_block)
    ?(eviction = Fifo) ?(bind_at_translate = true) ?net
    ?(engine = Machine.Cpu.Decoded) ?(prefetch_degree = 0)
    ?(staging_chunks = 8) ?(trace_limit = 65536) ?(chain = false)
    ?(superblock_threshold = 0) ?(granularity = Block) ?(harts = 1)
    ?(shards = 1) ?(sched_seed = 1) () =
  let net = match net with Some n -> n | None -> Netmodel.local () in
  if tcache_bytes < 64 then invalid_arg "Config.make: tcache too small";
  if prefetch_degree < 0 then
    invalid_arg "Config.make: negative prefetch_degree";
  if staging_chunks < 0 then invalid_arg "Config.make: negative staging_chunks";
  if trace_limit <= 0 then invalid_arg "Config.make: trace_limit must be positive";
  if superblock_threshold < 0 then
    invalid_arg "Config.make: negative superblock_threshold";
  if superblock_threshold > 0 && not chain then
    invalid_arg "Config.make: superblock formation requires chaining";
  if granularity = Function && chunking = Procedure then
    invalid_arg
      "Config.make: function granularity subsumes procedure chunking; use \
       basic-block chunking";
  if harts < 1 then invalid_arg "Config.make: harts must be >= 1";
  if shards < 1 then invalid_arg "Config.make: shards must be >= 1";
  if shards > 1 && tcache_bytes < 16 * shards then
    invalid_arg "Config.make: tcache too small for that many shards";
  if shards > 1 && superblock_threshold > 0 then
    invalid_arg
      "Config.make: superblock group reservations are contiguous and break \
       home-shard routing; use shards=1 or superblock_threshold=0";
  {
    tcache_bytes;
    chunking;
    eviction;
    bind_at_translate;
    net;
    engine;
    prefetch_degree;
    staging_chunks;
    trace_limit;
    chain;
    superblock_threshold;
    granularity;
    harts;
    shards;
    sched_seed;
  }

let sparc_prototype ?tcache_bytes () =
  make ?tcache_bytes ~chunking:Basic_block ~eviction:Fifo
    ~net:(Netmodel.local ()) ()

let pp ppf t =
  Format.fprintf ppf "tcache %dB @0x%x, %s chunks, %s eviction%s"
    t.tcache_bytes tcache_base
    (match t.chunking with
    | Basic_block -> "basic-block"
    | Procedure -> "procedure")
    (eviction_name t.eviction)
    (match t.engine with
    | Machine.Cpu.Decoded -> ""
    | Machine.Cpu.Interpretive -> ", interpretive dispatch");
  if t.chain then
    Format.fprintf ppf ", chaining%s"
      (if t.superblock_threshold > 0 then
         Printf.sprintf " + superblocks (threshold %d)" t.superblock_threshold
       else "");
  if t.granularity = Function then
    Format.fprintf ppf ", function granularity (PLT)";
  if t.harts > 1 then Format.fprintf ppf ", %d harts" t.harts;
  if t.shards > 1 then Format.fprintf ppf ", %d shards" t.shards
