(* Branch chaining and superblock bookkeeping.

   Chaining is the paper's rewrite rule applied eagerly: the moment a
   chunk becomes resident, every unresolved exit branch of an
   already-resident block that targets it is patched to jump
   tcache-direct, instead of waiting for each branch to trap once.
   Exits wait in their branches: whether an exit is still unresolved is
   read off its bytes ([trapping]), as the paper keeps cache state in
   the rewritten branches, so no table of waiting exits exists. A
   patched edge is recorded once, on its target; source-side unlinking
   walks the dead block's own exit stubs, which name every edge it can
   have patched.

   Superblocks lay a profile-hot chain of chunks out contiguously
   (Dynamo-style trace formation): one group reservation, members
   installed adjacently in chain order, every internal edge bound
   direct by translate-time residency plus eager chaining. The members
   stay ordinary tcache blocks — the MC keeps their baseline source —
   so de-promotion is pure bookkeeping: when any member dies the group
   dissolves and the survivors revert to independent baseline blocks. *)

open Cc_state

(* Does an exit still wait for its target? Its site holds the revert
   word it was translated with and, for a branch exit, the island the
   branch aims at holds no [Jmp] (an out-of-reach patch specialises the
   island and leaves the site alone). *)
let trapping t ~site_paddr ~kind ~revert_word =
  Machine.Memory.read32 t.cpu.mem site_paddr = revert_word
  &&
  match kind with
  | Stub.Patch_br ->
    let island = Isa.Encode.branch_target ~site:site_paddr revert_word in
    island = Isa.Encode.none
    || Isa.Encode.form (Machine.Memory.read32 t.cpu.mem island)
       <> Isa.Encode.Jmp
  | Stub.Patch_jmp | Stub.Patch_jal -> true

(* Patch one unresolved exit stub [k] to jump straight at
   [target_block]. Shared by the lazy trap path (patch on first use)
   and the eager install path ([chain_install]); [eager] selects which
   statistic advances. The caller passes the stub fields it captured
   *before* any translation could recycle entry [k]. *)
let patch_exit t k ~eager ~block ~site_paddr ~kind ~revert_word
    (target_block : Tcache.block) =
  (* only a waiting exit needs patching: the trap path's own
     [ensure_resident] can have chained this very exit eagerly while
     translating the target, and a source that no longer owns the site
     died (block ids are never reused), so entry [k] may have been
     recycled and the captured fields are stale *)
  if
    Tcache.owns t.tc ~id:block site_paddr
    && trapping t ~site_paddr ~kind ~revert_word
  then begin
    let p = target_block.paddr in
    let d = (p - site_paddr) asr 2 in
    (* where the patch lands: the site itself, or, for a branch out of
       reach, the island it aims at instead (the island's offset is
       encoded in the revert word, so the eager path finds it without
       having trapped there) *)
    let at =
      match kind with
      | Stub.Patch_br when not (Isa.Encode.branch_offset_fits d) ->
        Isa.Encode.branch_target ~site:site_paddr revert_word
      | Stub.Patch_br | Stub.Patch_jmp | Stub.Patch_jal -> site_paddr
    in
    let word =
      match kind with
      | Stub.Patch_jal -> Isa.Encode.jal p
      | Stub.Patch_br when at = site_paddr ->
        Isa.Encode.with_branch_offset revert_word d
      | Stub.Patch_br | Stub.Patch_jmp -> Isa.Encode.jmp p
    in
    (* a specialised island reverts to its trap *)
    let revert_word =
      if at = site_paddr then revert_word else Isa.Encode.trap k
    in
    if eager then t.stats.chained <- t.stats.chained + 1;
    specialise t ~at ~site:site_paddr ~word target_block ~from_block:block
      ~revert_word ~stub:k
  end

(* The eager rewrite sweep: offer every exit aimed at the block that
   just became resident to [patch_exit], in stub order. Its guard skips
   the dead (a recycled or free entry's captured source) and the
   already patched, so exactly the waiting exits are patched. *)
let chain_install t (b : Tcache.block) =
  if t.cfg.chain then
    for k = 0 to t.nstubs - 1 do
      match t.stubs.(k) with
      | Stub.Exit { block; site_paddr; kind; target; revert_word }
        when target = b.vaddr ->
        patch_exit t k ~eager:true ~block ~site_paddr ~kind ~revert_word b
      | _ -> ()
    done

(* [l] without the records whose source is block [id], in order; the
   list itself when it has none. *)
let rec without_source id = function
  | [] -> []
  | (i : Tcache.incoming) :: rest as l ->
    let rest' = without_source id rest in
    if i.from_block = id then rest' else if rest' == rest then l
    else i :: rest'

let rec unlink_stubs t id = function
  | [] -> ()
  | k :: ks ->
    (match t.stubs.(k) with
    | Stub.Exit { target; site_paddr; kind; revert_word; _ }
      when not (trapping t ~site_paddr ~kind ~revert_word) -> (
      match Tcache.lookup t.tc target with
      | Some tb -> tb.incoming <- without_source id tb.incoming
      | None -> ())
    | _ -> ());
    unlink_stubs t id ks

(* Source-side unlinking: when a block dies, its own outgoing patches
   die with its memory, so the matching incoming records on still-live
   targets are stale — prune them. The dead block's [Exit] stubs name
   every target it can have patched (its stubs are recycled only after
   this runs), and only an exit that no longer traps has a record on
   its target (its words are still intact: a victim's memory is reused
   only after this runs). Without this, incoming lists accumulate
   records from dead sources for the life of the target. *)
let unlink_sources t victims =
  List.iter (fun (b : Tcache.block) -> unlink_stubs t b.id b.stubs) victims

(* ---- superblock bookkeeping ---- *)

let max_superblock_members = 8

let register_superblock t ~head (members : Tcache.block list) =
  let sb = t.next_sb_id in
  t.next_sb_id <- sb + 1;
  let ids = List.map (fun (b : Tcache.block) -> b.Tcache.id) members in
  Hashtbl.replace t.superblocks sb { sb_head = head; sb_members = ids };
  List.iter (fun id -> Hashtbl.replace t.sb_of_block id sb) ids;
  t.stats.superblocks <- t.stats.superblocks + 1;
  t.stats.superblock_blocks <- t.stats.superblock_blocks + List.length ids;
  let bytes =
    List.fold_left (fun a (b : Tcache.block) -> a + (4 * b.words)) 0 members
  in
  trace t (Trace.Cc_promote { head; members = List.length ids; bytes });
  emit_event t (Promoted (List.length ids));
  sb

(* De-promotion: any member eviction dissolves the whole group (the
   baseline chunks are retained MC-side, so survivors simply continue
   as independent blocks and the chain re-forms if it stays hot). *)
let dissolve_superblock t (b : Tcache.block) =
  match Hashtbl.find_opt t.sb_of_block b.id with
  | None -> ()
  | Some sb -> (
    match Hashtbl.find_opt t.superblocks sb with
    | Some { sb_head; sb_members } ->
      List.iter (fun id -> Hashtbl.remove t.sb_of_block id) sb_members;
      Hashtbl.remove t.superblocks sb;
      t.stats.depromotions <- t.stats.depromotions + 1;
      trace t
        (Trace.Cc_depromote
           { head = sb_head; members = List.length sb_members })
    | None -> Hashtbl.remove t.sb_of_block b.id)

(* ---- the profile-derived chain oracle ----

   Maps a chunk vaddr to its hottest observed successor chunk and that
   edge's temperature. Built from [Profiler] edge counts, but the
   profiler dependency stays inverted: the caller passes the two query
   functions ([Profiler.edges_from prof] and a [samples_in] thunk), so
   [lib/core] never links against [lib/profiler]. *)
let oracle_of_profile ~image ~chunking ~edges_from ~samples_at =
  fun v ->
    match Chunker.chunk_at image chunking v with
    | exception _ -> None
    | c -> (
      let n = c.len in
      let last = c.vaddr + (4 * (n - 1)) in
      let term = Isa.Encode.form (Chunker.word c (n - 1)) in
      match term with
      | Jr | Jalr | Halt -> None (* no static successor *)
      | _ ->
        let taken = edges_from last in
        let candidates =
          match term with
          | Jmp | Jal -> taken
          | _ ->
            (* fall-through heat: samples at the terminator minus its
               taken transfers *)
            let out = List.fold_left (fun a (_, c) -> a + c) 0 taken in
            let fall = c.vaddr + (4 * n) in
            let fc = max 0 (samples_at last - out) in
            if fc > 0 then (fall, fc) :: taken else taken
        in
        List.fold_left
          (fun best (tv, cnt) ->
            if not (Isa.Image.contains_code image tv) then best
            else
              match best with
              | Some (_, bc) when bc >= cnt -> best
              | _ -> Some (tv, cnt))
          None candidates)
