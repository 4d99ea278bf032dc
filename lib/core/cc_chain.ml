(* Branch chaining and superblock bookkeeping.

   Chaining is the paper's rewrite rule applied eagerly: the moment a
   chunk becomes resident, every unresolved exit branch of an
   already-resident block that targets it is patched to jump
   tcache-direct, instead of waiting for each branch to trap once. The
   [pending_exits] index (target vaddr -> waiting exit stubs) makes the
   install-time sweep O(predecessors). A patched edge is recorded once,
   on its target; source-side unlinking walks the dead block's own
   exit stubs, which name every edge it can have patched. The index
   lives in [Cc_state]; this module owns the transitions.

   Superblocks lay a profile-hot chain of chunks out contiguously
   (Dynamo-style trace formation): one group reservation, members
   installed adjacently in chain order, every internal edge bound
   direct by translate-time residency plus eager chaining. The members
   stay ordinary tcache blocks — the MC keeps their baseline source —
   so de-promotion is pure bookkeeping: when any member dies the group
   dissolves and the survivors revert to independent baseline blocks. *)

open Cc_state

(* Patch one unresolved exit stub [k] to jump straight at
   [target_block]. Shared by the lazy trap path (patch on first use)
   and the eager install path ([chain_install]); [eager] selects which
   statistic advances. The caller passes the stub fields it captured
   *before* any translation could recycle entry [k]: the
   [Tcache.is_alive block] guard then rejects a stale capture. *)
let patch_exit t k ~eager ~block ~site_paddr ~kind ~target ~revert_word
    (target_block : Tcache.block) =
  (* only a still-pending stub needs patching: the trap path's own
     [ensure_resident] can have chained this very stub eagerly while
     translating the target (and a dead owner means entry [k] was
     recycled — the captured fields are stale) *)
  if pending_mem t ~target k && Tcache.is_alive t.tc block then begin
    let p = target_block.paddr in
    let d = (p - site_paddr) asr 2 in
    let site_word = Machine.Memory.read32 t.cpu.mem site_paddr in
    (* where the patch lands: the site itself, or, for a branch out of
       reach, the island it aims at instead (the island's offset is
       encoded in the revert word, so the eager path finds it without
       having trapped there); [none] when the site no longer holds the
       branch it was translated with *)
    let at =
      match kind with
      | Stub.Patch_jmp | Stub.Patch_jal -> site_paddr
      | Stub.Patch_br ->
        if
          Isa.Encode.branch_target ~site:site_paddr site_word
          = Isa.Encode.none
        then Isa.Encode.none
        else if Isa.Encode.branch_offset_fits d then site_paddr
        else Isa.Encode.branch_target ~site:site_paddr revert_word
    in
    if at <> Isa.Encode.none then begin
      let word =
        match kind with
        | Stub.Patch_jal -> Isa.Encode.jal p
        | Stub.Patch_br when at = site_paddr ->
          Isa.Encode.with_branch_offset site_word d
        | Stub.Patch_br | Stub.Patch_jmp -> Isa.Encode.jmp p
      in
      (* a specialised island reverts to its trap *)
      let revert_word =
        if at = site_paddr then revert_word else Isa.Encode.trap k
      in
      (* the index forgets [k] before [specialise] announces the patch,
         so an auditor on [Patched] sees it already updated *)
      pending_remove t ~target k;
      if eager then t.stats.chained <- t.stats.chained + 1;
      specialise t ~at ~site:site_paddr ~word target_block ~from_block:block
        ~revert_word ~stub:k
    end
  end

(* Index a fresh block's still-unresolved exits by target vaddr. A
   site whose word differs from its revert word was bound at translate
   time and needs no entry. Maintained whether or not chaining is on —
   the index is part of the audited state either way. *)
let register_pending t (b : Tcache.block) =
  List.iter
    (fun k ->
      match t.stubs.(k) with
      | Stub.Exit { target; site_paddr; revert_word; _ } ->
        if Machine.Memory.read32 t.cpu.mem site_paddr = revert_word then
          pending_add t ~target k
      | _ -> ())
    b.stubs

(* The eager rewrite sweep: patch every exit already waiting for the
   block that just became resident. *)
let chain_install t (b : Tcache.block) =
  if t.cfg.chain then
    List.iter
      (fun k ->
        match t.stubs.(k) with
        | Stub.Exit { block; site_paddr; kind; target; revert_word }
          when target = b.vaddr ->
          patch_exit t k ~eager:true ~block ~site_paddr ~kind ~target
            ~revert_word b
        | _ -> ())
      (pending_at t b.vaddr)

(* Source-side unlinking: when a block dies, its own outgoing patches
   die with its memory, so the matching incoming records on still-live
   targets are stale — prune them. The dead block's [Exit] stubs name
   every target it can have patched (its stubs are recycled only after
   this runs). Without this, incoming lists accumulate records from
   dead sources for the life of the target. *)
let unlink_sources t victims =
  List.iter
    (fun (b : Tcache.block) ->
      let names_b (i : Tcache.incoming) = i.from_block = b.id in
      List.iter
        (fun k ->
          match t.stubs.(k) with
          | Stub.Exit { target; _ } -> (
            match Tcache.lookup t.tc target with
            | Some tb when List.exists names_b tb.incoming ->
              tb.incoming <-
                List.filter (fun i -> not (names_b i)) tb.incoming
            | Some _ | None -> ())
          | _ -> ())
        b.stubs)
    victims

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
