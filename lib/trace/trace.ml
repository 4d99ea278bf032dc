type fault = Drop | Corrupt | Duplicate | Delay_spike

type evict_reason = Victim | Collateral | Stub_growth | Invalidated | Flushed

type event =
  | Cc_miss of { pc : int }
  | Cc_translated of { chunk : int; base : int; words : int }
  | Cc_backpatch of { site : int; target : int }
  | Cc_unpatch of { site : int; target : int }
  | Cc_promote of { head : int; members : int; bytes : int }
  | Cc_depromote of { head : int; members : int }
  | Cc_evict of {
      chunk : int;
      base : int;
      bytes : int;
      incoming : int;
      reason : evict_reason;
    }
  | Cc_flush of { chunks : int }
  | Cc_invalidate of { chunks : int }
  | Cc_staged_install of { chunk : int }
  | Cc_retry of { chunk : int; attempt : int }
  | Cc_degrade of { chunk : int; bytes : int }
    (* a function-granularity unit fell back to block granularity;
       [bytes] is the extent of the degraded function *)
  | Tc_alloc of { chunk : int; base : int; bytes : int }
  | Net_send of { bytes : int; segments : int }
  | Net_recv of { bytes : int; cycles : int }
  | Net_fault of { fault : fault }
  | Fl_request of { client : int; chunk : int }
  | Fl_coalesce of { client : int; chunk : int; wait : int }
  | Fl_frame of { client : int; segments : int; queued : int }
  | Fl_piggyback of { client : int; bytes : int }
  | Fl_stall of { client : int; cycles : int }
    (* one client-observed transport stall sample, emitted where the
       fleet records it for the stall percentiles *)
  | Sh_fill of { hart : int; chunk : int; wait : int }
    (* a hart missed an absent chunk and owned its fill; [wait] is
       the MC-serialization wait it paid before issuing *)
  | Sh_coalesce of { hart : int; chunk : int; wait : int }
    (* a duplicate miss joined another hart's in-flight fill instead of
       re-requesting over the wire; [wait] until that fill lands *)
  | Dc_specialise of { site : int }
  | Dc_deopt of { site : int }
  | Dc_miss of { addr : int }
  | Dc_spill of { words : int }
  | Dc_refill of { words : int }

let fault_name = function
  | Drop -> "drop"
  | Corrupt -> "corrupt"
  | Duplicate -> "duplicate"
  | Delay_spike -> "delay_spike"

let evict_reason_name = function
  | Victim -> "victim"
  | Collateral -> "collateral"
  | Stub_growth -> "stub_growth"
  | Invalidated -> "invalidated"
  | Flushed -> "flushed"

let event_type = function
  | Cc_miss _ -> "cc_miss"
  | Cc_translated _ -> "cc_translated"
  | Cc_backpatch _ -> "cc_backpatch"
  | Cc_unpatch _ -> "cc_unpatch"
  | Cc_promote _ -> "cc_promote"
  | Cc_depromote _ -> "cc_depromote"
  | Cc_evict _ -> "cc_evict"
  | Cc_flush _ -> "cc_flush"
  | Cc_invalidate _ -> "cc_invalidate"
  | Cc_staged_install _ -> "cc_staged_install"
  | Cc_retry _ -> "cc_retry"
  | Cc_degrade _ -> "cc_degrade"
  | Tc_alloc _ -> "tc_alloc"
  | Net_send _ -> "net_send"
  | Net_recv _ -> "net_recv"
  | Net_fault _ -> "net_fault"
  | Fl_request _ -> "fl_request"
  | Fl_coalesce _ -> "fl_coalesce"
  | Fl_frame _ -> "fl_frame"
  | Fl_piggyback _ -> "fl_piggyback"
  | Fl_stall _ -> "fl_stall"
  | Sh_fill _ -> "sh_fill"
  | Sh_coalesce _ -> "sh_coalesce"
  | Dc_specialise _ -> "dc_specialise"
  | Dc_deopt _ -> "dc_deopt"
  | Dc_miss _ -> "dc_miss"
  | Dc_spill _ -> "dc_spill"
  | Dc_refill _ -> "dc_refill"

(* The JSONL schema: every event is its type tag plus these integer
   fields, and at most one string [label]. The exporters write them;
   the validator reads the same two functions off [exemplars]. *)
let fields = function
  | Cc_miss { pc } -> [ ("pc", pc) ]
  | Cc_translated { chunk; base; words } ->
      [ ("chunk", chunk); ("base", base); ("words", words) ]
  | Cc_backpatch { site; target } -> [ ("site", site); ("target", target) ]
  | Cc_unpatch { site; target } -> [ ("site", site); ("target", target) ]
  | Cc_promote { head; members; bytes } ->
      [ ("head", head); ("members", members); ("bytes", bytes) ]
  | Cc_depromote { head; members } ->
      [ ("head", head); ("members", members) ]
  | Cc_evict { chunk; base; bytes; incoming; reason = _ } ->
      [ ("chunk", chunk); ("base", base); ("bytes", bytes);
        ("incoming", incoming) ]
  | Cc_flush { chunks } -> [ ("chunks", chunks) ]
  | Cc_invalidate { chunks } -> [ ("chunks", chunks) ]
  | Cc_staged_install { chunk } -> [ ("chunk", chunk) ]
  | Cc_retry { chunk; attempt } -> [ ("chunk", chunk); ("attempt", attempt) ]
  | Cc_degrade { chunk; bytes } -> [ ("chunk", chunk); ("bytes", bytes) ]
  | Tc_alloc { chunk; base; bytes } ->
      [ ("chunk", chunk); ("base", base); ("bytes", bytes) ]
  | Net_send { bytes; segments } ->
      [ ("bytes", bytes); ("segments", segments) ]
  | Net_recv { bytes; cycles } -> [ ("bytes", bytes); ("cycles", cycles) ]
  | Net_fault _ -> []
  | Fl_request { client; chunk } -> [ ("client", client); ("chunk", chunk) ]
  | Fl_coalesce { client; chunk; wait } ->
      [ ("client", client); ("chunk", chunk); ("wait", wait) ]
  | Fl_frame { client; segments; queued } ->
      [ ("client", client); ("segments", segments); ("queued", queued) ]
  | Fl_piggyback { client; bytes } ->
      [ ("client", client); ("bytes", bytes) ]
  | Fl_stall { client; cycles } ->
      [ ("client", client); ("cycles", cycles) ]
  | Sh_fill { hart; chunk; wait } ->
      [ ("hart", hart); ("chunk", chunk); ("wait", wait) ]
  | Sh_coalesce { hart; chunk; wait } ->
      [ ("hart", hart); ("chunk", chunk); ("wait", wait) ]
  | Dc_specialise { site } -> [ ("site", site) ]
  | Dc_deopt { site } -> [ ("site", site) ]
  | Dc_miss { addr } -> [ ("addr", addr) ]
  | Dc_spill { words } -> [ ("words", words) ]
  | Dc_refill { words } -> [ ("words", words) ]

let label = function
  | Net_fault { fault } -> Some ("fault", fault_name fault)
  | Cc_evict { reason; _ } -> Some ("reason", evict_reason_name reason)
  | _ -> None

let exemplars =
  [
    Cc_miss { pc = 0x100 };
    Cc_translated { chunk = 0x100; base = 0x10000; words = 8 };
    Cc_backpatch { site = 0x10010; target = 0x10020 };
    Cc_unpatch { site = 0x10010; target = 0x10020 };
    Cc_promote { head = 0x100; members = 3; bytes = 96 };
    Cc_depromote { head = 0x100; members = 3 };
    Cc_evict
      { chunk = 0x100; base = 0x10000; bytes = 32; incoming = 1;
        reason = Victim };
    Cc_flush { chunks = 4 };
    Cc_invalidate { chunks = 2 };
    Cc_staged_install { chunk = 0x140 };
    Cc_retry { chunk = 0x140; attempt = 1 };
    Cc_degrade { chunk = 0x200; bytes = 512 };
    Tc_alloc { chunk = 0x100; base = 0x10000; bytes = 32 };
    Net_send { bytes = 64; segments = 2 };
    Net_recv { bytes = 64; cycles = 1200 };
    Net_fault { fault = Drop };
    Fl_request { client = 1; chunk = 0x100 };
    Fl_coalesce { client = 1; chunk = 0x100; wait = 50 };
    Fl_frame { client = 0; segments = 1; queued = 10 };
    Fl_piggyback { client = 2; bytes = 24 };
    Fl_stall { client = 1; cycles = 300 };
    Sh_fill { hart = 0; chunk = 0x100; wait = 20 };
    Sh_coalesce { hart = 1; chunk = 0x100; wait = 40 };
    Dc_specialise { site = 0x300 };
    Dc_deopt { site = 0x300 };
    Dc_miss { addr = 0x8000 };
    Dc_spill { words = 16 };
    Dc_refill { words = 16 };
  ]

(* The exemplar of type tag [ty], if the tag is known. *)
let exemplar ty = List.find_opt (fun ev -> event_type ev = ty) exemplars

(* Every value a label may take, by its key. *)
let label_values = function
  | "fault" -> List.map fault_name [ Drop; Corrupt; Duplicate; Delay_spike ]
  | "reason" ->
    List.map evict_reason_name
      [ Victim; Collateral; Stub_growth; Invalidated; Flushed ]
  | _ -> []

let pp_event ppf ev =
  Format.fprintf ppf "%s" (event_type ev);
  Option.iter (fun (k, v) -> Format.fprintf ppf " %s=%s" k v) (label ev);
  List.iter (fun (k, v) -> Format.fprintf ppf " %s=%d" k v) (fields ev)

(* ---------------------------------------------------------------- *)

type t = {
  ring : (int * event) array;
  cap : int;
  mutable n : int;  (* total emitted, including overwritten *)
  mutable clock : unit -> int;
  mutable last_sync : int;
  mutable execute : int;
  mutable translate : int;
  mutable wire : int;
  mutable trap : int;
  mutable dcache : int;
  mutable patch : int;
  mutable scrub : int;
  mutable lookup : int;
}

let create ?(limit = 65536) () =
  if limit <= 0 then invalid_arg "Trace.create: limit must be positive";
  {
    ring = Array.make limit (0, Cc_flush { chunks = 0 });
    cap = limit;
    n = 0;
    clock = (fun () -> 0);
    last_sync = 0;
    execute = 0;
    translate = 0;
    wire = 0;
    trap = 0;
    dcache = 0;
    patch = 0;
    scrub = 0;
    lookup = 0;
  }

let set_clock t f =
  t.clock <- f;
  t.last_sync <- f ()

let emit t ev =
  t.ring.(t.n mod t.cap) <- (t.clock (), ev);
  t.n <- t.n + 1

let emitted t = t.n
let dropped t = if t.n > t.cap then t.n - t.cap else 0
let capacity t = t.cap

let events t =
  let len = min t.n t.cap in
  let first = if t.n > t.cap then t.n mod t.cap else 0 in
  List.init len (fun i -> t.ring.((first + i) mod t.cap))

(* ---- cycle attribution ----------------------------------------- *)

type category =
  | Execute
  | Translate
  | Wire
  | Trap
  | Dcache
  | Patch
  | Scrub
  | Lookup

let bump t cat c =
  match cat with
  | Execute -> t.execute <- t.execute + c
  | Translate -> t.translate <- t.translate + c
  | Wire -> t.wire <- t.wire + c
  | Trap -> t.trap <- t.trap + c
  | Dcache -> t.dcache <- t.dcache + c
  | Patch -> t.patch <- t.patch + c
  | Scrub -> t.scrub <- t.scrub + c
  | Lookup -> t.lookup <- t.lookup + c

let attribute t cat c =
  let now = t.clock () in
  t.execute <- t.execute + (now - t.last_sync);
  bump t cat c;
  t.last_sync <- now + c

let attribute_included t cat c =
  let now = t.clock () in
  t.execute <- t.execute + (now - c - t.last_sync);
  bump t cat c;
  t.last_sync <- now

let sync t =
  let now = t.clock () in
  t.execute <- t.execute + (now - t.last_sync);
  t.last_sync <- now

type summary = {
  s_execute : int;
  s_translate : int;
  s_wire : int;
  s_trap : int;
  s_dcache : int;
  s_patch : int;
  s_scrub : int;
  s_lookup : int;
  s_total : int;
  s_emitted : int;
  s_dropped : int;
  s_capacity : int;
}

let summary t =
  sync t;
  {
    s_execute = t.execute;
    s_translate = t.translate;
    s_wire = t.wire;
    s_trap = t.trap;
    s_dcache = t.dcache;
    s_patch = t.patch;
    s_scrub = t.scrub;
    s_lookup = t.lookup;
    s_total =
      t.execute + t.translate + t.wire + t.trap + t.dcache + t.patch
      + t.scrub + t.lookup;
    s_emitted = t.n;
    s_dropped = dropped t;
    s_capacity = t.cap;
  }

let conserved t ~total = (summary t).s_total = total

(* ---- exporters -------------------------------------------------- *)

let json_escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let add_event_fields b ev =
  Option.iter
    (fun (k, v) ->
      Buffer.add_string b (Printf.sprintf ",%S:\"" k);
      json_escape b v;
      Buffer.add_string b "\"")
    (label ev);
  List.iter
    (fun (k, v) -> Buffer.add_string b (Printf.sprintf ",%S:%d" k v))
    (fields ev)

let to_jsonl t =
  let b = Buffer.create 4096 in
  List.iter
    (fun (cycle, ev) ->
      Buffer.add_string b
        (Printf.sprintf "{\"cycle\":%d,\"type\":%S" cycle (event_type ev));
      add_event_fields b ev;
      Buffer.add_string b "}\n")
    (events t);
  Buffer.contents b

(* Chrome trace-event rendering: one process, one thread per layer,
   instant events for every ring entry, and tcache residency as async
   spans keyed by chunk id. A single pass in stamp order keeps the
   timestamps nondecreasing across the whole file. The ring is in
   stamp order already unless harts share it: each stamps from its own
   clock. The sort is stable, so a one-clock ring renders unchanged. *)

let tid_of_event ev =
  match ev with
  | Cc_miss _ | Cc_translated _ | Cc_backpatch _ | Cc_unpatch _
  | Cc_promote _ | Cc_depromote _ | Cc_evict _ | Cc_flush _
  | Cc_invalidate _ | Cc_staged_install _ | Cc_retry _ | Cc_degrade _ ->
      1
  | Tc_alloc _ -> 2
  | Net_send _ | Net_recv _ | Net_fault _ -> 3
  | Dc_specialise _ | Dc_deopt _ | Dc_miss _ | Dc_spill _ | Dc_refill _ -> 4
  | Fl_request _ | Fl_coalesce _ | Fl_frame _ | Fl_piggyback _ | Fl_stall _ ->
      6
  | Sh_fill _ | Sh_coalesce _ -> 7

let residency_tid = 5

let to_chrome t =
  let b = Buffer.create 8192 in
  let sep = ref "" in
  let add fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string b !sep;
        sep := ",\n";
        Buffer.add_string b s)
      fmt
  in
  Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  List.iter
    (fun (tid, name) ->
      add
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":%S}}"
        tid name)
    [
      (1, "controller");
      (2, "tcache");
      (3, "network");
      (4, "dcache");
      (residency_tid, "tcache residency");
      (6, "fleet");
      (7, "harts");
    ];
  let open_spans = Hashtbl.create 64 in
  let span ph cycle chunk =
    add
      "{\"name\":\"chunk-%x\",\"cat\":\"residency\",\"ph\":%S,\"id\":%d,\"ts\":%d,\"pid\":1,\"tid\":%d}"
      chunk ph chunk cycle residency_tid
  in
  let open_span cycle chunk =
    if Hashtbl.mem open_spans chunk then span "e" cycle chunk;
    Hashtbl.replace open_spans chunk ();
    span "b" cycle chunk
  in
  let close_span cycle chunk =
    if Hashtbl.mem open_spans chunk then begin
      Hashtbl.remove open_spans chunk;
      span "e" cycle chunk
    end
  in
  let close_all cycle =
    let chunks = Hashtbl.fold (fun k () acc -> k :: acc) open_spans [] in
    List.iter (close_span cycle) (List.sort compare chunks)
  in
  let last_cycle = ref 0 in
  List.iter
    (fun (cycle, ev) ->
      last_cycle := cycle;
      let eb = Buffer.create 64 in
      add_event_fields eb ev;
      (* drop the leading comma of the field rendering *)
      let args = Buffer.contents eb in
      let args = if args = "" then "" else String.sub args 1 (String.length args - 1) in
      add
        "{\"name\":%S,\"ph\":\"i\",\"s\":\"t\",\"ts\":%d,\"pid\":1,\"tid\":%d,\"args\":{%s}}"
        (event_type ev) cycle (tid_of_event ev) args;
      (* the controller emits a [Cc_evict] per victim on every path —
         FIFO eviction, invalidation and flush (where pinned blocks
         survive) — so eviction events alone delimit residency *)
      match ev with
      | Cc_translated { chunk; _ } -> open_span cycle chunk
      | Cc_evict { chunk; _ } -> close_span cycle chunk
      | _ -> ())
    (List.stable_sort (fun (a, _) (b, _) -> compare a b) (events t));
  close_all !last_cycle;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

let export t ~format path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc
        (match format with `Jsonl -> to_jsonl t | `Chrome -> to_chrome t))

(* ---- minimal JSON parser (no external deps available) ----------- *)

module Json = struct
  type value =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of value list
    | Obj of (string * value) list

  exception Fail of string

  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Fail (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let skip_ws () =
      while
        !pos < n
        && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
      do
        advance ()
      done
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected %C" c)
    in
    let literal lit v =
      let l = String.length lit in
      if !pos + l <= n && String.sub s !pos l = lit then begin
        pos := !pos + l;
        v
      end
      else fail (Printf.sprintf "expected %s" lit)
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string";
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            (if !pos >= n then fail "unterminated escape"
             else
               match s.[!pos] with
               | '"' -> Buffer.add_char b '"'; advance ()
               | '\\' -> Buffer.add_char b '\\'; advance ()
               | '/' -> Buffer.add_char b '/'; advance ()
               | 'n' -> Buffer.add_char b '\n'; advance ()
               | 't' -> Buffer.add_char b '\t'; advance ()
               | 'r' -> Buffer.add_char b '\r'; advance ()
               | 'b' -> Buffer.add_char b '\b'; advance ()
               | 'f' -> Buffer.add_char b '\012'; advance ()
               | 'u' ->
                   advance ();
                   if !pos + 4 > n then fail "truncated \\u escape";
                   let hex = String.sub s !pos 4 in
                   let code =
                     try int_of_string ("0x" ^ hex)
                     with _ -> fail "bad \\u escape"
                   in
                   pos := !pos + 4;
                   (* enough for our ASCII-only exports *)
                   if code < 0x80 then Buffer.add_char b (Char.chr code)
                   else Buffer.add_string b (Printf.sprintf "\\u%s" hex)
               | c -> fail (Printf.sprintf "bad escape %C" c));
            go ()
        | c when Char.code c < 0x20 -> fail "control char in string"
        | c ->
            Buffer.add_char b c;
            advance ();
            go ()
      in
      go ();
      Buffer.contents b
    in
    let parse_number () =
      let start = !pos in
      let numchar c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && numchar s.[!pos] do
        advance ()
      done;
      let lit = String.sub s start (!pos - start) in
      match float_of_string_opt lit with
      | Some f -> f
      | None -> fail (Printf.sprintf "bad number %S" lit)
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin
            advance ();
            Obj []
          end
          else begin
            let rec members acc =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  members ((k, v) :: acc)
              | Some '}' ->
                  advance ();
                  List.rev ((k, v) :: acc)
              | _ -> fail "expected ',' or '}'"
            in
            Obj (members [])
          end
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin
            advance ();
            Arr []
          end
          else begin
            let rec elements acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  elements (v :: acc)
              | Some ']' ->
                  advance ();
                  List.rev (v :: acc)
              | _ -> fail "expected ',' or ']'"
            in
            Arr (elements [])
          end
      | Some '"' -> Str (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> Num (parse_number ())
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Fail msg -> Error msg

  let member k = function
    | Obj kvs -> List.assoc_opt k kvs
    | _ -> None
end

(* ---- schema validation ------------------------------------------ *)

module Schema = struct
  let int_member k v =
    match Json.member k v with
    | Some (Json.Num f) when Float.is_integer f -> Some (int_of_float f)
    | _ -> None

  let validate_event_obj v =
    match v with
    | Json.Obj kvs -> (
        match int_member "cycle" v with
        | None -> Error "missing or non-integer \"cycle\""
        | Some c when c < 0 -> Error "negative \"cycle\""
        | Some _ -> (
            match Json.member "type" v with
            | Some (Json.Str ty) -> (
                match exemplar ty with
                | None -> Error (Printf.sprintf "unknown event type %S" ty)
                | Some ex -> (
                    let required = List.map fst (fields ex) in
                    let label_key = Option.map fst (label ex) in
                    let missing =
                      List.filter
                        (fun f -> int_member f v = None)
                        required
                    in
                    let extra =
                      List.filter
                        (fun (k, _) ->
                          (not (List.mem k required))
                          && k <> "cycle" && k <> "type"
                          && Some k <> label_key)
                        kvs
                    in
                    if missing <> [] then
                      Error
                        (Printf.sprintf "%s: missing field %S" ty
                           (List.hd missing))
                    else if extra <> [] then
                      Error
                        (Printf.sprintf "%s: unexpected field %S" ty
                           (fst (List.hd extra)))
                    else
                      match label_key with
                      | Some k
                        when match Json.member k v with
                             | Some (Json.Str s) ->
                                 not (List.mem s (label_values k))
                             | _ -> true ->
                          Error (Printf.sprintf "%s: bad %S value" ty k)
                      | _ -> Ok ()))
            | _ -> Error "missing or non-string \"type\""))
    | _ -> Error "event is not an object"

  let validate_jsonl_line line =
    match Json.parse line with
    | Error e -> Error (Printf.sprintf "malformed JSON: %s" e)
    | Ok v -> validate_event_obj v

  let validate_jsonl text =
    let lines = String.split_on_char '\n' text in
    let rec go i count = function
      | [] -> Ok count
      | "" :: rest -> go (i + 1) count rest
      | line :: rest -> (
          match validate_jsonl_line line with
          | Ok () -> go (i + 1) (count + 1) rest
          | Error e -> Error (Printf.sprintf "line %d: %s" i e))
    in
    go 1 0 lines

  let validate_chrome text =
    match Json.parse text with
    | Error e -> Error (Printf.sprintf "malformed JSON: %s" e)
    | Ok v -> (
        match Json.member "traceEvents" v with
        | Some (Json.Arr evs) ->
            let last_ts = ref neg_infinity in
            let open_async = Hashtbl.create 16 in
            let rec go i count = function
              | [] ->
                  if Hashtbl.length open_async > 0 then
                    Error "unclosed async span"
                  else Ok count
              | e :: rest -> (
                  let str k =
                    match Json.member k e with
                    | Some (Json.Str s) -> Some s
                    | _ -> None
                  in
                  let num k =
                    match Json.member k e with
                    | Some (Json.Num f) -> Some f
                    | _ -> None
                  in
                  match (str "name", str "ph", num "pid", num "tid") with
                  | None, _, _, _ ->
                      Error (Printf.sprintf "event %d: missing name" i)
                  | _, None, _, _ ->
                      Error (Printf.sprintf "event %d: missing ph" i)
                  | _, _, None, _ ->
                      Error (Printf.sprintf "event %d: missing pid" i)
                  | _, _, _, None ->
                      Error (Printf.sprintf "event %d: missing tid" i)
                  | Some _, Some "M", Some _, Some _ ->
                      go (i + 1) (count + 1) rest
                  | Some _, Some ph, Some _, Some _ -> (
                      match num "ts" with
                      | None ->
                          Error (Printf.sprintf "event %d: missing ts" i)
                      | Some ts when ts < !last_ts ->
                          Error
                            (Printf.sprintf
                               "event %d: ts %g goes backwards (last %g)" i
                               ts !last_ts)
                      | Some ts -> (
                          last_ts := ts;
                          match ph with
                          | "b" -> (
                              match num "id" with
                              | None ->
                                  Error
                                    (Printf.sprintf
                                       "event %d: async begin without id" i)
                              | Some id ->
                                  if Hashtbl.mem open_async id then
                                    Error
                                      (Printf.sprintf
                                         "event %d: nested async begin id %g"
                                         i id)
                                  else begin
                                    Hashtbl.replace open_async id ();
                                    go (i + 1) (count + 1) rest
                                  end)
                          | "e" -> (
                              match num "id" with
                              | None ->
                                  Error
                                    (Printf.sprintf
                                       "event %d: async end without id" i)
                              | Some id ->
                                  if Hashtbl.mem open_async id then begin
                                    Hashtbl.remove open_async id;
                                    go (i + 1) (count + 1) rest
                                  end
                                  else
                                    Error
                                      (Printf.sprintf
                                         "event %d: async end without begin \
                                          (id %g)"
                                         i id))
                          | "i" -> go (i + 1) (count + 1) rest
                          | ph ->
                              Error
                                (Printf.sprintf "event %d: unexpected ph %S"
                                   i ph))))
            in
            go 0 0 evs
        | _ -> Error "missing \"traceEvents\" array")
end
