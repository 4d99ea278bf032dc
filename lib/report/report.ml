(* RFC-4180 CSV quoting, shared by [Table.to_csv] and [Series.to_csv]:
   a cell containing a comma, quote or line break is quoted, with
   embedded quotes doubled. *)
let csv_escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s
  then "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

module Table = struct
  type t = {
    title : string;
    columns : string list;
    mutable rows : string list list; (* reversed *)
  }

  let create ~title ~columns = { title; columns; rows = [] }

  let add_row t cells =
    if List.length cells <> List.length t.columns then
      invalid_arg "Report.Table.add_row: wrong number of cells";
    t.rows <- cells :: t.rows

  let widths t =
    let all = t.columns :: List.rev t.rows in
    List.fold_left
      (fun acc row -> List.map2 (fun w c -> max w (String.length c)) acc row)
      (List.map (fun _ -> 0) t.columns)
      all

  let render t =
    let ws = widths t in
    let pad w s = s ^ String.make (w - String.length s) ' ' in
    let line row = "  " ^ String.concat "  " (List.map2 pad ws row) in
    let header = line t.columns in
    (* underline exactly the rendered header (minus its two-space
       indent), so the separator never over- or undershoots the rows *)
    let sep = "  " ^ String.make (String.length header - 2) '-' in
    String.concat "\n" (t.title :: header :: sep :: List.rev_map line t.rows)

  let print t =
    print_string (render t);
    print_newline ()

  let to_csv t =
    let row r = String.concat "," (List.map csv_escape r) in
    String.concat "\n" (row t.columns :: List.rev_map row t.rows)
end

module Series = struct
  type t = {
    title : string;
    xlabel : string;
    ylabel : string;
    mutable pts : (float * float) list; (* reversed *)
  }

  let create ~title ~xlabel ~ylabel = { title; xlabel; ylabel; pts = [] }
  let add t x y = t.pts <- (x, y) :: t.pts
  let points t = List.rev t.pts

  let print ?(bar_width = 40) t =
    Printf.printf "%s\n" t.title;
    let pts = points t in
    let ymax = List.fold_left (fun a (_, y) -> Float.max a y) 0.0 pts in
    Printf.printf "  %14s  %12s\n" t.xlabel t.ylabel;
    List.iter
      (fun (x, y) ->
        (* a negative point under a positive [ymax] yields a negative
           length; clamp — the bar is simply empty below zero *)
        let n =
          if ymax <= 0.0 then 0
          else
            max 0 (int_of_float (y /. ymax *. float_of_int bar_width +. 0.5))
        in
        Printf.printf "  %14.4g  %12.5g  |%s\n" x y (String.make n '#'))
      pts

  let to_csv t =
    (* labels are caller-supplied free text: quote them like
       [Table.to_csv] does, or a comma in [xlabel] corrupts the header *)
    String.concat "\n"
      (Printf.sprintf "%s,%s" (csv_escape t.xlabel) (csv_escape t.ylabel)
      :: List.map
           (fun (x, y) ->
             Printf.sprintf "%s,%s"
               (csv_escape (Printf.sprintf "%g" x))
               (csv_escape (Printf.sprintf "%g" y)))
           (points t))
end

let mean = function
  | [] -> 0.0
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

(* [log x] is -inf at 0 and nan below it, either of which silently
   poisons the whole summary row — so non-positive inputs are handled
   explicitly: rejected by default, or dropped on request. *)
let geomean ?(on_nonpositive = `Error) l =
  let usable =
    match on_nonpositive with
    | `Skip -> List.filter (fun x -> x > 0.0) l
    | `Error ->
      List.iter
        (fun x ->
          if x <= 0.0 then
            invalid_arg
              (Printf.sprintf "Report.geomean: non-positive value %g" x))
        l;
      l
  in
  match usable with
  | [] -> 0.0
  | l ->
    exp
      (List.fold_left (fun a x -> a +. log x) 0.0 l
      /. float_of_int (List.length l))

(* Exact nearest-rank percentile: sort, take element ceil(p/100 * n)
   (1-based), no interpolation — p50 of [1;2;3;4] is 2, not 2.5. The
   exactness matters for determinism gates: the same sample multiset
   always yields the same element, bit-for-bit. *)
let percentile p l =
  if l = [] then invalid_arg "Report.percentile: empty sample list";
  if p < 0.0 || p > 100.0 then
    invalid_arg (Printf.sprintf "Report.percentile: %g not in [0,100]" p);
  let sorted = List.sort compare l in
  let n = List.length sorted in
  let rank =
    max 1 (int_of_float (ceil (p /. 100.0 *. float_of_int n)))
  in
  List.nth sorted (rank - 1)

let fmt_bytes n =
  if n < 1024 then Printf.sprintf "%d B" n
  else if n < 1024 * 1024 then Printf.sprintf "%.1f KB" (float_of_int n /. 1024.)
  else Printf.sprintf "%.1f MB" (float_of_int n /. (1024. *. 1024.))

let section title =
  let bar = String.make 72 '=' in
  Printf.printf "\n%s\n%s\n%s\n" bar title bar

let kv key value = Printf.printf "  %-28s : %s\n" key value

let trace_summary ~total ~execute ~translate ~wire ~trap ~dcache ~patch
    ~scrub ~lookup ~events ~dropped ~capacity =
  let pct c =
    if total = 0 then "0.0%"
    else Printf.sprintf "%.1f%%" (100.0 *. float_of_int c /. float_of_int total)
  in
  let row name c = kv name (Printf.sprintf "%d cycles (%s)" c (pct c)) in
  row "execute" execute;
  row "translate" translate;
  row "wire latency" wire;
  row "trap dispatch" trap;
  if dcache > 0 then row "dcache overhead" dcache;
  row "patch" patch;
  row "scrub" scrub;
  row "lookup" lookup;
  kv "attributed total"
    (Printf.sprintf "%d cycles%s"
       (execute + translate + wire + trap + dcache + patch + scrub + lookup)
       (if execute + translate + wire + trap + dcache + patch + scrub + lookup
           = total
        then " (conserved)"
        else Printf.sprintf " — DOES NOT CONSERVE against %d" total));
  kv "events"
    (Printf.sprintf "%d recorded%s (ring capacity %d)" events
       (if dropped > 0 then Printf.sprintf ", %d dropped on wrap" dropped
        else "")
       capacity)
