let f1 x = Printf.sprintf "%.1f" x
let i = string_of_int

type captured = { title : string; header : string list; rows : string list list }

(* Tables and metrics land here as a side effect of [table] / [metric];
   the bench harness drains both into BENCH_E<k>.json after each
   experiment. Only the main domain prints tables and records metrics
   (cells are computed on the pool, rendering is not), so no locking is
   needed. *)
let captured_tables : captured list ref = ref []
let metric_capture : (string * Sim.Json.t) list ref = ref []

let reset_captured () =
  captured_tables := [];
  metric_capture := []

let captured () = List.rev !captured_tables

let metric ~name json = metric_capture := (name, json) :: !metric_capture
let captured_metrics () = List.rev !metric_capture

(* Column width must count what the terminal renders, not bytes: a
   byte-level String.length over-counts every multi-byte UTF-8 scalar
   (e.g. the Θ in "Θ(log N)") and mis-pads the column. Counting Unicode
   scalar values (every byte that is not a continuation byte) is exact
   for the symbols our tables use. *)
let display_width s =
  let w = ref 0 in
  String.iter (fun c -> if Char.code c land 0xC0 <> 0x80 then incr w) s;
  !w

let render ~header rows =
  let all = header :: rows in
  let cols = List.fold_left (fun acc r -> max acc (List.length r)) 0 all in
  let width c =
    List.fold_left
      (fun acc row ->
        match List.nth_opt row c with
        | Some s -> max acc (display_width s)
        | None -> acc)
      0 all
  in
  let widths = List.init cols width in
  let render_row row =
    let cells =
      List.mapi
        (fun c w ->
          let s = match List.nth_opt row c with Some s -> s | None -> "" in
          s ^ String.make (max 0 (w - display_width s)) ' ')
        widths
    in
    "| " ^ String.concat " | " cells ^ " |"
  in
  let rule =
    "|" ^ String.concat "|" (List.map (fun w -> String.make (w + 2) '-') widths)
    ^ "|"
  in
  render_row header :: rule :: List.map render_row rows

(* [~capture:false] prints a table without recording it in the bench
   JSON: for machine-dependent columns (absolute throughputs, ratios)
   that belong in the run log but must not enter the baseline gate —
   the gate compares captured tables cell by cell, and a cell that
   varies across machines would make the committed baseline unusable.
   Such numbers go to [metric] instead, which is never compared. *)
let table ?(capture = true) ~title ~header rows =
  if capture then captured_tables := { title; header; rows } :: !captured_tables;
  print_newline ();
  Printf.printf "### %s\n\n" title;
  List.iter print_endline (render ~header rows);
  print_newline ()

(* Side-by-side ablation rendering: one row per configuration, a value
   column per variant, and a trailing base-vs-variant ratio column. The
   numbers are machine-dependent by nature, so the table defaults to
   [~capture:false] — callers gate on the ratios in code and put the
   exact values in [metric]s. *)
let ablation_table ?(capture = false) ~title ~label_header ~base_header
    ~variant_header ~fmt rows =
  let header =
    [ label_header; base_header; variant_header; "ratio (variant/base)" ]
  in
  let rows =
    List.map
      (fun (label, base, variant) ->
        [
          label;
          fmt base;
          fmt variant;
          (if base > 0. then Printf.sprintf "%.2fx" (variant /. base)
           else "n/a");
        ])
      rows
  in
  table ~capture ~title ~header rows

(* --- numeric-cell comparison for the baseline gate --- *)

(* Accept the harness's "12345+" truncation marker. *)
let number_of_cell s =
  let s =
    if String.length s > 0 && s.[String.length s - 1] = '+' then
      String.sub s 0 (String.length s - 1)
    else s
  in
  float_of_string_opt s

(* Relative agreement for nonzero baselines: |fresh - base| within
   [tolerance] of the larger magnitude (floored at 1 so near-zero pairs
   compare absolutely). A baseline of exactly 0 degenerates under that
   rule — the scale becomes |fresh| itself, so any fresh value beyond the
   floor fails *regardless* of tolerance; a zero baseline therefore
   switches to an absolute check: the fresh value must stay within
   [tolerance] of 0. (A zero-baseline cell is a count of something that
   never happened; if it starts happening, tolerance should not hide it.) *)
let cell_within_tolerance ~tolerance ~base ~fresh =
  if base = 0. then abs_float fresh <= tolerance
  else
    let scale =
      Float.max (Float.max (abs_float fresh) (abs_float base)) 1.
    in
    abs_float (fresh -. base) <= tolerance *. scale

(* --- the bench JSON schema --- *)

let bench_schema = "rme-bench/1"

(* One document per experiment: every table exactly as printed (same
   strings, so the JSON is as byte-stable as the tables), plus the named
   metrics recorded while the experiment ran. *)
let bench_doc ~experiment ~jobs ~elapsed =
  let open Sim.Json in
  let strs xs = List (List.map (fun x -> Str x) xs) in
  let table t =
    Obj
      [
        ("title", Str t.title);
        ("header", strs t.header);
        ("rows", List (List.map strs t.rows));
      ]
  in
  Obj
    [
      ("schema", Str bench_schema);
      ("experiment", Str experiment);
      ("jobs", Int jobs);
      ("wall_clock_s", Float (Float.round (elapsed *. 1000.) /. 1000.));
      ("tables", List (List.map table (captured ())));
      ("metrics", Obj (captured_metrics ()));
    ]

let bench_shape =
  Sim.Json.(
    obj
      [
        req "schema" (enum [ bench_schema ]);
        req "experiment" string;
        req "jobs" number;
        req "wall_clock_s" number;
        req "tables"
          (list
             (obj
                [
                  req "title" string;
                  req "header" (list string);
                  req "rows" (list (list string));
                ]));
        req "metrics" (obj []);
      ])
