(* Validator / regression gate for the harness's machine-readable
   artifacts.

     validate.exe [FILE ...]
     validate.exe --baseline DIR [--tolerance F] [FILE ...]

   Without [--baseline] it parses each file and checks it against the
   shape of its declared schema, looked up by the document's "schema"
   member:

   - "rme-bench/1" (Report.bench_shape): the BENCH_E<k>.json files the
     experiment harness writes;
   - "rme-metrics/1" (Driver.metrics_shape): [run --metrics];
   - "rme-native-metrics/1" (Rme_native.Workers.metrics_shape):
     [native --metrics];
   - "rme-service-metrics/1" (Rme_service.Loadgen.metrics_shape):
     [service --metrics];
   - "rme-mc-outcome/1" (Mc_outcome.shape): [model-check --out] and
     [scenario run --out].

   A missing or unknown schema is a FAIL, not a silent fallback. With no
   FILE arguments it globs BENCH_E*.json in the current directory.

   With [--baseline DIR] it additionally compares each (valid) fresh
   bench file against DIR/<basename> — the committed expectation, see
   bench/baselines/ — table by table:

   - table count, titles and headers must match exactly (schema drift);
   - each row's first cell (the configuration label) must match;
   - {e safety cells} — any column whose header mentions violations, lost
     updates, deadlocks, wedged/finished runs or CSR — must match
     byte-for-byte: a safety count drifting from its committed value
     fails the gate even if it "improves";
   - other numeric cells (a trailing '+' truncation marker is stripped)
     must agree within [--tolerance] (relative, default 0.10; a baseline
     of exactly 0 compares absolutely — see Report.cell_within_tolerance);
   - remaining cells must match exactly.

   Files with no committed baseline are reported and skipped — committing
   a baseline is how an experiment opts into the gate. [jobs],
   [wall_clock_s] and [metrics] are never compared (machine-dependent).
   The other schemas are checked for shape only: metrics are
   machine-dependent throughout, and mc outcomes are gated by their
   producing command's exit code. Exit 0 iff every file is schema-valid
   and every gated comparison passes; CI's bench-smoke keys on this. *)

let bench_files () =
  Sys.readdir "."
  |> Array.to_list
  |> List.filter (fun f ->
         String.length f > 7
         && String.sub f 0 7 = "BENCH_E"
         && Filename.check_suffix f ".json")
  |> List.sort compare

let read_file file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let shapes =
  [
    (Harness.Report.bench_schema, Harness.Report.bench_shape);
    (Harness.Driver.metrics_schema, Harness.Driver.metrics_shape);
    (Rme_native.Workers.metrics_schema, Rme_native.Workers.metrics_shape);
    (Rme_service.Loadgen.schema, Rme_service.Loadgen.metrics_shape);
    (Harness.Mc_outcome.schema, Harness.Mc_outcome.shape);
  ]

(* [Some (schema, doc)] for a document that has the shape its schema
   declares; otherwise the reason is printed and the result is [None]. *)
let parse_doc file =
  let checked =
    match Sim.Json.parse (read_file file) with
    | exception Sys_error e -> Error e
    | exception Sim.Json.Parse_error e -> Error ("not valid JSON: " ^ e)
    | doc -> (
      match Sim.Json.member "schema" doc with
      | Some (Sim.Json.Str s) -> (
        match List.assoc_opt s shapes with
        | None -> Error (Printf.sprintf "unknown schema %S" s)
        | Some shape ->
          Result.map (fun () -> (s, doc)) (Sim.Json.check shape doc))
      | Some _ -> Error "schema: expected a string"
      | None -> Error "missing schema member")
  in
  match checked with
  | Ok sd -> Some sd
  | Error e ->
    Printf.printf "%s: FAIL (%s)\n" file e;
    None

(* --- baseline comparison --- *)

let contains ~needle hay =
  let hay = String.lowercase_ascii hay in
  let n = String.length needle and h = String.length hay in
  let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
  at 0

(* Columns whose drift is a correctness regression, never noise. *)
let safety_header h =
  List.exists
    (fun needle -> contains ~needle h)
    [ "viol"; "lost"; "deadlock"; "wedged"; "finished"; "csr"; "crash" ]

let number_of_cell = Harness.Report.number_of_cell

(* The validated schema guarantees the shapes destructured here. *)
let tables doc =
  match Sim.Json.member "tables" doc with
  | Some (Sim.Json.List ts) ->
    List.map
      (fun t ->
        let str = function Sim.Json.Str s -> s | _ -> assert false in
        let strs = function
          | Sim.Json.List xs -> List.map str xs
          | _ -> assert false
        in
        ( str (Option.get (Sim.Json.member "title" t)),
          strs (Option.get (Sim.Json.member "header" t)),
          match Option.get (Sim.Json.member "rows" t) with
          | Sim.Json.List rs -> List.map strs rs
          | _ -> assert false ))
      ts
  | _ -> assert false

let compare_tables ~file ~tolerance fresh base =
  let fail = ref [] in
  let mismatch fmt = Printf.ksprintf (fun m -> fail := m :: !fail) fmt in
  let ft = tables fresh and bt = tables base in
  if List.length ft <> List.length bt then
    mismatch "table count: fresh has %d, baseline has %d" (List.length ft)
      (List.length bt)
  else
    List.iter2
      (fun (title, header, rows) (btitle, bheader, brows) ->
        if title <> btitle then
          mismatch "table title drifted:\n  fresh:    %s\n  baseline: %s" title
            btitle
        else if header <> bheader then
          mismatch "%S: header drifted" title
        else if List.length rows <> List.length brows then
          mismatch "%S: row count: fresh %d, baseline %d" title
            (List.length rows) (List.length brows)
        else
          List.iter2
            (fun row brow ->
              let key = match brow with k :: _ -> k | [] -> "<empty>" in
              if List.length row <> List.length brow then
                mismatch "%S / %S: cell count differs" title key
              else
                List.iteri
                  (fun i (cell, bcell) ->
                    if cell <> bcell then
                      let col =
                        match List.nth_opt header i with
                        | Some h -> h
                        | None -> Printf.sprintf "col%d" i
                      in
                      if i = 0 then
                        mismatch "%S: row label %S became %S" title bcell cell
                      else if safety_header col then
                        mismatch
                          "%S / %S: SAFETY column %S drifted: %S -> %S" title
                          key col bcell cell
                      else
                        match (number_of_cell cell, number_of_cell bcell) with
                        | Some f, Some b ->
                          if
                            not
                              (Harness.Report.cell_within_tolerance ~tolerance
                                 ~base:b ~fresh:f)
                          then
                            mismatch
                              "%S / %S: column %S outside tolerance %.2f: %S \
                               -> %S"
                              title key col tolerance bcell cell
                        | _ ->
                          mismatch "%S / %S: column %S drifted: %S -> %S" title
                            key col bcell cell)
                  (List.combine row brow))
            rows brows)
      ft bt;
  match List.rev !fail with
  | [] ->
    Printf.printf "%s: ok (matches baseline)\n" file;
    true
  | ms ->
    Printf.printf "%s: FAIL (baseline regression)\n" file;
    List.iter (Printf.printf "  %s\n") ms;
    false

let () =
  let baseline = ref None in
  let tolerance = ref 0.10 in
  let files = ref [] in
  let rec parse = function
    | [] -> ()
    | [ (("--baseline" | "--tolerance") as flag) ]
    | (("--baseline" | "--tolerance") as flag)
      :: ("--baseline" | "--tolerance") :: _ ->
      Printf.eprintf "validate: %s expects a value\n" flag;
      exit 2
    | "--baseline" :: dir :: rest ->
      baseline := Some dir;
      parse rest
    | "--tolerance" :: v :: rest ->
      (match float_of_string_opt v with
      | Some f when f >= 0. -> tolerance := f
      | _ ->
        prerr_endline "validate: --tolerance expects a non-negative float";
        exit 2);
      parse rest
    | f :: rest ->
      files := f :: !files;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let files =
    match List.rev !files with [] -> bench_files () | fs -> fs
  in
  if files = [] then begin
    print_endline "validate: no BENCH_E*.json files found";
    exit 1
  end;
  let check file =
    match parse_doc file with
    | None -> false
    | Some (schema, _) when schema <> Harness.Report.bench_schema ->
      Printf.printf "%s: ok (%s, schema only)\n" file schema;
      true
    | Some (_, doc) -> (
      match !baseline with
      | None ->
        Printf.printf "%s: ok\n" file;
        true
      | Some dir ->
        let bfile = Filename.concat dir (Filename.basename file) in
        if not (Sys.file_exists bfile) then begin
          Printf.printf "%s: ok (no baseline at %s, comparison skipped)\n" file
            bfile;
          true
        end
        else
          match parse_doc bfile with
          | None -> false
          | Some (schema, base) when schema = Harness.Report.bench_schema ->
            compare_tables ~file ~tolerance:!tolerance doc base
          | Some (schema, _) ->
            Printf.printf "%s: FAIL (baseline %s is %s)\n" file bfile schema;
            false)
  in
  let ok = List.fold_left (fun acc f -> check f && acc) true files in
  if not ok then exit 1
