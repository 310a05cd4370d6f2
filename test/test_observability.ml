(* Tests for the observability layer: the hand-rolled JSON codec, the
   trace exporters (JSONL + Chrome trace-event), the driver's metrics
   document, table rendering with UTF-8 widths, and the schema shapes
   of every JSON artifact. The load-bearing property throughout is *passive
   determinism*: exporters are pure functions of seeded runs, so the same
   seed must produce byte-identical artifacts — including while a busy
   domain pool runs unrelated work, which is what `--jobs` independence
   means for the artifacts. *)

open Sim
open Testutil
module Driver = Harness.Driver
module Report = Harness.Report
module Mc_outcome = Harness.Mc_outcome
module Pool = Parallel.Pool

(* --- Json --- *)

let json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("s", Json.Str "a\"b\\c\nd\te\xc3\xa9");
        ("i", Json.Int (-42));
        ("f", Json.Float 1.5);
        ("b", Json.Bool true);
        ("null", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.Str "x"; Json.Obj [] ]);
      ]
  in
  let compact = Json.to_string doc in
  let pretty = Json.to_string ~pretty:true doc in
  Alcotest.(check bool) "roundtrip compact" true (Json.parse compact = doc);
  Alcotest.(check bool) "roundtrip pretty" true (Json.parse pretty = doc);
  (* Integral floats are emitted without a decimal point, so they
     normalize to Int through a roundtrip — histogram bounds etc. stay
     clean integers in the artifacts. *)
  Alcotest.(check bool) "integral float normalizes" true
    (Json.parse (Json.to_string (Json.Float 12345.0)) = Json.Int 12345)

let json_parse_escapes () =
  (match Json.parse "\"caf\\u00e9 \\ud83d\\ude00\"" with
  | Json.Str s ->
    Alcotest.(check string) "unicode escapes" "caf\xc3\xa9 \xf0\x9f\x98\x80" s
  | _ -> Alcotest.fail "expected a string");
  List.iter
    (fun bad ->
      match Json.parse bad with
      | exception Json.Parse_error _ -> ()
      | _ -> Alcotest.failf "accepted invalid JSON %S" bad)
    [ "{"; "[1,]"; "nul"; "\"a"; "1 2"; "{\"a\":}" ]

let json_rejects_non_finite () =
  List.iter
    (fun f ->
      match Json.to_string (Json.Float f) with
      | exception Invalid_argument _ -> ()
      | s -> Alcotest.failf "emitted %s for a non-finite float" s)
    [ Float.infinity; Float.neg_infinity; Float.nan ]

(* --- trace exporters --- *)

(* The `rme trace` scenario: a lock stack under a seeded uniform schedule
   with periodic system-wide crashes, passage phases marked. *)
let traced_run ?(steps = 400) ?(seed = 9) () =
  let mem = Memory.create ~model:Memory.Cc ~n:3 in
  let tr = Trace.create () in
  Trace.attach tr mem;
  let lock = Rme.Stack.recoverable mem "t1-mcs" in
  let span ~pid phase f =
    Trace.phase_begin tr ~pid phase;
    f ();
    Trace.phase_end tr ~pid phase
  in
  let body ~pid ~epoch =
    while true do
      span ~pid Trace.Recover (fun () -> lock.Rme.Rme_intf.recover ~pid ~epoch);
      span ~pid Trace.Entry (fun () -> lock.Rme.Rme_intf.enter ~pid ~epoch);
      span ~pid Trace.Cs (fun () -> ());
      span ~pid Trace.Exit (fun () -> lock.Rme.Rme_intf.exit ~pid ~epoch)
    done
  in
  let rt = Runtime.create mem ~body in
  Runtime.on_crash rt (fun ~epoch -> Trace.record_crash tr ~epoch);
  let schedule =
    Schedule.with_crashes ~every:97 (Schedule.uniform ~seed)
  in
  let rec loop () =
    if Runtime.clock rt < steps then
      match Runtime.enabled rt with
      | [] -> ()
      | en -> (
        match schedule ~clock:(Runtime.clock rt) ~enabled:en with
        | Some (Schedule.Step pid) ->
          Runtime.step rt pid;
          loop ()
        | Some Schedule.Crash ->
          Runtime.crash rt ();
          loop ()
        | Some (Schedule.Crash_one pid) ->
          Runtime.crash_one rt pid;
          Trace.record_crash_one tr ~pid;
          loop ()
        | None -> ())
  in
  loop ();
  tr

let exports_are_byte_stable () =
  let tr1 = traced_run () in
  let tr2 = traced_run () in
  Alcotest.(check string) "jsonl" (Trace.to_jsonl tr1) (Trace.to_jsonl tr2);
  Alcotest.(check string) "chrome" (Trace.to_chrome tr1) (Trace.to_chrome tr2);
  (* ... and a busy pool on other domains must not perturb them (the
     artifact-level face of the `--jobs` independence contract). *)
  Pool.with_pool ~jobs:4 (fun pool ->
      let busy =
        List.init 6 (fun i ->
            Pool.async pool (fun () ->
                (run_stack ~n:3 ~passages:10 ~seed:(50 + i)
                   ~model:Memory.Dsm "t3-mcs")
                  .Driver.total_steps))
      in
      let tr3 = traced_run () in
      Alcotest.(check string) "jsonl under pool" (Trace.to_jsonl tr1)
        (Trace.to_jsonl tr3);
      Alcotest.(check string) "chrome under pool" (Trace.to_chrome tr1)
        (Trace.to_chrome tr3);
      List.iter (fun f -> ignore (Pool.await f)) busy)

let chrome_export_is_valid_and_balanced () =
  let tr = traced_run () in
  let doc = Json.parse (Trace.to_chrome tr) in
  let events =
    match Json.member "traceEvents" doc with
    | Some (Json.List evs) -> evs
    | _ -> Alcotest.fail "no traceEvents array"
  in
  Alcotest.(check bool) "has events" true (List.length events > 10);
  (* Every event is well-formed; B/E spans balance per thread. *)
  let depth : (int, int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      let str k =
        match Json.member k ev with
        | Some (Json.Str s) -> s
        | _ -> Alcotest.failf "event missing string %S" k
      in
      let int k =
        match Json.member k ev with
        | Some (Json.Int i) -> i
        | _ -> Alcotest.failf "event missing int %S" k
      in
      let ph = str "ph" in
      Alcotest.(check bool)
        ("known ph " ^ ph)
        true
        (List.mem ph [ "M"; "X"; "B"; "E"; "i" ]);
      if ph <> "M" then ignore (int "ts");
      let tid = int "tid" in
      match ph with
      | "B" -> Hashtbl.replace depth tid (1 + Option.value ~default:0 (Hashtbl.find_opt depth tid))
      | "E" ->
        let d = Option.value ~default:0 (Hashtbl.find_opt depth tid) in
        Alcotest.(check bool) "E has matching B" true (d > 0);
        Hashtbl.replace depth tid (d - 1)
      | _ -> ())
    events;
  Hashtbl.iter
    (fun tid d -> Alcotest.(check int) (Printf.sprintf "tid %d balanced" tid) 0 d)
    depth;
  (* The crash schedule fired, and the exporter recorded it. *)
  let crashes =
    List.filter
      (fun ev -> Json.member "ph" ev = Some (Json.Str "i"))
      events
  in
  Alcotest.(check bool) "crash instants present" true (crashes <> [])

let jsonl_lines_parse () =
  let tr = traced_run () in
  let lines =
    String.split_on_char '\n' (Trace.to_jsonl tr)
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "one line per event" (Trace.length tr)
    (List.length lines);
  List.iter
    (fun l ->
      match Json.parse l with
      | Json.Obj kvs ->
        Alcotest.(check bool) "has seq+type" true
          (List.mem_assoc "seq" kvs && List.mem_assoc "type" kvs)
      | _ -> Alcotest.fail "JSONL line is not an object")
    lines

(* --- driver metrics --- *)

let crashy_report seed =
  run_stack ~n:4 ~passages:15 ~seed ~model:Memory.Cc
    ~schedule:
      (Schedule.with_crashes ~every:700 (Schedule.uniform ~seed))
    "t1-mcs"

let driver_metrics_stable_across_jobs () =
  let quiet = Driver.metrics_json (crashy_report 21) in
  (* Same seed, same bytes — sequentially and on pools of any width. *)
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let docs =
            Pool.map pool
              (fun seed -> Driver.metrics_json (crashy_report seed))
              [ 21; 22; 21 ]
          in
          match docs with
          | [ a; _; c ] ->
            Alcotest.(check string)
              (Printf.sprintf "jobs=%d replays" jobs)
              quiet a;
            Alcotest.(check string)
              (Printf.sprintf "jobs=%d self-consistent" jobs)
              a c
          | _ -> assert false))
    [ 1; 4 ]

let metrics_json_is_finite_and_valid () =
  (* A failure-free run leaves every recovery histogram empty — exactly
     where the old ±inf sentinels used to leak. *)
  let r = run_stack ~n:3 ~passages:8 ~seed:5 ~model:Memory.Cc "t1-mcs" in
  let s = Driver.metrics_json r in
  let contains needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun bad ->
      if contains bad s then Alcotest.failf "metrics JSON contains %S" bad)
    [ "inf"; "nan"; "Infinity"; "NaN" ];
  match Json.parse s with
  | Json.Obj kvs ->
    Alcotest.(check bool) "schema" true
      (List.assoc_opt "schema" kvs = Some (Json.Str "rme-metrics/1"));
    Alcotest.(check bool) "histograms" true (List.mem_assoc "histograms" kvs)
  | _ -> Alcotest.fail "metrics is not an object"

(* --- report rendering --- *)

let display_width_counts_scalars () =
  Alcotest.(check int) "ascii" 5 (Report.display_width "hello");
  Alcotest.(check int) "theta" 8 (Report.display_width "\xce\x98(log N)");
  Alcotest.(check int) "empty" 0 (Report.display_width "");
  Alcotest.(check int) "emoji" 1 (Report.display_width "\xf0\x9f\x98\x80")

let render_aligns_utf8 () =
  let lines =
    Report.render
      ~header:[ "algorithm"; "bound" ]
      [ [ "mcs"; "\xce\x98(1)" ]; [ "bakery"; "\xce\x98(N)" ] ]
  in
  (match lines with
  | _ :: _ :: _ -> ()
  | _ -> Alcotest.fail "expected header, rule and rows");
  let widths = List.map Report.display_width lines in
  List.iter
    (fun w -> Alcotest.(check int) "line width" (List.hd widths) w)
    widths

(* --- bench JSON validator --- *)

let minimal_bench ?(schema = Report.bench_schema) () =
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("experiment", Json.Str "e1");
      ("jobs", Json.Int 2);
      ("wall_clock_s", Json.Float 1.5);
      ( "tables",
        Json.List
          [
            Json.Obj
              [
                ("title", Json.Str "t");
                ("header", Json.List [ Json.Str "a" ]);
                ( "rows",
                  Json.List [ Json.List [ Json.Str "1" ] ] );
              ];
          ] );
      ("metrics", Json.Obj [ ("m", Json.Obj [ ("count", Json.Int 0) ]) ]);
    ]

let validator_accepts_and_rejects () =
  (match Json.check Report.bench_shape (minimal_bench ()) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "valid doc rejected: %s" e);
  let rejects what doc =
    match Json.check Report.bench_shape doc with
    | Ok () -> Alcotest.failf "validator accepted %s" what
    | Error _ -> ()
  in
  rejects "wrong schema" (minimal_bench ~schema:"rme-bench/0" ());
  rejects "non-object" (Json.List []);
  (match minimal_bench () with
  | Json.Obj kvs ->
    rejects "missing tables"
      (Json.Obj (List.filter (fun (k, _) -> k <> "tables") kvs));
    rejects "non-string cell"
      (Json.Obj
         (List.map
            (function
              | "tables", _ ->
                ( "tables",
                  Json.List
                    [
                      Json.Obj
                        [
                          ("title", Json.Str "t");
                          ("header", Json.List [ Json.Str "a" ]);
                          ("rows", Json.List [ Json.List [ Json.Int 1 ] ]);
                        ];
                    ] )
              | kv -> kv)
            kvs))
  | _ -> assert false)

(* --- model-check outcome validator (rme-mc-outcome/1) --- *)

let minimal_outcome_obj ?(extra = []) () =
  Json.Obj
    ([
       ("runs", Json.Int 3);
       ("steps", Json.Int 40);
       ("step_cap_hits", Json.Int 0);
       ("deadlocks", Json.Int 0);
       ("distinct_states", Json.Int 12);
       ("pruned_runs", Json.Int 1);
       ("pruned_branches", Json.Int 2);
       ("truncated", Json.Bool false);
       ("violations", Json.List []);
     ]
    @ extra)

let minimal_mc_outcome ?extra ?(top = []) () =
  Json.Obj
    ([
       ("schema", Json.Str Mc_outcome.schema);
       ("config", Json.Obj [ ("scenario", Json.Str "rme") ]);
       ("outcome", minimal_outcome_obj ?extra ());
       ("minimized_schedule", Json.Null);
     ]
    @ top)

let mc_outcome_validator_accepts_and_rejects () =
  let accepts what doc =
    match Json.check Mc_outcome.shape doc with
    | Ok () -> ()
    | Error e -> Alcotest.failf "rejected %s: %s" what e
  in
  let rejects what doc =
    match Json.check Mc_outcome.shape doc with
    | Ok () -> Alcotest.failf "accepted %s" what
    | Error _ -> ()
  in
  (* Pre-§5.19 documents (no sleep/bitstate/swarm members) stay valid. *)
  accepts "minimal legacy outcome" (minimal_mc_outcome ());
  (* ... and so do the new optional members, as ints or finite floats. *)
  accepts "sleep+bitstate members"
    (minimal_mc_outcome
       ~extra:
         [
           ("sleep_pruned", Json.Int 4);
           ("bitstate_occupancy", Json.Float 0.0312);
           ("collision_bound", Json.Float 0.00097);
         ]
       ());
  accepts "bitstate members as Null"
    (minimal_mc_outcome
       ~extra:
         [
           ("bitstate_occupancy", Json.Null); ("collision_bound", Json.Null);
         ]
       ());
  accepts "integral occupancy normalizes to Int"
    (minimal_mc_outcome ~extra:[ ("bitstate_occupancy", Json.Int 1) ] ());
  accepts "swarm member array"
    (minimal_mc_outcome
       ~top:
         [
           ( "swarm",
             Json.List
               [
                 Json.Obj
                   [
                     ("member", Json.Int 0);
                     ("divergence_bound", Json.Int 2);
                     ("crash_bound", Json.Int 0);
                     ("crash_one_bound", Json.Int 0);
                     ("salt", Json.Int 1);
                     ("outcome", minimal_outcome_obj ());
                   ];
               ] );
         ]
       ());
  (* Non-finite floats are exactly the sentinel leak the schema bans. *)
  rejects "NaN occupancy"
    (minimal_mc_outcome ~extra:[ ("bitstate_occupancy", Json.Float Float.nan) ] ());
  rejects "infinite collision bound"
    (minimal_mc_outcome
       ~extra:[ ("collision_bound", Json.Float Float.infinity) ] ());
  rejects "string occupancy"
    (minimal_mc_outcome ~extra:[ ("bitstate_occupancy", Json.Str "0.5") ] ());
  rejects "non-integer sleep_pruned"
    (minimal_mc_outcome ~extra:[ ("sleep_pruned", Json.Float 1.5) ] ());
  rejects "swarm not an array"
    (minimal_mc_outcome ~top:[ ("swarm", Json.Obj []) ] ());
  rejects "swarm member missing salt"
    (minimal_mc_outcome
       ~top:
         [
           ( "swarm",
             Json.List
               [
                 Json.Obj
                   [
                     ("member", Json.Int 0);
                     ("divergence_bound", Json.Int 2);
                     ("crash_bound", Json.Int 0);
                     ("crash_one_bound", Json.Int 0);
                     ("outcome", minimal_outcome_obj ());
                   ];
               ] );
         ]
       ());
  rejects "swarm member outcome missing counters"
    (minimal_mc_outcome
       ~top:
         [
           ( "swarm",
             Json.List
               [
                 Json.Obj
                   [
                     ("member", Json.Int 0);
                     ("divergence_bound", Json.Int 2);
                     ("crash_bound", Json.Int 0);
                     ("crash_one_bound", Json.Int 0);
                     ("salt", Json.Int 1);
                     ("outcome", Json.Obj [ ("runs", Json.Int 1) ]);
                   ];
               ] );
         ]
       ());
  (* The legacy shape rules still bite. *)
  rejects "missing minimized_schedule"
    (Json.Obj
       [
         ("schema", Json.Str Mc_outcome.schema);
         ("config", Json.Obj []);
         ("outcome", minimal_outcome_obj ());
       ]);
  rejects "wrong schema"
    (Json.Obj
       [
         ("schema", Json.Str "rme-mc-outcome/0");
         ("config", Json.Obj []);
         ("outcome", minimal_outcome_obj ());
         ("minimized_schedule", Json.Null);
       ])

(* --- every schema, table-driven, against its real producer --- *)

(* Every way to break one value of [doc]: each object member deleted
   (unless its name is in [optional]) or given the wrong type, and each
   array element given the wrong type — recursively, except below the
   members named in [free] (config and metrics objects, whose contents
   no schema constrains). *)
let rec mutations ~optional ~free doc =
  let retype = function Json.Str _ -> Json.Int 0 | _ -> Json.Str "x" in
  let inside path put x =
    List.map (fun (p, x') -> (path ^ p, put x')) (mutations ~optional ~free x)
  in
  match doc with
  | Json.Obj kvs ->
    List.concat
      (List.mapi
         (fun i (k, x) ->
           let put x' =
             Json.Obj
               (List.mapi (fun j kv -> if j = i then (k, x') else kv) kvs)
           in
           let path = "." ^ k in
           (if List.mem k optional then []
            else
              [
                ( path ^ " deleted",
                  Json.Obj (List.filteri (fun j _ -> j <> i) kvs) );
              ])
           @ [ (path ^ " retyped", put (retype x)) ]
           @ if List.mem k free then [] else inside path put x)
         kvs)
  | Json.List xs ->
    List.concat
      (List.mapi
         (fun i x ->
           let put x' =
             Json.List (List.mapi (fun j y -> if j = i then x' else y) xs)
           in
           let path = Printf.sprintf "[%d]" i in
           (path ^ " retyped", put (retype x)) :: inside path put x)
         xs)
  | _ -> []

(* Replace the value at a path of member names. *)
let rec set_at path v doc =
  match (path, doc) with
  | [], _ -> v
  | k :: rest, Json.Obj kvs ->
    Json.Obj
      (List.map
         (fun (k', x) -> if k' = k then (k', set_at rest v x) else (k', x))
         kvs)
  | _ -> doc

let mc_outcome_doc () =
  let outcome : Harness.Model_check.outcome =
    {
      runs = 7;
      steps = 90;
      violations = [ "CSR violated" ];
      step_cap_hits = 0;
      deadlocks = 1;
      truncated = false;
      distinct_states = 30;
      pruned_runs = 2;
      pruned_branches = 3;
      sleep_pruned = 4;
      bitstate_occupancy = Some 0.03;
      collision_bound = Some 0.0009;
      witness = Some [| 1; 2; -3 |];
    }
  in
  let minimized : Harness.Shrink.result =
    {
      s_trace = [| 1; 2; -3 |];
      s_interventions = [ (2, -3) ];
      s_violations = [ "CSR violated" ];
      s_steps = 3;
      s_probes = 11;
    }
  in
  Mc_outcome.doc
    ~config:[ ("scenario", Json.Str "rme"); ("crash_mean", Json.Null) ]
    ~outcome
    ~swarm:
      [
        Mc_outcome.swarm_member ~member:0 ~divergence_bound:2 ~crash_bound:1
          ~crash_one_bound:0 ~salt:1 outcome;
      ]
    ~minimized:(Some minimized) ~n:2

let bench_doc () =
  Report.reset_captured ();
  Report.table ~title:"t" ~header:[ "a"; "b" ] [ [ "1"; "x" ]; [ "2"; "y" ] ];
  let s = Stats.create () in
  List.iter (Stats.add_int s) [ 1; 5; 700 ];
  Report.metric ~name:"m" (Stats.to_json s);
  let doc = Report.bench_doc ~experiment:"e0" ~jobs:1 ~elapsed:0.25 in
  Report.reset_captured ();
  doc

let native_metrics_doc () =
  Rme_native.Workers.metrics
    (Rme_native.Workers.run ~latency:true ~sync_start:true ~run_for:0.01
       ~sample_interval:0.002 ~n:2 ~passages:1_000_000
       ~make:(fun crash ~n -> Rme_native.Stack.recoverable crash ~n "t1-mcs")
       ())

let service_metrics_doc () =
  Rme_service.Loadgen.metrics
    (Rme_service.Loadgen.run ~stack:"t3-mcs" ~shards:16 ~batch:4
       ~drill_after:0.005 ~n:2 ~keys:256 ~per_worker:400 ())

(* (shape, producer, members whose deletion is allowed, members whose
   contents are free, paths where a NaN or infinity must be rejected) *)
let schemas =
  [
    ( "rme-bench/1", Report.bench_shape, bench_doc, [], [ "metrics" ], [] );
    ( "rme-metrics/1",
      Driver.metrics_shape,
      (fun () -> Driver.metrics (crashy_report 3)),
      [],
      [],
      [] );
    ( "rme-native-metrics/1",
      Rme_native.Workers.metrics_shape,
      native_metrics_doc,
      [ "passage_latency"; "latency_unit"; "alloc_words_per_passage" ],
      [],
      [] );
    ( "rme-service-metrics/1",
      Rme_service.Loadgen.metrics_shape,
      service_metrics_doc,
      [ "alloc_words_per_request" ],
      [],
      [] );
    ( "rme-mc-outcome/1",
      Mc_outcome.shape,
      mc_outcome_doc,
      [
        "witness"; "sleep_pruned"; "bitstate_occupancy"; "collision_bound";
        "swarm";
      ],
      [ "config" ],
      [
        [ "outcome"; "bitstate_occupancy" ]; [ "outcome"; "collision_bound" ];
      ] );
  ]

let schema_case (name, shape, produce, optional, free, finite_paths) =
  case name (fun () ->
      (* What a reader sees: the emitted bytes, parsed back. *)
      let doc = Json.parse (Json.to_string (produce ())) in
      (match Json.check shape doc with
      | Ok () -> ()
      | Error e -> Alcotest.failf "producer's document rejected: %s" e);
      Alcotest.(check bool) "schema member" true
        (Json.member "schema" doc = Some (Json.Str name));
      let broken = mutations ~optional ~free doc in
      if List.length broken < 10 then Alcotest.fail "too few mutations";
      List.iter
        (fun (what, bad) ->
          match Json.check shape bad with
          | Ok () -> Alcotest.failf "accepted %s" what
          | Error _ -> ())
        broken;
      List.iter
        (fun path ->
          List.iter
            (fun x ->
              match Json.check shape (set_at path (Json.Float x) doc) with
              | Ok () ->
                Alcotest.failf "accepted %g at %s" x (String.concat "." path)
              | Error _ -> ())
            [ Float.nan; Float.infinity; Float.neg_infinity ])
        finite_paths)

let shape_errors_name_the_path () =
  let doc = Json.parse (Json.to_string (mc_outcome_doc ())) in
  let bad =
    match doc with
    | Json.Obj kvs ->
      Json.Obj
        (List.map
           (function
             | "swarm", Json.List [ m ] ->
               ( "swarm",
                 Json.List [ set_at [ "outcome"; "runs" ] (Json.Str "7") m ] )
             | kv -> kv)
           kvs)
    | _ -> assert false
  in
  Alcotest.(check (result unit string))
    "error names the path"
    (Error "swarm[0].outcome.runs: expected an integer")
    (Json.check Mc_outcome.shape bad)

(* --- Stats merge edge cases (PR 3's sentinel fix must survive merge) --- *)

let float_eq what a b =
  if a <> b then Alcotest.failf "%s: expected %g, got %g" what b a

let stats_merge_empty_edges () =
  let populated () =
    let s = Stats.create () in
    List.iter (Stats.add s) [ 3.; 7.; 42. ];
    s
  in
  let check_like what m =
    Alcotest.(check int) (what ^ ": count") 3 (Stats.count m);
    float_eq (what ^ ": min") (Stats.min m) 3.;
    float_eq (what ^ ": max") (Stats.max m) 42.;
    float_eq (what ^ ": mean") (Stats.mean m) (52. /. 3.);
    float_eq (what ^ ": p100") (Stats.percentile m 100.) 42.;
    (* Emission must stay finite after the merge. *)
    ignore (Json.to_string (Stats.to_json m))
  in
  (* Merging an empty histogram in either direction must preserve exact
     count/min/max/percentile semantics of the populated side. *)
  check_like "empty into populated" (Stats.merge (Stats.create ()) (populated ()));
  check_like "populated into empty" (Stats.merge (populated ()) (Stats.create ()))

let stats_merge_all_empty () =
  (* A merge of empties is itself empty: every accessor must report 0,
     never the internal ±infinity sentinels, and to_json must emit. *)
  let m = Stats.merge (Stats.create ()) (Stats.create ()) in
  Alcotest.(check int) "count" 0 (Stats.count m);
  float_eq "min" (Stats.min m) 0.;
  float_eq "max" (Stats.max m) 0.;
  float_eq "mean" (Stats.mean m) 0.;
  float_eq "p50" (Stats.percentile m 50.) 0.;
  float_eq "p100" (Stats.percentile m 100.) 0.;
  ignore (Json.to_string (Stats.to_json m));
  (* And merging that empty merge into real data still works. *)
  let s = Stats.create () in
  Stats.add s 5.;
  let m2 = Stats.merge m s in
  Alcotest.(check int) "count after" 1 (Stats.count m2);
  float_eq "min after" (Stats.min m2) 5.;
  float_eq "max after" (Stats.max m2) 5.

let stats_nan_never_wedges_sentinels () =
  (* NaN is treated as 0: a histogram that only ever saw NaN has a real
     count and must still report finite min/max/mean and emit JSON. *)
  let s = Stats.create () in
  Stats.add s Float.nan;
  Alcotest.(check int) "count" 1 (Stats.count s);
  float_eq "min" (Stats.min s) 0.;
  float_eq "max" (Stats.max s) 0.;
  float_eq "mean" (Stats.mean s) 0.;
  ignore (Json.to_string (Stats.to_json s));
  ignore (Json.to_string (Stats.to_json (Stats.merge s s)))

(* --- the baseline gate's numeric-cell comparison --- *)

let tolerance_zero_baseline () =
  let within = Report.cell_within_tolerance in
  (* Nonzero baselines: relative to the larger magnitude, floored at 1. *)
  Alcotest.(check bool) "9% drift passes" true
    (within ~tolerance:0.10 ~base:100. ~fresh:109.);
  Alcotest.(check bool) "15% drift fails" false
    (within ~tolerance:0.10 ~base:100. ~fresh:115.);
  Alcotest.(check bool) "sub-1 magnitudes compare absolutely" true
    (within ~tolerance:0.10 ~base:0.5 ~fresh:0.58);
  Alcotest.(check bool) "negative baselines use magnitude" true
    (within ~tolerance:0.10 ~base:(-10.) ~fresh:(-10.9));
  (* Zero baseline: tolerance is an absolute epsilon around 0 — small
     fresh noise passes, material drift fails no matter how it compares
     relatively (fresh/0 is meaningless), and raising --tolerance admits
     exactly the values it names. *)
  Alcotest.(check bool) "zero to zero" true
    (within ~tolerance:0.10 ~base:0. ~fresh:0.);
  Alcotest.(check bool) "noise above zero passes" true
    (within ~tolerance:0.10 ~base:0. ~fresh:0.08);
  Alcotest.(check bool) "material drift from zero fails" false
    (within ~tolerance:0.10 ~base:0. ~fresh:2.);
  Alcotest.(check bool) "epsilon is absolute, not relative" false
    (within ~tolerance:2. ~base:0. ~fresh:5.);
  Alcotest.(check bool) "named epsilon admits the value" true
    (within ~tolerance:6. ~base:0. ~fresh:5.);
  (* The cell parser feeding it strips the truncation marker. *)
  Alcotest.(check bool) "truncation marker" true
    (Report.number_of_cell "1234+" = Some 1234.);
  Alcotest.(check bool) "non-numeric cell" true
    (Report.number_of_cell "yes" = None)

let () =
  Alcotest.run "observability"
    [
      ( "json",
        [
          case "roundtrip" json_roundtrip;
          case "escapes" json_parse_escapes;
          case "non-finite" json_rejects_non_finite;
        ] );
      ( "trace-export",
        [
          case "byte-stable" exports_are_byte_stable;
          case "chrome-valid" chrome_export_is_valid_and_balanced;
          case "jsonl-lines" jsonl_lines_parse;
        ] );
      ( "metrics",
        [
          case "stable-across-jobs" driver_metrics_stable_across_jobs;
          case "finite-and-valid" metrics_json_is_finite_and_valid;
        ] );
      ( "report",
        [
          case "display-width" display_width_counts_scalars;
          case "render-utf8" render_aligns_utf8;
        ] );
      ( "stats",
        [
          case "merge-empty-edges" stats_merge_empty_edges;
          case "merge-all-empty" stats_merge_all_empty;
          case "nan-never-wedges" stats_nan_never_wedges_sentinels;
        ] );
      ( "schemas",
        List.map schema_case schemas
        @ [ case "error-paths" shape_errors_name_the_path ] );
      ( "validator",
        [
          case "accepts-and-rejects" validator_accepts_and_rejects;
          case "mc-outcome" mc_outcome_validator_accepts_and_rejects;
          case "zero-baseline-tolerance" tolerance_zero_baseline;
        ] );
    ]
