(* The service workload (svc-crash): one Loadgen run of the sharded lock
   service over t3-mcs with a system-wide crash drill mid-run, checked
   against per-shard counts recomputed here from the traffic streams. *)

module Loadgen = Rme_service.Loadgen
module Traffic = Rme_service.Traffic
module Table = Rme_service.Table

let stack = "t3-mcs"
let n = 2
let keys = 1_000_000
let shards = 1024
let theta = 0.99
let batch = 16
let per_worker = 500_000
let drill_after = 0.3

let traffic ~seed =
  Traffic.make ~theta ~seed ~workers:n ~per_worker ~key_space:keys ()

(* Everything the run claims, checked from an independently generated
   copy of its input: the streams' per-shard request counts must equal
   the harness's served counts and the table's own completions. *)
let check ~seed (r : Loadgen.result) =
  let t = traffic ~seed in
  let issued = Array.make shards 0 in
  Array.iter
    (fun st ->
      for i = 0 to per_worker - 1 do
        let s = Table.shard_of_key ~shards st.Traffic.s_keys.(i) in
        issued.(s) <- issued.(s) + 1
      done)
    t.Traffic.streams;
  let fail cond msg = if cond then [ msg ] else [] in
  List.concat
    [
      fail (r.shard_served <> issued) "per-shard served <> recomputed issued";
      fail
        (r.table_completions <> issued)
        "table completions <> recomputed issued";
      fail
        (Loadgen.total_served r <> n * per_worker)
        (Printf.sprintf "served %d of %d requests" (Loadgen.total_served r)
           (n * per_worker));
      fail (r.me_violations > 0)
        (Printf.sprintf "%d mutual-exclusion violations" r.me_violations);
      fail
        (r.lost_update_shards > 0)
        (Printf.sprintf "lost updates on %d shards" r.lost_update_shards);
      fail
        (r.traffic_fingerprint <> Traffic.fingerprint t)
        "traffic fingerprint differs from the regenerated streams";
      (match r.drill with
      | None -> [ "crash drill did not run" ]
      | Some d ->
        (* Non-vacuity reads the recovery passages, not [d_hot]: Loadgen
           counts the hot shards only after [Crash.crash] has released
           the workers, so a controller descheduled for the length of
           their sweeps (a few ms) reads 0 on a correct run. *)
        fail (r.crashes <> 1) (Printf.sprintf "%d crashes, expected 1" r.crashes)
        @ fail (d.d_sweeps = 0) "no recovery passage after the crash"
        @ fail (d.d_drained < d.d_hot)
            (Printf.sprintf "drill: %d of %d hot shards never drained"
               (d.d_hot - d.d_drained) d.d_hot));
    ]

let run ~seed ~launched ~traced =
  let pauses = if traced then Some (Measure.Pauses.start ()) else None in
  Gc.minor ();
  let g0 = Measure.gc_mark () in
  let t0 = Measure.now_ns () in
  let r =
    Loadgen.run ~stack ~shards ~theta ~batch ~drill_after ~seed ~n ~keys
      ~per_worker ()
  in
  let t1 = Measure.now_ns () in
  let g1 = Measure.gc_mark () in
  let peak = Measure.peak_heap_mb () in
  let pause_ms, lost =
    Option.fold ~none:(0., 0) ~some:Measure.Pauses.stop pauses
  in
  let errors = check ~seed r in
  let errors =
    if lost > 0 then Printf.sprintf "%d GC events lost" lost :: errors
    else errors
  in
  let served = Loadgen.total_served r in
  let lat = r.latency_ns in
  let e2e =
    [
      (* Loadgen exposes no hook at its first request: set-up is the
         time before the call plus the call's time outside its serving
         window (traffic generation, table and worker start before it,
         the latency fold after). *)
      ( "setup_s",
        Measure.seconds_between (Option.value launched ~default:t0) t1
        -. r.elapsed );
      ("verdict_s", r.elapsed);
      ("steps", float_of_int served);
      ("alloc_mb", Measure.alloc_mb g0 g1);
      ("peak_heap_mb", peak);
      ("req_per_s", float_of_int served /. r.elapsed);
      ("latency_p50_us", Measure.percentile lat 50. /. 1e3);
      ("latency_p99_us", Measure.percentile lat 99. /. 1e3);
      ("passages", float_of_int r.batches);
    ]
  in
  let hot_p99 =
    List.fold_left
      (fun acc (_, _, h) -> Float.max acc (Measure.percentile h 99.))
      0. r.shard_latency
  in
  let drain_ms, sweeps =
    match r.drill with
    | Some d -> (d.d_drain_s *. 1e3, d.d_sweeps)
    | None -> (0., 0)
  in
  let layer =
    [
      ("client.mean_batch", float_of_int served /. float_of_int r.batches);
      ("client.max_batch", float_of_int r.max_batch);
      ("recovery.drain_ms", drain_ms);
      ("recovery.sweep_passages", float_of_int sweeps);
      ("loadgen.hot_shard_p99_us", hot_p99 /. 1e3);
      ("gc.minor_collections", float_of_int (g1.minors - g0.minors));
      ("gc.major_collections", float_of_int (g1.majors - g0.majors));
      ("gc.pause_ms", pause_ms);
    ]
  in
  Measure.report ~errors ~attempted:(n * per_worker) ~failed:0 ~e2e ~layer
