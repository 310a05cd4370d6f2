(* Single-domain probes of one layer each, run by the traced mode in a
   process of their own: every probe times calls into the layer's public
   functions on inputs made from the seed. *)

module MC = Harness.Model_check
module Table = Rme_service.Table
module Client = Rme_service.Client
module Crash = Rme_native.Crash

let now = Measure.now_ns

(* Step engine alone: forced replays of the workload's scenario through
   Model_check.run_schedule, which keeps no visited set. Each schedule
   preempts at random with probability 1/10 and crashes once, at a
   random position among the first 64. *)
let replay_ns_per_step ~seed ~n =
  let sc = Checker_wl.scenario ~stack:"t3-mcs" ~n in
  let rng = Random.State.make [| seed; 0x5e9 |] in
  let steps = ref 0 and elapsed = ref 0 in
  let replays = 2_000 in
  for _ = 1 to replays do
    let crash_at = Random.State.int rng 64 in
    let decide ~pos ~enabled ~default =
      if pos = crash_at then MC.crash_decision
      else if Random.State.int rng 10 = 0 then
        List.nth enabled (Random.State.int rng (List.length enabled))
      else default
    in
    let t0 = now () in
    let rp = MC.run_schedule ~decide sc in
    elapsed := !elapsed + (now () - t0);
    steps := !steps + rp.rp_steps
  done;
  float_of_int !elapsed /. float_of_int !steps

(* Visited set alone: covers_or_add over a key stream shaped like
   mc-por's lookups (one per fingerprint it takes), into a cold exact set
   with mc-por's shard count: first visits of its distinct states,
   revisits at a budget not yet covered (a mask update), and covered
   revisits (hits), interleaved at random. *)
let vset_fresh = 335_178
let vset_upgrades = 28_479
let vset_hits = 41_481

let vset_ns_per_op ~seed =
  let rng = Random.State.make [| seed; 0x7e5 |] in
  let total = vset_fresh + vset_upgrades + vset_hits in
  let keys = Array.make total 0 and bits = Array.make total 1 in
  let fresh = Array.init vset_fresh (fun _ -> Random.State.bits rng) in
  let f = ref vset_fresh and u = ref vset_upgrades and h = ref vset_hits in
  let inserted = ref 0 and upgraded = ref 0 in
  for i = 0 to total - 1 do
    let r = Random.State.int rng (!f + !u + !h) in
    if r < !u && !upgraded < !inserted then begin
      keys.(i) <- fresh.(!upgraded);
      bits.(i) <- 2;
      incr upgraded;
      decr u
    end
    else if r < !u + !h && !inserted > 0 && !h > 0 then begin
      keys.(i) <- fresh.(Random.State.int rng !inserted);
      decr h
    end
    else begin
      keys.(i) <- fresh.(!inserted);
      incr inserted;
      decr f
    end
  done;
  let vs = Parallel.Vset.create ~shards:4 () in
  let t0 = now () in
  for i = 0 to total - 1 do
    let bit = bits.(i) in
    ignore (Parallel.Vset.covers_or_add vs keys.(i) ~bit ~closure:bit)
  done;
  float_of_int (now () - t0) /. float_of_int total

(* Service layers on one domain, pid 1 of a one-worker table, so every
   shard lies in its sweep partition. *)
let service_probes ~seed =
  let module Sw = Service_wl in
  let t0 = now () in
  ignore (Sw.traffic ~seed);
  let gen_s = Measure.seconds_between t0 (now ()) in
  let crash = Crash.create ~n:1 () in
  let table =
    Table.create ~stack:Sw.stack ~keys:Sw.keys ~shards:Sw.shards ~crash ~n:1 ()
  in
  let pass ~epoch shard =
    Table.acquire table ~pid:1 ~epoch ~shard;
    Table.serve table ~shard;
    Table.release table ~pid:1 ~epoch ~shard
  in
  (* First passage over each shard builds its lock stack. *)
  let t0 = now () in
  for s = 0 to Sw.shards - 1 do
    pass ~epoch:1 s
  done;
  let materialize_us = float_of_int (now () - t0) /. 1e3 /. float_of_int Sw.shards in
  let zipf = Rme_service.Zipf.create ~theta:Sw.theta ~seed ~keys:Sw.keys () in
  let passages = Sim.Stats.create () in
  for _ = 1 to 200_000 do
    let shard = Table.shard_of table (Rme_service.Zipf.sample zipf) in
    let t0 = now () in
    pass ~epoch:1 shard;
    Sim.Stats.add_int passages (now () - t0)
  done;
  let client = Client.create table ~pid:1 ~cap:Sw.batch ~on_served:(fun ~tag:_ ~shard:_ -> ()) in
  let flushed = ref 0 and flush_ns = ref 0 in
  for _ = 1 to 20_000 do
    for tag = 0 to Sw.batch - 1 do
      Client.submit client ~key:(Rme_service.Zipf.sample zipf) ~tag
    done;
    let t0 = now () in
    Client.flush client ~epoch:1;
    flush_ns := !flush_ns + (now () - t0);
    flushed := !flushed + Sw.batch
  done;
  (* Each epoch bump makes the next sweep a recovery passage per shard. *)
  let sweeps =
    List.init 5 (fun i ->
        let t0 = now () in
        let swept = Table.sweep table ~pid:1 ~epoch:(i + 2) in
        float_of_int (now () - t0) /. float_of_int swept)
  in
  let sweep_ns = List.nth (List.sort compare sweeps) 2 in
  [
    ("traffic.gen_s", gen_s);
    ("table.passage_ns_p50", Measure.percentile passages 50.);
    ("table.passage_ns_p99", Measure.percentile passages 99.);
    ("table.materialize_us", materialize_us);
    ("client.flush_ns_per_req", float_of_int !flush_ns /. float_of_int !flushed);
    ("recovery.sweep_ns_per_shard", sweep_ns);
  ]

let run ~seed ~n =
  let layer =
    [
      ("sim.replay_ns_per_step", replay_ns_per_step ~seed ~n);
      ("vset.ns_per_op", vset_ns_per_op ~seed);
    ]
    @ service_probes ~seed
  in
  Measure.report ~errors:[] ~attempted:1 ~failed:0 ~e2e:[] ~layer
