(* The model-checker workloads (mc-por, mc-none): one cold exhaustive
   search of Transformations 1-3 over MCS per process, measured from
   outside through a wrapped scenario, then a non-vacuity search that
   must find Transformation 1's known CSR violation. *)

module MC = Harness.Model_check
module Sc = Harness.Scenario

type config = { n : int; reduction : MC.reduction; jobs : int }

let divergence_bound = 2
let crash_bound = 1

let config = function
  | "mc-por" -> { n = 3; reduction = MC.Por; jobs = 1 }
  | "mc-none" -> { n = 2; reduction = MC.No_reduction; jobs = 2 }
  | w -> invalid_arg ("unknown checker workload " ^ w)

(* Counters fed by the wrapped scenario, from any pool domain. *)
let cs_entries = Atomic.make 0
let fp_calls = Atomic.make 0
let first_replay_ns = Atomic.make 0

(* Each domain times its replays as the gap between consecutive
   [make_body] calls (the engine calls it once per replay) into its own
   preallocated lane, so the timing allocates the same words on every
   run; lanes are folded into a histogram after the search. *)
type lane = { mutable len : int; gaps : int array; mutable last : int }

let max_runs = 200_000 (* Model_check.explore's default run budget *)
let lanes = ref []
let lanes_lock = Mutex.create ()

let lane_key =
  Domain.DLS.new_key (fun () ->
      let l = { len = 0; gaps = Array.make max_runs 0; last = 0 } in
      Mutex.protect lanes_lock (fun () -> lanes := l :: !lanes);
      l)

(* Counts critical-section entries; registers no fingerprint state, so
   the search explores exactly what the stock "rme" scenario does. *)
let entry_counter : Sc.monitor_set =
 fun _mem ~violation:_ ->
  [
    {
      (Sc.blank ~name:"cs-entries") with
      m_entered = Some (fun ~pid:_ ~epoch:_ -> Atomic.incr cs_entries);
    };
  ]

(* The registry's "rme" composition (mutual exclusion, CSR, lost
   update) plus the entry counter. *)
let scenario ~stack ~n =
  Sc.to_scenario
    (Sc.v ~n ~model:Sim.Memory.Cc
       ~workload:
         (Sc.rme_passages ~passages:1 ~make:(fun mem ->
              Rme.Stack.recoverable mem stack))
       ~monitors:
         [ Sc.mutex_monitors (); Sc.lost_update_monitor (); entry_counter ])

(* [traced] adds a fingerprint hook that returns a constant, so every
   state fingerprint the reduction engine takes is counted. *)
let wrap ~traced (sc : MC.scenario) =
  let make_body mem (ctx : MC.ctx) =
    let t = Measure.now_ns () in
    ignore (Atomic.compare_and_set first_replay_ns 0 t);
    let lane = Domain.DLS.get lane_key in
    if lane.last > 0 then begin
      lane.gaps.(lane.len) <- t - lane.last;
      lane.len <- lane.len + 1
    end;
    lane.last <- t;
    if traced then
      ctx.on_fingerprint (fun () ->
          Atomic.incr fp_calls;
          0);
    sc.make_body mem ctx
  in
  { sc with make_body }

let is_csr v = String.length v >= 4 && String.sub v 0 4 = "CSR:"

(* Transformation 1 alone lacks critical-section re-entry: the search
   must report a CSR violation, and its witness, replayed without the
   search, must reproduce one. A search that cannot see this bug would
   make the clean verdict above vacuous. *)
let non_vacuity ~reduction =
  let sc = scenario ~stack:"t1-mcs" ~n:2 in
  let o = MC.explore ~divergence_bound ~crash_bound ~reduction sc in
  if not (List.exists is_csr o.violations) then
    [ "non-vacuity: t1-mcs n=2 d=2 c=1 reported no CSR violation" ]
  else
    match o.witness with
    | None -> [ "non-vacuity: t1-mcs violation came without a witness" ]
    | Some w ->
      let decide ~pos ~enabled:_ ~default =
        if pos < Array.length w then w.(pos) else default
      in
      let rp = MC.run_schedule ~decide sc in
      if List.exists is_csr rp.rp_violations then []
      else [ "non-vacuity: replayed t1-mcs witness shows no CSR violation" ]

let verdict_errors (o : MC.outcome) =
  List.concat
    [
      List.map (fun v -> "t3-mcs violation: " ^ v) o.violations;
      (if o.deadlocks > 0 then [ Printf.sprintf "%d deadlocks" o.deadlocks ]
       else []);
      (if o.step_cap_hits > 0 then
         [ Printf.sprintf "%d step-cap hits" o.step_cap_hits ]
       else []);
      (if o.truncated then [ "search truncated by max_runs" ] else []);
    ]

let run ~workload ~launched ~traced ~jobs =
  let cfg = config workload in
  let jobs = Option.value jobs ~default:cfg.jobs in
  let pauses = if traced then Some (Measure.Pauses.start ()) else None in
  Gc.minor ();
  let g0 = Measure.gc_mark () in
  let t0 = Option.value launched ~default:(Measure.now_ns ()) in
  let sc = wrap ~traced (scenario ~stack:"t3-mcs" ~n:cfg.n) in
  let te = Measure.now_ns () in
  let o =
    MC.explore ~divergence_bound ~crash_bound ~reduction:cfg.reduction ~jobs
      sc
  in
  let t1 = Measure.now_ns () in
  let g1 = Measure.gc_mark () in
  let peak = Measure.peak_heap_mb () in
  let pause_ms, lost = Option.fold ~none:(0., 0) ~some:Measure.Pauses.stop pauses in
  let entries = Atomic.get cs_entries in
  let hist = Sim.Stats.create () in
  List.iter
    (fun l -> for i = 0 to l.len - 1 do Sim.Stats.add_int hist l.gaps.(i) done)
    !lanes;
  let errors = verdict_errors o @ non_vacuity ~reduction:cfg.reduction in
  let errors =
    if lost > 0 then Printf.sprintf "%d GC events lost" lost :: errors
    else errors
  in
  let verdict_s = Measure.seconds_between te t1 in
  let alloc_mb = Measure.alloc_mb g0 g1 in
  let fp = Atomic.get fp_calls in
  let e2e =
    [
      ("setup_s", Measure.seconds_between t0 (Atomic.get first_replay_ns));
      ("verdict_s", verdict_s);
      ("steps", float_of_int o.steps);
      ("alloc_mb", alloc_mb);
      ("peak_heap_mb", peak);
      ("req_per_s", float_of_int o.runs /. verdict_s);
      ("latency_p50_us", Measure.percentile hist 50. /. 1e3);
      ("latency_p99_us", Measure.percentile hist 99. /. 1e3);
      ("passages", float_of_int entries);
    ]
  in
  let layer =
    [
      ("mc.runs", float_of_int o.runs);
      ("mc.pruned_runs", float_of_int o.pruned_runs);
      ("mc.pruned_branches", float_of_int o.pruned_branches);
      ("mc.run_us_p50", Measure.percentile hist 50. /. 1e3);
      ("mc.run_us_p99", Measure.percentile hist 99. /. 1e3);
      ("sim.steps_per_s", float_of_int o.steps /. verdict_s);
      ("sim.alloc_b_per_step", alloc_mb *. 1e6 /. float_of_int o.steps);
      ("fp.calls", float_of_int fp);
      ("vset.states", float_of_int o.distinct_states);
      ( "vset.hit_ratio",
        if fp > 0 then float_of_int o.pruned_runs /. float_of_int fp else 0. );
      ("gc.minor_collections", float_of_int (g1.minors - g0.minors));
      ("gc.major_collections", float_of_int (g1.majors - g0.majors));
      ("gc.pause_ms", pause_ms);
    ]
  in
  (* Two searches per child: the measured one and the non-vacuity one. *)
  Measure.report ~errors ~attempted:2 ~failed:0 ~e2e ~layer
