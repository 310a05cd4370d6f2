(** Native stress/throughput harness: N domains hammer one recoverable
    lock, a controller injects stop-the-world crashes, and online monitors
    track the same properties the simulator's driver checks (CS occupancy,
    CSR, lost updates on an intentionally unprotected counter). *)

type sample = { at : float;  (** seconds since the run started *)
                total_passages : int }

type result = {
  n : int;
  lock_name : string;
  completed : int array;  (** per worker, index 1..n *)
  crashes : int;
  me_violations : int;
  csr_violations : int;
  csr_reentries : int;
  cs_completions : int;
  counter : int;
      (** protected plain (non-atomic) counter; equals [cs_completions]
          unless mutual exclusion broke *)
  elapsed : float;  (** seconds *)
  samples : sample array;
      (** passages/s time series from the periodic sampler; empty unless
          [sample_interval] was given *)
  spin : Backoff.mode;  (** spin policy the run's crash handle used *)
  pinned : int;
      (** workers whose core pin actually landed; 0 unless [~pin:true]
          on a platform with affinity support *)
  passage_ns : Sim.Stats.t option;
      (** per-passage latency histogram, all workers merged; [Some]
          iff the run was armed with [~latency:true] *)
  timer_is_tsc : bool;
      (** unit of {!passage_ns}: cycles (x86 TSC) when [~timer:`Cycles]
          resolved to a real cycle counter, monotonic ns otherwise *)
  alloc_words_per_passage : float option;
      (** worker 1's minor-heap words per steady-state passage (first
          fifth of its passages = warmup); [Some] iff the run was armed
          with [~alloc_probe:true] and ran failure-free *)
}

val run :
  ?crash_interval:float ->
  ?max_crashes:int ->
  ?seed:int ->
  ?csr_poll:bool ->
  ?sample_interval:float ->
  ?spin:Backoff.mode ->
  ?pin:bool ->
  ?latency:bool ->
  ?timer:[ `Ns | `Cycles ] ->
  ?alloc_probe:bool ->
  ?sync_start:bool ->
  ?run_for:float ->
  n:int ->
  passages:int ->
  make:(Crash.t -> n:int -> Intf.rme) ->
  unit ->
  result
(** [run ~n ~passages ~make ()] spawns [n] worker domains, each executing
    [passages] passages. [crash_interval] (seconds) arms the crash
    controller; [max_crashes] (default 50) bounds it. [seed] makes the
    controller jitter each interval over [dt/2, 3dt/2) with a seeded PRNG,
    so the crash {e schedule} replays for a given seed (the interleaving
    underneath is still real hardware concurrency); it also seeds the
    spin-backoff streams. [csr_poll] (default true) inserts a crash poll
    point {e inside} the critical section so crashed-in-CS recovery is
    actually exercised. [sample_interval] (seconds, min 1ms) arms a
    passive sampler thread that records the total-passage counter
    periodically ({!result.samples}) — a passages/s time series across
    crash storms.

    Hardware knobs (DESIGN.md §5.15): [spin] picks the spin-wait policy
    (default {!Backoff.Exponential}); [pin] (default false) pins worker
    [pid] to core [(pid-1) mod cores], best-effort — {!result.pinned}
    reports how many landed; [latency] arms per-passage latency
    histograms ([timer] selects monotonic ns, the default, or the cycle
    counter); [alloc_probe] measures worker 1's steady-state minor-heap
    allocation per passage (meaningful failure-free only). Latency
    recording itself boxes a float per passage, so don't combine it with
    [alloc_probe] on a row whose audit must read zero. [sync_start]
    (default false) holds every worker at a barrier until the last
    domain is up — without it, budgets that fit in one OS timeslice
    finish before the next domain spawns and a "contended" run silently
    measures serial execution (E14 arms it on every throughput row).
    [run_for] (seconds) additionally stops workers from starting new
    passages once the window closes, whatever [passages] remains:
    fixed-duration windows much longer than an OS timeslice measure the
    contended steady state instead of the bimodal
    finished-before-overlap mix that fixed budgets produce; in-flight
    passages complete cleanly, so FIFO queues drain. *)

val metrics : result -> Sim.Json.t
(** The result as JSON ([rme-native-metrics/1] schema): the monitor
    counters, per-domain passage counts, overall throughput, the spin
    policy and pin count, the sampler's time series, and — when armed —
    the passage-latency histogram and the allocation audit. *)

val metrics_json : result -> string
(** {!metrics}, pretty-printed, newline-terminated. *)

val metrics_schema : string
(** ["rme-native-metrics/1"]. *)

val metrics_shape : Sim.Json.shape
(** The shape of a {!metrics} document; [bench/validate.exe] looks it
    up by the [schema] member. *)

val check_clean : result -> (unit, string) Stdlib.result
(** [Ok ()] iff all workers finished with no ME violations and no lost
    updates. *)

val pp_result : Format.formatter -> result -> unit
