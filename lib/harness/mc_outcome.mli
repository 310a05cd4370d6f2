(** The [rme-mc-outcome/1] document that [model-check --out] and
    [scenario run --out] write: the run's configuration, its
    {!Model_check.outcome}, a swarm search's per-member outcomes, and
    the minimized violating schedule (DESIGN.md §5.12, §5.16). *)

val schema : string
(** ["rme-mc-outcome/1"]. *)

val swarm_member :
  member:int ->
  divergence_bound:int ->
  crash_bound:int ->
  crash_one_bound:int ->
  salt:int ->
  Model_check.outcome ->
  Sim.Json.t
(** One swarm member: its varied bounds, its bitstate salt and its own
    outcome, in the same form as the document's top-level outcome. *)

val doc :
  config:(string * Sim.Json.t) list ->
  outcome:Model_check.outcome ->
  swarm:Sim.Json.t list ->
  minimized:Shrink.result option ->
  n:int ->
  Sim.Json.t
(** The whole document. The outcome carries the counters, the
    violations and the witness, plus the bitstate occupancy and
    collision bound when the search measured them. [swarm]
    ({!swarm_member}s) is omitted when empty. [minimized] is [Null]
    when absent, otherwise its decision trace, its
    [(pos, decision, meaning)] interventions ([n] names the processes
    in [meaning]) and the shrinking statistics. *)

val shape : Sim.Json.shape
(** The shape of a {!doc}: a config object, integer outcome counters,
    string violations, an optional integer [witness] array, and a
    [minimized_schedule] that is [Null] or complete. The §5.19 members
    are optional (older files stay valid): an integer [sleep_pruned],
    finite [bitstate_occupancy]/[collision_bound] (NaN/inf rejected),
    and a [swarm] array whose members carry their bounds, salt and a
    full outcome. *)
