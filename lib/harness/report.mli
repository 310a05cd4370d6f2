(** Plain-text table rendering for the benchmark harness (aligned columns,
    Markdown-ish separators), so every experiment prints rows the way the
    paper's claims read — plus an in-memory capture of every table printed
    and every metric recorded since the last {!reset_captured}, so the
    harness can additionally emit machine-readable [BENCH_E<k>.json] files
    (schema {!bench_schema}) for cross-PR perf tracking. *)

type captured = { title : string; header : string list; rows : string list list }

val table :
  ?capture:bool -> title:string -> header:string list -> string list list -> unit
(** Print a titled, column-aligned table to stdout (and record it for
    {!captured}). [~capture:false] prints without recording — for
    machine-dependent columns (absolute throughputs, ratios) that belong
    in the run log but must stay out of the baseline-gated JSON; gate on
    such numbers in code and record them via {!metric} instead. *)

val ablation_table :
  ?capture:bool ->
  title:string ->
  label_header:string ->
  base_header:string ->
  variant_header:string ->
  fmt:(float -> string) ->
  (string * float * float) list ->
  unit
(** Side-by-side ablation: one row per [(label, base, variant)] with a
    trailing variant/base ratio column. Defaults to [~capture:false]
    (the cells are machine-dependent by nature; see {!table}). *)

val render : header:string list -> string list list -> string list
(** The rendered lines of a table (header, rule, rows) without printing —
    columns are aligned by {!display_width}, not byte length. *)

val display_width : string -> int
(** Unicode scalar count of a UTF-8 string — what a monospace terminal
    renders for the symbols our tables use (e.g. ["Θ(log N)"] is 8, not
    its 9 bytes). *)

val metric : name:string -> Sim.Json.t -> unit
(** Record one named metric (e.g. a {!Sim.Stats.to_json} histogram) for
    the current experiment's JSON file. *)

val reset_captured : unit -> unit
(** Forget previously captured tables and metrics (call before each
    experiment). *)

val captured : unit -> captured list
(** Tables printed since the last {!reset_captured}, in print order. *)

val captured_metrics : unit -> (string * Sim.Json.t) list
(** Metrics recorded since the last {!reset_captured}, in record order. *)

val number_of_cell : string -> float option
(** Numeric value of a table cell, accepting the harness's ["12345+"]
    truncation marker; [None] for non-numeric cells. *)

val cell_within_tolerance : tolerance:float -> base:float -> fresh:float -> bool
(** The baseline gate's numeric-cell agreement: relative to the larger
    magnitude (floored at 1) for nonzero baselines, absolute — within
    [tolerance] of 0 — when the baseline is exactly 0, where a relative
    rule degenerates into rejecting every nonzero fresh value.
    [bench/validate.exe] applies this to every non-safety numeric cell;
    [test/test_observability.ml] pins the semantics. *)

val bench_schema : string
(** Schema identifier stamped into every [BENCH_E<k>.json] ("rme-bench/1"). *)

val bench_doc : experiment:string -> jobs:int -> elapsed:float -> Sim.Json.t
(** The {!bench_schema} document for the current experiment: every table
    and metric captured since the last {!reset_captured}, plus the run's
    parameters and wall-clock time (rounded to milliseconds). *)

val bench_shape : Sim.Json.shape
(** The shape of a {!bench_doc}: required keys, tables of string cells,
    and a metrics object. *)

val f1 : float -> string
(** Format a float with one decimal. *)

val i : int -> string
