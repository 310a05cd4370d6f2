(* Measurement helpers shared by the workloads: heap allocation read
   across domains, interpolated histogram percentiles, GC pause time
   from the runtime's event ring, and the one-line JSON a child prints. *)

let now_ns = Rme_native.Clock.now_ns

let seconds_between t0 t1 = float_of_int (t1 - t0) /. 1e9

(* Gc.quick_stat sums the counters of every domain, including domains
   that have already joined; Gc.allocated_bytes reads the calling domain
   only. Take both marks after the pool's domains have joined. The
   minor-word count drifts with where the minor heap's fill level stands
   when a measurement starts, so callers empty it first (Gc.minor). *)
type gc_mark = { words : float; minors : int; majors : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  {
    words = s.minor_words +. s.major_words -. s.promoted_words;
    minors = s.minor_collections;
    majors = s.major_collections;
  }

let alloc_mb a b = (b.words -. a.words) *. 8. /. 1e6

let peak_heap_mb () =
  float_of_int (Gc.quick_stat ()).top_heap_words *. 8. /. 1e6

(* Percentile [p] of a Sim.Stats histogram, interpolated linearly inside
   the exported bucket that holds the rank (samples spread evenly over
   the bucket's value range). Stats.percentile reports the bucket's top,
   which jumps by up to 1/8 octave between identical runs. *)
let percentile stats p =
  let n = Sim.Stats.count stats in
  if n = 0 then 0.
  else begin
    let buckets =
      match Sim.Json.member "buckets" (Sim.Stats.to_json stats) with
      | Some (Sim.Json.List bs) ->
        List.map
          (function
            | Sim.Json.List [ Int lo; Int hi; Int c ] -> (lo, hi, c)
            | _ -> invalid_arg "Measure.percentile: malformed bucket")
          bs
      | _ -> []
    in
    let rank = p /. 100. *. float_of_int n in
    let rec go cum = function
      | [] -> Sim.Stats.max stats
      | (lo, hi, c) :: rest ->
        let cum' = cum +. float_of_int c in
        if cum' >= rank then
          float_of_int lo
          +. ((rank -. cum) /. float_of_int c *. float_of_int (hi + 1 - lo))
        else go cum' rest
    in
    Float.min (Sim.Stats.max stats)
      (Float.max (Sim.Stats.min stats) (go 0. buckets))
  end

(* GC pause time, summed over domains: the time each domain spends
   inside a minor collection or a major slice, read from the runtime's
   event ring (Runtime_events). A systhread drains the ring while the
   workload runs so it cannot wrap. Nested phases on one ring count
   once. *)
module Pauses = struct
  type t = {
    cursor : Runtime_events.cursor;
    callbacks : Runtime_events.Callbacks.t;
    mutable total_ns : int;
    mutable lost : int;
    stop : bool Atomic.t;
    mutable poller : Thread.t option;
  }

  let is_pause = function
    | Runtime_events.EV_MINOR | EV_MAJOR_SLICE -> true
    | _ -> false

  let start () =
    Runtime_events.start ();
    let depth = Hashtbl.create 8 and opened = Hashtbl.create 8 in
    let total = ref 0 and lost = ref 0 in
    let runtime_begin ring ts phase =
      if is_pause phase then begin
        let d = Option.value (Hashtbl.find_opt depth ring) ~default:0 in
        if d = 0 then
          Hashtbl.replace opened ring
            (Int64.to_int (Runtime_events.Timestamp.to_int64 ts));
        Hashtbl.replace depth ring (d + 1)
      end
    in
    let runtime_end ring ts phase =
      if is_pause phase then
        match Hashtbl.find_opt depth ring with
        | Some 1 ->
          Hashtbl.replace depth ring 0;
          let t = Int64.to_int (Runtime_events.Timestamp.to_int64 ts) in
          total := !total + (t - Hashtbl.find opened ring)
        | Some d when d > 1 -> Hashtbl.replace depth ring (d - 1)
        | _ -> ()
    in
    let lost_events _ring k = lost := !lost + k in
    let t =
      {
        cursor = Runtime_events.create_cursor None;
        callbacks =
          Runtime_events.Callbacks.create ~runtime_begin ~runtime_end
            ~lost_events ();
        total_ns = 0;
        lost = 0;
        stop = Atomic.make false;
        poller = None;
      }
    in
    let drain () =
      ignore (Runtime_events.read_poll t.cursor t.callbacks None);
      t.total_ns <- !total;
      t.lost <- !lost
    in
    t.poller <-
      Some
        (Thread.create
           (fun () ->
             while not (Atomic.get t.stop) do
               drain ();
               Thread.delay 0.01
             done;
             drain ())
           ());
    t

  (* Stop polling; returns (pause ms, events lost to ring wrap). *)
  let stop t =
    Atomic.set t.stop true;
    Option.iter Thread.join t.poller;
    (float_of_int t.total_ns /. 1e6, t.lost)
end

(* A child's report: correctness, operation counts, and two metric maps
   (end-to-end and per-layer), as one JSON line on stdout. *)
let report ~errors ~attempted ~failed ~e2e ~layer =
  let open Sim.Json in
  let num kvs = Obj (List.map (fun (k, v) -> (k, Float v)) kvs) in
  print_endline
    (to_string
       (Obj
          [
            ("ok", Bool (errors = []));
            ("errors", List (List.map (fun e -> Str e) errors));
            ("attempted", Int attempted);
            ("failed", Int failed);
            ("e2e", num e2e);
            ("layer", num layer);
          ]))
