(* The rme-mc-outcome/1 document: one emitter and one shape for what
   [model-check --out] and [scenario run --out] write. *)

let schema = "rme-mc-outcome/1"

open Sim.Json

let ints a = List (Array.to_list (Array.map (fun d -> Int d) a))
let strs xs = List (List.map (fun x -> Str x) xs)

let outcome_json (o : Model_check.outcome) =
  Obj
    ([
       ("runs", Int o.runs);
       ("steps", Int o.steps);
       ("step_cap_hits", Int o.step_cap_hits);
       ("deadlocks", Int o.deadlocks);
       ("truncated", Bool o.truncated);
       ("distinct_states", Int o.distinct_states);
       ("pruned_runs", Int o.pruned_runs);
       ("pruned_branches", Int o.pruned_branches);
       ("sleep_pruned", Int o.sleep_pruned);
     ]
    @ (match (o.bitstate_occupancy, o.collision_bound) with
      | Some occ, Some b ->
        [ ("bitstate_occupancy", Float occ); ("collision_bound", Float b) ]
      | _ -> [])
    @ [
        ("violations", strs o.violations);
        ("witness", match o.witness with None -> Null | Some w -> ints w);
      ])

let swarm_member ~member ~divergence_bound ~crash_bound ~crash_one_bound ~salt
    o =
  Obj
    [
      ("member", Int member);
      ("divergence_bound", Int divergence_bound);
      ("crash_bound", Int crash_bound);
      ("crash_one_bound", Int crash_one_bound);
      ("salt", Int salt);
      ("outcome", outcome_json o);
    ]

let minimized_json ~n : Shrink.result option -> Sim.Json.t = function
  | None -> Null
  | Some m ->
    Obj
      [
        ("trace", ints m.s_trace);
        ( "interventions",
          List
            (List.map
               (fun (pos, d) ->
                 Obj
                   [
                     ("pos", Int pos);
                     ("decision", Int d);
                     ("meaning", Str (Model_check.describe_decision ~n d));
                   ])
               m.s_interventions) );
        ("violations", strs m.s_violations);
        ("steps", Int m.s_steps);
        ("probes", Int m.s_probes);
      ]

let doc ~config ~outcome ~swarm ~minimized ~n =
  Obj
    ([
       ("schema", Str schema);
       ("config", Obj config);
       ("outcome", outcome_json outcome);
     ]
    @ (if swarm = [] then [] else [ ("swarm", List swarm) ])
    @ [ ("minimized_schedule", minimized_json ~n minimized) ])

(* The sleep/bitstate members are optional (older files predate them);
   when present the floats must be finite — an occupancy or collision
   bound of NaN/inf means the producer leaked a sentinel. *)
let outcome_shape =
  obj
    (List.map
       (fun k -> req k int)
       [
         "runs"; "steps"; "step_cap_hits"; "deadlocks"; "distinct_states";
         "pruned_runs"; "pruned_branches";
       ]
    @ [
        req "truncated" bool;
        req "violations" (list string);
        opt "witness" (null_or (list int));
        opt "sleep_pruned" int;
        opt "bitstate_occupancy" (null_or finite);
        opt "collision_bound" (null_or finite);
      ])

(* The minimized schedule is Null when the search was clean (or shrinking
   was disabled); otherwise its trace must replay the violation, so both
   the decision array and the interventions it was reduced to are
   mandatory. *)
let shape =
  obj
    [
      req "schema" (enum [ schema ]);
      req "config" (obj []);
      req "outcome" outcome_shape;
      opt "swarm"
        (list
           (obj
              (List.map
                 (fun k -> req k int)
                 [
                   "member"; "divergence_bound"; "crash_bound";
                   "crash_one_bound"; "salt";
                 ]
              @ [ req "outcome" outcome_shape ])));
      req "minimized_schedule"
        (null_or
           (obj
              [
                req "trace" (list int);
                req "violations" (list string);
                req "steps" int;
                req "probes" int;
                req "interventions"
                  (list
                     (obj
                        [
                          req "pos" int;
                          req "decision" int;
                          req "meaning" string;
                        ]));
              ]));
    ]
