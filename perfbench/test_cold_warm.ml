(* The model checker keeps a process-global pre-sizing hint for its
   visited set, so a second identical search in one process runs warm.
   The hint is documented to change allocation only: a cold and a warm
   search must report identical runs, steps and states. The benchmark
   relies on this when it runs each search cold, once per process. *)

module MC = Harness.Model_check

let () =
  let sc =
    (Option.get (Harness.Scenario.find "rme"))
      { Harness.Scenario.default_params with sp_n = 2; sp_crash_bound = 1 }
  in
  let search () =
    MC.explore ~divergence_bound:2 ~crash_bound:1 ~reduction:MC.Por sc
  in
  let cold = search () in
  let warm = search () in
  let counts (o : MC.outcome) = (o.runs, o.steps, o.distinct_states) in
  let show (r, s, d) = Printf.sprintf "runs=%d steps=%d states=%d" r s d in
  if counts cold <> counts warm || cold.distinct_states = 0 then begin
    Printf.eprintf "cold %s <> warm %s\n" (show (counts cold)) (show (counts warm));
    exit 1
  end;
  Printf.printf "cold = warm: %s\n" (show (counts cold))
