(* One measured unit of a benchmark workload per process, reported as a
   single JSON line; perfbench/run.py starts these processes and folds
   their reports into the benchmark's result.

     perfbench.exe checker mc-por|mc-none [--trace] [--jobs J]
     perfbench.exe service --seed S [--trace]
     perfbench.exe probes --seed S --n N

   [--launched NS] gives the CLOCK_MONOTONIC time at which the parent
   started this process; set-up time is then counted from it. *)

let usage () =
  prerr_endline
    "usage: perfbench.exe (checker WORKLOAD [--trace] [--jobs J] | service \
     --seed S [--trace] | probes --seed S --n N)";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opt name = function
    | k :: v :: _ when k = name -> int_of_string_opt v
    | _ :: rest -> opt name rest
    | [] -> None
  in
  let flag name = List.mem name args in
  let required name = match opt name args with Some v -> v | None -> usage () in
  let launched = opt "--launched" args in
  match args with
  | "checker" :: workload :: _ ->
    Checker_wl.run ~workload ~launched ~traced:(flag "--trace")
      ~jobs:(opt "--jobs" args)
  | "service" :: _ ->
    Service_wl.run ~seed:(required "--seed") ~launched ~traced:(flag "--trace")
  | "probes" :: _ -> Layer_probes.run ~seed:(required "--seed") ~n:(required "--n")
  | _ -> usage ()
