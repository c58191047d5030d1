(* Soak-test driver: repeat full-surface benchmark cycles across every
   strategy and workload, verifying the structural invariants after
   each cycle.

     dune exec bin/soak.exe -- [ROUNDS] [OPS_PER_THREAD] [THREADS] *)

let () =
  let arg i default =
    if Array.length Sys.argv > i then int_of_string Sys.argv.(i) else default
  in
  let rounds = arg 1 2 in
  let ops_per_thread = arg 2 500 in
  let threads = arg 3 4 in
  Format.printf
    "Soak: %d rounds x (%d strategies x %d workloads), %d threads x %d ops \
     per cycle@."
    rounds
    (List.length Sb7_harness.Soak.concurrent_strategies)
    (List.length Sb7_harness.Workload.all_kinds)
    threads ops_per_thread;
  let all_clean = ref true in
  for round = 1 to rounds do
    Format.printf "@.round %d:@." round;
    let report =
      match
        Sb7_harness.Soak.run ~threads ~ops_per_thread ~seed:(42 + round)
          ~progress:(fun c ->
            Format.printf "  %a@." Sb7_harness.Soak.pp_cycle c)
          ()
      with
      | Ok report -> report
      | Error e ->
        Format.eprintf "error: %s@." e;
        exit 2
    in
    if not report.Sb7_harness.Soak.clean then all_clean := false;
    Format.printf "round %d: %d operations, %s@." round
      report.Sb7_harness.Soak.total_operations
      (if report.Sb7_harness.Soak.clean then "all invariants hold"
       else "INVARIANT VIOLATIONS")
  done;
  if !all_clean then Format.printf "@.SOAK PASSED@."
  else begin
    Format.printf "@.SOAK FAILED@.";
    exit 1
  end
