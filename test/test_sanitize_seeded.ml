(* End to end: every planted bug of the fixture table is flagged in its
   category. *)

open Sanitize_helpers

let test_seeded (fixture : Sb7_harness.Fixture.t) () =
  let module F = Sb7_harness.Fixture in
  let attempt, v = F.detect { run_config with B.duration_s = 0.2 } fixture in
  if F.findings fixture.expect v = [] then
    Alcotest.failf "%s: no %s finding after %d runs:\n%s" fixture.name
      (F.category_name fixture.expect)
      attempt (Checker.summary v)

let () =
  Alcotest.run "sanitize_seeded"
    [
      ( "end-to-end",
        List.map
          (fun (f : Sb7_harness.Fixture.t) ->
            Alcotest.test_case ("seeded: " ^ f.bug) `Quick (test_seeded f))
          Sb7_harness.Fixture.all );
    ]
