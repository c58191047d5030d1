(** R4 — profile honesty.

    The STM runtimes dispatch on [Op_profile.read_only]: an operation
    registered without a [~writes] clause runs through the zero-log /
    snapshot read-only path. A profile that lies costs a runtime
    demotion (one aborted transaction, a sticky registry entry) on
    every run — this rule catches the lie statically instead.

    The rule is a reporter: the verdict is the footprint inference's
    ({!Footprint.profile_violations}), the one analysis of what an
    operation writes, so [sb7-footprint gen] refuses on exactly what
    this rule reports. Each violation becomes a finding at the
    registration site, where the [~writes] clause belongs. No comment
    waives it ({!Suppress.unsuppressible}): the generator reads none,
    so a waiver would split the verdict. *)

let check (config : Lint_config.r4) units =
  let config = { Footprint.default with Footprint.fp_registry = config } in
  List.map
    (fun ((fp : Footprint.op_footprint), message) ->
      Lint_finding.make ~rule:"profile-honesty" ~loc:fp.fp_loc
        ~unit_name:fp.fp_unit message)
    (Footprint.profile_violations (Footprint.infer ~config units))
