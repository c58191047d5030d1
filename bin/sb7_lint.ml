(** sb7-lint: static STM-discipline checker over dune-generated [.cmt]
    typed ASTs. See docs/LINT.md for the rule families and suppression
    syntax. Exit code 1 when any unsuppressed error remains. *)

open Cmdliner

let run paths json sarif strict_local allow_stale source_root rules timing =
  (match Sb7_analysis.Lint_config.unknown_rule_families rules with
  | [] -> ()
  | unknown ->
    Printf.eprintf "sb7-lint: unknown rule family %s (expected %s)\n"
      (String.concat ", " unknown)
      (String.concat ", " Sb7_analysis.Lint_config.known_rule_families);
    exit 2);
  (match List.filter (fun p -> not (Sys.file_exists p)) paths with
  | [] -> ()
  | missing ->
    Printf.eprintf "sb7-lint: no such file or directory: %s\n"
      (String.concat ", " missing);
    exit 2);
  let config =
    let base = Sb7_analysis.Lint_config.default in
    let base = { base with Sb7_analysis.Lint_config.strict_local } in
    Sb7_analysis.Lint_config.narrow base rules
  in
  let clock = if timing then Some Unix.gettimeofday else None in
  let result =
    Sb7_analysis.Lint_engine.run ~config ?clock ~source_root ~paths ()
  in
  if sarif then print_string (Sb7_analysis.Lint_engine.render_sarif result)
  else if json then print_string (Sb7_analysis.Lint_engine.render_json result)
  else print_string (Sb7_analysis.Lint_engine.render_text result);
  (* Under --strict-local a stale suppression or sanction is an error,
     not a warning: the audit mode demands every in-source waiver and
     every Lint_config sanction still earn its keep. --allow-stale
     restores the warning during refactors. *)
  let stale_fails =
    strict_local && (not allow_stale) && Sb7_analysis.Lint_engine.stale result
  in
  if stale_fails && (sarif || json) then begin
    List.iter
      (fun (file, line, rule) ->
        Printf.eprintf
          "%s:%d: error: stale suppression for rule %S matches no finding\n"
          file line rule)
      result.Sb7_analysis.Lint_engine.stale_suppressions;
    List.iter
      (fun line -> prerr_endline ("error: " ^ line))
      (Sb7_analysis.Lint_engine.stale_sanction_lines result)
  end;
  if result.Sb7_analysis.Lint_engine.findings = [] && not stale_fails then 0
  else 1

let paths_arg =
  let doc =
    "Directories scanned recursively for .cmt files (or .cmt files \
     directly)."
  in
  Arg.(non_empty & pos_all string [] & info [] ~docv:"PATH" ~doc)

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit a machine-readable JSON report.")

let sarif_arg =
  Arg.(value & flag
       & info [ "sarif" ]
           ~doc:"Emit a SARIF 2.1.0 report (GitHub code scanning). \
                 Takes precedence over $(b,--json).")

let strict_local_arg =
  let doc =
    "Also report provably transaction-local mutable state as notices, \
     and fail (exit 1) on stale suppression comments and on \
     Lint_config sanctions naming a unit or binding the scanned tree \
     lacks — a full-purity audit where every waiver must still match a \
     finding."
  in
  Arg.(value & flag & info [ "strict-local" ] ~doc)

let allow_stale_arg =
  let doc =
    "With $(b,--strict-local): downgrade stale suppressions and \
     sanctions back to warnings (escape hatch for refactors that move \
     findings around)."
  in
  Arg.(value & flag & info [ "allow-stale" ] ~doc)

let source_root_arg =
  let doc =
    "Directory against which source paths recorded in .cmt files are \
     resolved (for suppression comments)."
  in
  Arg.(value & opt string "." & info [ "source-root" ] ~docv:"DIR" ~doc)

let rules_arg =
  let doc =
    "Comma-separated subset of rule families to run (R1,R2,R3,R4,R5,R6,R7)."
  in
  Arg.(value & opt (list string) [] & info [ "rules" ] ~docv:"RULES" ~doc)

let timing_arg =
  let doc =
    "Print per-stage wall-clock times (cmt loading, each rule family, \
     the shared escape-graph build, suppression loading)."
  in
  Arg.(value & flag & info [ "timing" ] ~doc)

let cmd =
  let doc = "enforce STM discipline across the STMBench7 sync-free core" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Walks dune-generated typed ASTs and enforces: (R1) no mutable \
         state bypassing the Runtime functor in the core; (R2) no \
         irrevocable effects reachable from abortable operation bodies; \
         (R3) lock acquire/release pairing, ordering and no-wait \
         discipline in the lock-based runtimes; (R4) profile honesty — \
         an operation registered without a ~writes clause is dispatched \
         through the read-only fast path, so its code must not reach a \
         transactional write or index mutation; (R5) no unsafe Obj.* \
         primitives outside the sanctioned, DESIGN.md-documented sites; \
         (R6) no closure or transaction-local mutable value stored from \
         inside an atomic block into state that outlives it; (R7) no \
         unguarded cross-domain mutable state — every location reachable \
         from a Domain.spawn closure or a configured domain entry point \
         must be Atomic, tvar-managed, DLS-confined, lock-guarded or \
         pre-spawn-frozen.";
      `P
        "Suppress a finding with a comment on the same or preceding \
         line: (* sb7-lint: allow <rule> -- reason *).";
    ]
  in
  Cmd.v
    (Cmd.info "sb7_lint" ~version:Sb7_analysis.Lint_version.version ~doc ~man)
    Term.(
      const run $ paths_arg $ json_arg $ sarif_arg $ strict_local_arg
      $ allow_stale_arg $ source_root_arg $ rules_arg $ timing_arg)

let () = exit (Cmd.eval' cmd)
