(* sb7-sanitize: run the benchmark under the opacity + lockset
   sanitizer (lib/sanitize) and gate on the verdict.

   - [check]: every registered strategy gets a sanitized run; any
     finding, footprint escapes included, fails the command (exit 1)
     and dumps the offending trace for offline inspection. The seq
     runtime has no synchronization at all, so it is only meaningful —
     and only run — single-threaded.

   - [seeded FIXTURE]: arm one planted bug of the fixture table
     (Sb7_harness.Fixture) and demand that its verdict category flags
     it. A seeded run that comes back clean fails the command: the
     sanitizer did not bite.

   - [footprint TRACE]: replay a saved trace against the static
     footprint table.

   Before running anything, the lock-order table the dynamic checker
   uses is cross-checked against the R3 declaration sb7-lint enforces
   statically (Lint_config.default), so the two tools cannot silently
   drift apart. *)

module B = Sb7_harness.Benchmark
module Fixture = Sb7_harness.Fixture
module Checker = Sb7_sanitize.Checker
module Trace = Sb7_sanitize.Trace

open Cmdliner

(* --- Static/dynamic lock-order cross-check ------------------------- *)

let cross_check_lock_order () =
  let module LC = Sb7_analysis.Lint_config in
  let static =
    match LC.spec_for LC.default "Sb7_runtime__Medium_runtime" with
    | Some spec -> spec.LC.r3_order
    | None -> []
  in
  if static <> [ "structure"; "domains" ] then begin
    Format.eprintf
      "error: sb7-lint's R3 lock order for the medium runtime is %s, but \
       the sanitizer's rank table assumes structure-before-domains; update \
       Checker.profile_of_runtime to match@."
      (String.concat " < " static);
    exit 2
  end;
  let dynamic = (Checker.profile_of_runtime "medium").Checker.ranked_locks in
  let rank name = List.assoc_opt name dynamic in
  match rank "structure" with
  | None -> ()
  | Some rs ->
    List.iter
      (fun (name, r) ->
        if String.length name > 7 && String.sub name 0 7 = "domain-" && r <= rs
        then begin
          Format.eprintf
            "error: sanitizer rank table orders %s before the structure \
             lock, contradicting the R3 declaration@." name;
          exit 2
        end)
      dynamic

(* --- Shared run plumbing ------------------------------------------- *)

(* The workload of [check]; a fixture runs its own. *)
let config ~threads ~length ~scale:(scale_name, scale) ~seed =
  {
    B.default_config with
    B.threads;
    duration_s = length;
    workload = Sb7_harness.Workload.Read_write;
    scale;
    scale_name;
    seed;
    sanitize = true;
  }

let ensure_dir dir =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755

let save_trace ~dir ~name =
  ensure_dir dir;
  let path = Filename.concat dir (name ^ ".trace") in
  Trace.save path (Trace.dump ());
  path

(* --- check: all honest strategies must come back clean ------------- *)

let check threads length scale seed dir =
  cross_check_lock_order ();
  let failed = ref false in
  List.iter
    (fun (name, _) ->
      (* seq provides no synchronization: concurrent domains would race
         by design, so it is validated single-threaded only. *)
      let threads =
        if String.equal name Sb7_runtime.Registry.single_domain then 1
        else threads
      in
      let cfg = config ~threads ~length ~scale ~seed in
      match Sb7_harness.Driver.run ~runtime_name:name cfg with
      | Error e ->
        Format.printf "%-8s ERROR %s@." name e;
        failed := true
      | Ok result -> (
        match result.Sb7_harness.Run_result.sanitizer with
        | None ->
          Format.printf "%-8s ERROR sanitizer produced no verdict@." name;
          failed := true
        | Some v when Checker.clean v ->
          Format.printf
            "%-8s clean  (%d domains, %d attempts, %d events, %d accesses \
             footprint-checked)@."
            name v.Checker.domains v.Checker.attempts v.Checker.events
            v.Checker.footprint.checked
        | Some v ->
          let path = save_trace ~dir ~name in
          Format.printf "%-8s FLAGGED (trace saved to %s)@.%s@." name path
            (Checker.summary v);
          failed := true))
    Sb7_runtime.Registry.all;
  if !failed then 1 else 0

(* --- seeded: a planted bug must be flagged ------------------------- *)

let fixture_names =
  String.concat " | " (List.map (fun f -> f.Fixture.name) Fixture.all)

let fixture_conv =
  let parse s =
    match
      List.find_opt (fun f -> String.equal f.Fixture.name s) Fixture.all
    with
    | Some f -> Ok f
    | None ->
      Error
        (`Msg
           (Printf.sprintf "unknown fixture %S (expected %s)" s
              fixture_names))
  in
  Arg.conv ~docv:"FIXTURE"
    (parse, fun ppf f -> Format.pp_print_string ppf f.Fixture.name)

let seeded (fixture : Fixture.t) threads length scale seed dir =
  cross_check_lock_order ();
  let attempt, v =
    Fixture.detect (config ~threads ~length ~scale ~seed) fixture
  in
  let category = Fixture.category_name fixture.expect in
  match Fixture.findings fixture.expect v with
  | finding :: _ ->
    Format.printf "%s: detected (%s finding, attempt %d/%d)@.  %s@."
      fixture.name category attempt Fixture.attempts finding;
    0
  | [] ->
    let path = save_trace ~dir ~name:fixture.name in
    Format.printf
      "%s: NOT DETECTED after %d attempts: no %s finding, the sanitizer \
       failed to bite (last trace saved to %s)@.%s@."
      fixture.name attempt category path (Checker.summary v);
    1

(* --- footprint: replay a saved trace against the static table ------ *)

let footprint path =
  if not (Sys.file_exists path) then begin
    Format.eprintf "error: no such trace file %s@." path;
    exit 2
  end;
  let fp =
    Checker.footprint ~table:Sb7_core.Op_footprint.masks (Trace.load path)
  in
  let escapes = fp.Checker.read_escapes @ fp.Checker.write_escapes in
  Format.printf
    "%s: %d accesses checked (%d unknown-region, %d unknown-op), %s@."
    (Filename.basename path) fp.Checker.checked fp.Checker.unknown_region
    fp.Checker.unknown_op
    (if escapes = [] then "clean"
     else Printf.sprintf "%d escape(s)" (List.length escapes));
  List.iter (Format.printf "    - %s@.") escapes;
  if escapes = [] then 0 else 1

(* --- Seeded domain race (R7 static/dynamic cross-check) ------------ *)

(* [domain-race]: the static half re-runs the lint engine over the
   given .cmt tree with the Race_probe waiver stripped from the default
   configuration and demands the R7 domain-escape finding reappear in
   race_probe.ml; the dynamic half runs the probe disarmed (exact
   counts required) and armed (lost updates required, with retries —
   the race needs an actual interleaving). Static finding = real race,
   mirroring the R3↔checker lock-rank cross-check above. *)

let probe_unit = "Sb7_harness__Race_probe"

let domain_race_static cmt_dir =
  let module LC = Sb7_analysis.Lint_config in
  let config =
    let d = LC.default in
    {
      d with
      LC.r7 =
        {
          d.LC.r7 with
          LC.r7_allowed =
            List.filter
              (fun (u, _, _) -> u <> probe_unit)
              d.LC.r7.LC.r7_allowed;
        };
    }
  in
  let result =
    Sb7_analysis.Lint_engine.run ~config ~source_root:"." ~paths:[ cmt_dir ]
      ()
  in
  if
    not
      (List.mem probe_unit result.Sb7_analysis.Lint_engine.units_checked)
  then begin
    Format.eprintf
      "error: %s not among the %d unit(s) under %s — run from the dune \
       build root (_build/default) so --cmt-dir resolves to .cmt files@."
      probe_unit
      (List.length result.Sb7_analysis.Lint_engine.units_checked)
      cmt_dir;
    exit 1
  end;
  let hits =
    List.filter
      (fun (f : Sb7_analysis.Lint_finding.t) ->
        f.rule = "domain-escape" && f.unit_name = probe_unit)
      result.Sb7_analysis.Lint_engine.findings
  in
  match hits with
  | [] ->
    Format.eprintf
      "error: stripping the %s waiver produced no R7 finding — the live \
       seeded race is no longer statically visible@."
      probe_unit;
    exit 1
  | f :: _ ->
    Format.printf "domain-race: static: %d R7 finding(s) at %s:%d with the \
                   waiver stripped@."
      (List.length hits) f.Sb7_analysis.Lint_finding.file
      f.Sb7_analysis.Lint_finding.line

let domain_race cmt_dir threads iters =
  let module RP = Sb7_harness.Race_probe in
  (match cmt_dir with
  | Some dir -> domain_race_static dir
  | None ->
    Format.printf
      "domain-race: static cross-check skipped (pass --cmt-dir from the \
       dune build root to enable it)@.");
  RP.Unsafe.reset ();
  let o = RP.run ~domains:threads ~iters () in
  if o.RP.unguarded <> o.RP.expected || o.RP.guarded <> o.RP.expected then begin
    Format.eprintf
      "error: disarmed probe lost updates (unguarded %d, guarded %d, \
       expected %d): the mutex-guarded paths are broken@."
      o.RP.unguarded o.RP.guarded o.RP.expected;
    exit 1
  end;
  Format.printf "domain-race: disarmed: %d/%d increments, no loss@."
    o.RP.unguarded o.RP.expected;
  RP.Unsafe.arm ();
  let attempts = 20 in
  let rec go n =
    if n = 0 then begin
      RP.Unsafe.reset ();
      Format.eprintf
        "error: armed probe never lost an update in %d attempts — the \
         seeded race did not bite dynamically@."
        attempts;
      exit 1
    end
    else
      let o = RP.run ~domains:threads ~iters () in
      if o.RP.unguarded < o.RP.expected then o else go (n - 1)
  in
  let o = go attempts in
  RP.Unsafe.reset ();
  if o.RP.guarded <> o.RP.expected then begin
    Format.eprintf
      "error: armed probe corrupted the mutex-guarded control counter \
       (%d, expected %d)@."
      o.RP.guarded o.RP.expected;
    exit 1
  end;
  Format.printf
    "domain-race: armed: lost %d of %d increments (control counter \
     intact); the static R7 finding is a real race@."
    (o.RP.expected - o.RP.unguarded)
    o.RP.expected;
  0

(* --- CLI ----------------------------------------------------------- *)

let scale_conv =
  let parse s =
    Result.map
      (fun p -> (s, p))
      (Result.map_error (fun e -> `Msg e) (Sb7_core.Parameters.of_string s))
  in
  Arg.conv ~docv:"SCALE" (parse, fun ppf (name, _) ->
      Format.pp_print_string ppf name)

let threads_arg =
  Arg.(value & opt int 2 & info [ "t"; "threads" ] ~docv:"N"
         ~doc:"Worker domains per run (seq always runs with 1).")

let length_arg =
  Arg.(value & opt float 2. & info [ "l"; "length" ] ~docv:"SECONDS"
         ~doc:"Run length in seconds.")

let scale_arg =
  Arg.(value & opt scale_conv ("tiny", Sb7_core.Parameters.tiny)
       & info [ "scale" ] ~docv:"tiny|small|medium"
           ~doc:"Structure size preset.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED"
         ~doc:"Master random seed.")

let dir_arg =
  Arg.(value & opt string "_sanitize"
       & info [ "trace-out" ] ~docv:"DIR"
           ~doc:"Directory for saved traces (created on demand).")

let check_cmd =
  let doc =
    "Sanitized run of every registered strategy, its trace replayed \
     against the static footprint table too; any finding fails."
  in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(
      const check $ threads_arg $ length_arg $ scale_arg $ seed_arg $ dir_arg)

let seeded_cmd =
  let doc = "Plant a known bug and demand the sanitizer flags it." in
  let fixture_doc =
    String.concat ", "
      (List.map
         (fun f -> Printf.sprintf "$(b,%s) (%s)" f.Fixture.name f.Fixture.bug)
         Fixture.all)
  in
  let fixture_arg =
    Arg.(required & pos 0 (some fixture_conv) None
         & info [] ~docv:"FIXTURE" ~doc:fixture_doc)
  in
  Cmd.v (Cmd.info "seeded" ~doc)
    Term.(
      const seeded $ fixture_arg $ threads_arg $ length_arg $ scale_arg
      $ seed_arg $ dir_arg)

let footprint_cmd =
  let doc =
    "Replay a saved trace against the static footprint table \
     (lib/core/op_footprint.ml): every tvar access must fall inside its \
     operation's inferred may-read / may-write region set. Every \
     sanitized run already replays its own trace."
  in
  let trace_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"TRACE" ~doc:"Saved trace file to replay.")
  in
  Cmd.v (Cmd.info "footprint" ~doc) Term.(const footprint $ trace_arg)

let domain_race_cmd =
  let doc =
    "R7 static/dynamic cross-check: strip the race-probe lint waiver and \
     demand the domain-escape finding reappears, then run the probe \
     disarmed (exact counts) and armed (lost updates required)."
  in
  let cmt_dir_arg =
    Arg.(value & opt (some string) None
         & info [ "cmt-dir" ] ~docv:"DIR"
             ~doc:"Directory of .cmt files to lint for the static half \
                   (e.g. lib, run from the dune build root). Skipped when \
                   absent.")
  in
  let iters_arg =
    Arg.(value & opt int 200_000
         & info [ "iters" ] ~docv:"N"
             ~doc:"Increments per domain in each probe run.")
  in
  Cmd.v (Cmd.info "domain-race" ~doc)
    Term.(const domain_race $ cmt_dir_arg $ threads_arg $ iters_arg)

let cmd =
  let doc = "Opacity + lockset race sanitizer for the STMBench7 runtimes" in
  Cmd.group (Cmd.info "sb7-sanitize" ~doc)
    [ check_cmd; seeded_cmd; footprint_cmd; domain_race_cmd ]

let () = exit (Cmd.eval' cmd)
