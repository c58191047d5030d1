(* sb7-sanitize: run the benchmark under the opacity + lockset
   sanitizer (lib/sanitize) and gate on the verdict.

   Two commands:

   - [check]: every registered strategy gets a sanitized run, whose
     trace is also replayed against the static footprint table; any
     finding or footprint escape fails the command (exit 1) and dumps
     the offending trace for offline inspection. The seq runtime has no
     synchronization at all, so it is only meaningful — and only run —
     single-threaded.

   - [seeded FIXTURE]: enable one deliberately planted bug
     (tl2-no-validation: TL2 commits and extends without validating its
     read set; tl2-unvalidated-resume: a partial abort salvages its
     checkpoint prefix without validating it; norec-skip-revalidation:
     NOrec adopts new sequence numbers and commits without its
     value-based validation pass; medium-drop-lock: the medium runtime
     silently skips its first write lock; fine-early-read-release: the
     fine runtime drops each read lock as soon as it takes it) and
     demand that the checker flags it. A seeded
     run that comes back clean fails the command: the sanitizer did not
     bite. Detection is probabilistic — the bug needs an actual
     interleaving — so the run is retried with doubled duration a few
     times before giving up.

   Before running anything, the lock-order table the dynamic checker
   uses is cross-checked against the R3 declaration sb7-lint enforces
   statically (Lint_config.default), so the two tools cannot silently
   drift apart. *)

module B = Sb7_harness.Benchmark
module Workload = Sb7_harness.Workload
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

let config ~threads ~length ~scale:(scale_name, scale) ~seed ~workload =
  {
    B.default_config with
    B.threads;
    duration_s = length;
    workload;
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

(* Analyze whatever the trace buffers currently hold; used when a
   seeded bug is violent enough to crash the run before Benchmark could
   produce its verdict. *)
let analyze_current runtime_name =
  Trace.disable ();
  Checker.analyze
    ~profile:(Checker.profile_of_runtime runtime_name)
    (Trace.dump ())

(* The static footprint table and region naming, in the shape the
   checker's replay consumes. Going through Sb7_core.Op_footprint.masks
   keeps the CLI and the generated table on one definition of
   "may-footprint". *)
let fp_table = Sb7_core.Op_footprint.masks

let fp_region_name code =
  match Sb7_runtime.Region.of_int code with
  | Some r -> Sb7_runtime.Region.to_string r
  | None -> Printf.sprintf "region#%d" code

let fp_check dump =
  Checker.footprint ~table:fp_table ~region_name:fp_region_name dump

(* --- check: all honest strategies must come back clean ------------- *)

let check threads length scale seed dir =
  cross_check_lock_order ();
  let failed = ref false in
  List.iter
    (fun (name, _) ->
      (* seq provides no synchronization: concurrent domains would race
         by design, so it is validated single-threaded only. *)
      let threads = if String.equal name "seq" then 1 else threads in
      let cfg =
        config ~threads ~length ~scale ~seed ~workload:Workload.Read_write
      in
      match Sb7_harness.Driver.run ~runtime_name:name cfg with
      | Error e ->
        Format.printf "%-8s ERROR %s@." name e;
        failed := true
      | Ok result -> (
        match result.Sb7_harness.Run_result.sanitizer with
        | None ->
          Format.printf "%-8s ERROR sanitizer produced no verdict@." name;
          failed := true
        | Some v ->
          (* The verdict's trace is still in the buffers, region notes
             included: replay it against the footprint table too. *)
          let fp = fp_check (Trace.dump ()) in
          if Checker.clean v && Checker.fp_clean fp then
            Format.printf "%-8s clean  (%d domains, %d attempts, %d events)@."
              name v.Checker.domains v.Checker.attempts v.Checker.events
          else begin
            let path = save_trace ~dir ~name in
            Format.printf "%-8s FLAGGED (trace saved to %s)@.%s%s@." name path
              (Checker.summary v) (Checker.fp_summary fp);
            failed := true
          end))
    Sb7_runtime.Registry.all;
  if !failed then 1 else 0

(* --- seeded: a planted bug must be flagged ------------------------- *)

type fixture = {
  fx_name : string;
  fx_runtime : string;
  fx_arm : unit -> unit;
  fx_disarm : unit -> unit;
  fx_expected : Checker.verdict -> string list;
      (* the finding category this bug must show up in *)
  fx_expected_name : string;
}

let fixtures =
  [
    {
      fx_name = "tl2-no-validation";
      fx_runtime = "tl2";
      fx_arm = Sb7_stm.Tl2.Unsafe.disable_validation;
      fx_disarm = Sb7_stm.Tl2.Unsafe.reset;
      fx_expected = (fun v -> v.Checker.opacity);
      fx_expected_name = "opacity";
    };
    {
      (* Partial-abort shortcut: rollback to the newest checkpoint
         without validating the salvaged read-set prefix. The resumed
         attempt can then straddle a concurrent commit — re-reads after
         the resume observe newer versions than the salvaged prefix
         did, which the checker reports as non-repeatable reads. *)
      fx_name = "tl2-unvalidated-resume";
      fx_runtime = "tl2";
      fx_arm = Sb7_stm.Tl2.Unsafe.disable_resume_validation;
      fx_disarm = Sb7_stm.Tl2.Unsafe.reset;
      fx_expected = (fun v -> v.Checker.opacity);
      fx_expected_name = "opacity";
    };
    {
      (* NOrec with value-based revalidation skipped: reads adopt the
         current global sequence number without checking that every
         previously read location still holds the value observed, and
         commits publish without the closing validation pass. A
         transaction straddling a concurrent commit then mixes
         snapshots, which the checker reports as non-repeatable reads. *)
      fx_name = "norec-skip-revalidation";
      fx_runtime = "norec";
      fx_arm = Sb7_stm.Norec.Unsafe.disable_revalidation;
      fx_disarm = Sb7_stm.Norec.Unsafe.reset;
      fx_expected = (fun v -> v.Checker.opacity);
      fx_expected_name = "opacity";
    };
    {
      fx_name = "medium-drop-lock";
      fx_runtime = "medium";
      fx_arm = Sb7_runtime.Medium_runtime.Unsafe.drop_first_write_lock;
      fx_disarm = Sb7_runtime.Medium_runtime.Unsafe.reset;
      fx_expected = (fun v -> v.Checker.races);
      fx_expected_name = "lockset race";
    };
    {
      fx_name = "fine-early-read-release";
      fx_runtime = "fine";
      fx_arm = Sb7_runtime.Fine_runtime.Unsafe.release_reads_early;
      fx_disarm = Sb7_runtime.Fine_runtime.Unsafe.reset;
      fx_expected = (fun v -> v.Checker.races);
      fx_expected_name = "lockset race";
    };
  ]

let fixture_names =
  String.concat " | " (List.map (fun f -> f.fx_name) fixtures)

let fixture_conv =
  let parse s =
    match List.find_opt (fun f -> String.equal f.fx_name s) fixtures with
    | Some f -> Ok f
    | None ->
      Error
        (`Msg
           (Printf.sprintf "unknown fixture %S (expected %s)" s
              fixture_names))
  in
  Arg.conv ~docv:"FIXTURE"
    (parse, fun ppf f -> Format.pp_print_string ppf f.fx_name)

let seeded fixture threads length scale seed dir =
  cross_check_lock_order ();
  let attempts = 3 in
  let rec go i length =
    fixture.fx_arm ();
    let cfg =
      config ~threads ~length ~scale ~seed:(seed + i)
        ~workload:Workload.Write_dominated
    in
    let verdict =
      match Sb7_harness.Driver.run ~runtime_name:fixture.fx_runtime cfg with
      | Ok result -> result.Sb7_harness.Run_result.sanitizer
      | Error e ->
        Format.eprintf "error: %s@." e;
        exit 2
      | exception exn ->
        (* The corrupted structure blew up mid-run; the trace up to the
           crash is still analyzable, and the crash corroborates the
           planted bug rather than excusing a missed detection. *)
        Format.printf "run crashed (%s); analyzing partial trace@."
          (Printexc.to_string exn);
        Some (analyze_current fixture.fx_runtime)
    in
    fixture.fx_disarm ();
    match verdict with
    | None ->
      Format.eprintf "error: sanitizer produced no verdict@.";
      exit 2
    | Some v -> (
      match fixture.fx_expected v with
      | finding :: _ ->
        Format.printf "%s: detected (%s finding, attempt %d/%d)@.  %s@."
          fixture.fx_name fixture.fx_expected_name i attempts finding;
        0
      | [] ->
        if not (Checker.clean v) then
          (* flagged, just not in the expected category: print and keep
             trying — the planted bug has a characteristic signature
             and the fixture must prove THAT detector bites *)
          Format.printf
            "attempt %d/%d: findings in other categories only@.%s@." i
            attempts (Checker.summary v)
        else Format.printf "attempt %d/%d: came back clean@." i attempts;
        if i < attempts then go (i + 1) (length *. 2.)
        else begin
          let path = save_trace ~dir ~name:fixture.fx_name in
          Format.printf
            "%s: NOT DETECTED after %d attempts — the sanitizer failed to \
             bite (last trace saved to %s)@.%s@."
            fixture.fx_name attempts path (Checker.summary v);
          1
        end)
  in
  go 1 length

(* --- footprint: trace replay vs the static footprint table --------- *)

let fp_replay what dump =
  let v = fp_check dump in
  Format.printf "%-8s %s@." what
    (if Checker.fp_clean v then
       Printf.sprintf "clean  (%d domains, %d attempts, %d accesses checked)"
         v.Checker.fp_domains v.Checker.fp_attempts v.Checker.fp_checked
     else "ESCAPES");
  if not (Checker.fp_clean v) then
    Format.printf "%s@." (Checker.fp_summary v);
  v

(* Replay a saved trace file. *)
let footprint_trace path =
  if not (Sys.file_exists path) then begin
    Format.eprintf "error: no such trace file %s@." path;
    exit 2
  end;
  let v = fp_replay (Filename.basename path) (Trace.load path) in
  if Checker.fp_clean v then 0 else 1

(* Seeded escapes: arm one of the harness's planted out-of-region
   accesses and demand the replay reports it. The injection fires on
   every execution of its operation, so detection only requires the op
   to be sampled at all — retried with doubled duration for tiny runs. *)
type fp_fixture = { fpx_name : string; fpx_arm : unit -> unit }

let fp_fixtures =
  [
    { fpx_name = "read-escape"; fpx_arm = B.Unsafe.read_escape };
    { fpx_name = "write-escape"; fpx_arm = B.Unsafe.write_escape };
  ]

let fp_fixture_conv =
  let parse s =
    match List.find_opt (fun f -> String.equal f.fpx_name s) fp_fixtures with
    | Some f -> Ok f
    | None ->
      Error
        (`Msg
           (Printf.sprintf "unknown footprint fixture %S (expected %s)" s
              (String.concat " | " (List.map (fun f -> f.fpx_name) fp_fixtures))))
  in
  Arg.conv ~docv:"FIXTURE"
    (parse, fun ppf f -> Format.pp_print_string ppf f.fpx_name)

let footprint_seeded fixture threads length scale seed dir =
  let attempts = 3 in
  let runtime_name = "tl2" in
  let rec go i length =
    fixture.fpx_arm ();
    let cfg =
      config ~threads ~length ~scale ~seed:(seed + i)
        ~workload:Workload.Read_write
    in
    let outcome =
      match Sb7_harness.Driver.run ~runtime_name cfg with
      | Error e ->
        Format.eprintf "error: %s@." e;
        exit 2
      | Ok _ -> fp_replay fixture.fpx_name (Trace.dump ())
    in
    B.Unsafe.reset ();
    if outcome.Checker.fp_escape_count > 0 then begin
      Format.printf "%s: detected (attempt %d/%d)@." fixture.fpx_name i
        attempts;
      0
    end
    else if i < attempts then go (i + 1) (length *. 2.)
    else begin
      let path = save_trace ~dir ~name:("footprint-" ^ fixture.fpx_name) in
      Format.printf
        "%s: NOT DETECTED after %d attempts — the footprint replay failed \
         to bite (last trace saved to %s)@."
        fixture.fpx_name attempts path;
      1
    end
  in
  go 1 length

let footprint trace seeded threads length scale seed dir =
  match (trace, seeded) with
  | Some path, None -> footprint_trace path
  | None, Some fixture -> footprint_seeded fixture threads length scale seed dir
  | _ ->
    Format.eprintf
      "error: give either TRACE or --seeded (check replays every run)@.";
    exit 2

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
    "Sanitized run of every registered strategy, replayed against the \
     static footprint table too; any finding or escape fails."
  in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(
      const check $ threads_arg $ length_arg $ scale_arg $ seed_arg $ dir_arg)

let seeded_cmd =
  let doc = "Plant a known bug and demand the sanitizer flags it." in
  let fixture_arg =
    Arg.(required & pos 0 (some fixture_conv) None
         & info [] ~docv:"FIXTURE" ~doc:fixture_names)
  in
  Cmd.v (Cmd.info "seeded" ~doc)
    Term.(
      const seeded $ fixture_arg $ threads_arg $ length_arg $ scale_arg
      $ seed_arg $ dir_arg)

let footprint_cmd =
  let doc =
    "Replay a trace against the static footprint table \
     (lib/core/op_footprint.ml): every tvar access must fall inside its \
     operation's inferred may-read / may-write region set. $(b,check) \
     replays every registered runtime's run."
  in
  let trace_arg =
    Arg.(value & pos 0 (some string) None
         & info [] ~docv:"TRACE" ~doc:"Saved trace file to replay.")
  in
  let seeded_arg =
    Arg.(value & opt (some fp_fixture_conv) None
         & info [ "seeded" ] ~docv:"read-escape|write-escape"
             ~doc:"Plant an out-of-region access and demand the replay \
                   reports it.")
  in
  Cmd.v (Cmd.info "footprint" ~doc)
    Term.(
      const footprint $ trace_arg $ seeded_arg $ threads_arg $ length_arg
      $ scale_arg $ seed_arg $ dir_arg)

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
