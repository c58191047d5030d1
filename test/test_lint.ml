(* Tests for the sb7-lint static analysis (lib/analysis): each rule
   family must fire on its violation fixture, honor suppression
   comments, and stay silent on the clean modules. The fixtures are
   compiled as the [lint_fixtures] sub-library so their .cmt typed ASTs
   exist; the engine is pointed at them with a fixture-specific
   configuration. *)

open Sb7_analysis

let fixture_config : Lint_config.t =
  {
    r1 =
      {
        r1_prefixes = [ "Lint_fixtures__R1" ];
        r1_exempt_units = [];
        r1_dls_prefixes = [ "Lint_fixtures__R1" ];
        r1_dls_allowed_units = [ "Lint_fixtures__R1_dls_allowed" ];
      };
    r2 =
      {
        r2_seeds = [ "Lint_fixtures__R2_entry" ];
        r2_universe_prefixes = [ "Lint_fixtures__R2" ];
      };
    r3 =
      [
        {
          r3_unit = "Lint_fixtures__R3_bad";
          r3_classes = [ ("lock_a", "alpha"); ("lock_b", "beta") ];
          r3_acquire_helpers = [];
          r3_release_helpers = [];
          r3_order = [ "alpha"; "beta" ];
          r3_deferred_acquires = [];
          r3_bulk_release = [];
          r3_must_restart = [];
          r3_forbid_blocking = false;
        };
        {
          r3_unit = "Lint_fixtures__R3_nowait";
          r3_classes = [];
          r3_acquire_helpers = [];
          r3_release_helpers = [];
          r3_order = [];
          r3_deferred_acquires = [ "lock_deferred" ];
          r3_bulk_release = [ "unlock_all" ];
          r3_must_restart = [ ("lock_deferred", "Retry") ];
          r3_forbid_blocking = true;
        };
      ];
    r4 =
      {
        r4_registry_units = [ "Lint_fixtures__R4_registry" ];
        r4_profiled_builders = [ "op" ];
        r4_structural_builders = [ "structure" ];
        r4_universe_prefixes = [ "Lint_fixtures__R4" ];
        r4_write_idents = [ "R.write" ];
      };
    r5 =
      {
        r5_prefixes = [ "Lint_fixtures__R5" ];
        r5_allowed = [ ("Lint_fixtures__R5_allowed", Some "cast_ref") ];
      };
    r6 =
      {
        r6_prefixes = [ "Lint_fixtures__R6" ];
        r6_atomic_idents = [ "R.atomic" ];
        r6_sinks = [ ("R.write", 1, None); ("Stdlib.:=", 1, Some 0) ];
      };
    r7 =
      {
        r7_prefixes = [ "Lint_fixtures__R7" ];
        r7_roots = [];
        r7_confined_types = [];
        r7_tvar_types = [];
        r7_allowed = [];
      };
    strict_local = false;
  }

(* Tests run from _build/default/test; the fixture .cmts are under the
   sub-library's .objs dir and record sources relative to the project
   root. *)
let fixture_cmts = "fixtures/.lint_fixtures.objs/byte"

let run ?(strict_local = false) () =
  let config = { fixture_config with Lint_config.strict_local } in
  Lint_engine.run ~config ~source_root:".." ~paths:[ fixture_cmts ] ()

let result = lazy (run ())

let in_file name (f : Lint_finding.t) = Filename.basename f.file = name

let count ~rule ~file findings =
  List.length
    (List.filter (fun f -> f.Lint_finding.rule = rule && in_file file f) findings)

let check_count ~rule ~file expected =
  let r = Lazy.force result in
  Alcotest.(check int)
    (Printf.sprintf "%s findings in %s" rule file)
    expected
    (count ~rule ~file r.Lint_engine.findings)

let test_units_loaded () =
  let r = Lazy.force result in
  Alcotest.(check bool)
    "fixture units loaded" true
    (List.mem "Lint_fixtures__R1_bad" r.Lint_engine.units_checked)

let test_r1_fires () =
  check_count ~rule:"raw-mut-global" ~file:"r1_bad.ml" 1;
  (* set_first (param array), poke (param mutable field), Atomic. *)
  check_count ~rule:"raw-mut" ~file:"r1_bad.ml" 3

let test_r1_clean_module () =
  let r = Lazy.force result in
  Alcotest.(check int)
    "no findings in r1_ok.ml" 0
    (List.length
       (List.filter (in_file "r1_ok.ml") r.Lint_engine.findings))

let test_r1_suppression () =
  let r = Lazy.force result in
  Alcotest.(check int)
    "no unsuppressed findings in r1_suppressed.ml" 0
    (List.length
       (List.filter (in_file "r1_suppressed.ml") r.Lint_engine.findings));
  Alcotest.(check int)
    "both violations suppressed" 2
    (List.length
       (List.filter (in_file "r1_suppressed.ml") r.Lint_engine.suppressed))

(* The mutations R1 knows over Stdlib.Hashtbl and Bytes.set, written
   through a [Hashtbl.Make] instance and [Bytes.set_int64_le]. *)
let test_r1_functor_tables_and_byte_stores () =
  (* probe_seen: the instance's [create] at module level. *)
  check_count ~rule:"raw-mut-global" ~file:"r1_functor_tbl.ml" 1;
  (* probe_note's [Id_set.replace] into it; stamp's store into a
     caller's buffer. *)
  check_count ~rule:"raw-mut" ~file:"r1_functor_tbl.ml" 2;
  let r = run ~strict_local:true () in
  Alcotest.(check int)
    "the local table and buffer are notices" 2
    (count ~rule:"raw-mut" ~file:"r1_functor_tbl.ml" r.Lint_engine.notices)

let test_r1_dls_fires () =
  (* new_key, get and set each fire once. *)
  check_count ~rule:"raw-dls" ~file:"r1_dls.ml" 3;
  (* ... and nothing else does: DLS use alone is not raw-mut. *)
  let r = Lazy.force result in
  Alcotest.(check int)
    "only raw-dls findings in r1_dls.ml" 3
    (List.length (List.filter (in_file "r1_dls.ml") r.Lint_engine.findings))

let test_r1_dls_allowlist () =
  let r = Lazy.force result in
  Alcotest.(check int)
    "allowlisted DLS unit is clean" 0
    (List.length
       (List.filter (in_file "r1_dls_allowed.ml") r.Lint_engine.findings))

let test_r2_fires () =
  (* Printf.printf, Random.int, Unix.gettimeofday. *)
  check_count ~rule:"irrevocable" ~file:"r2_bad.ml" 3

let test_r2_reachability () =
  let r = Lazy.force result in
  Alcotest.(check int)
    "effects in an unreachable module do not fire" 0
    (List.length
       (List.filter (in_file "r2_unreachable.ml") r.Lint_engine.findings));
  Alcotest.(check int)
    "the effect-free seed module is clean" 0
    (List.length
       (List.filter (in_file "r2_entry.ml") r.Lint_engine.findings))

let test_r3_order () = check_count ~rule:"lock-order" ~file:"r3_bad.ml" 1

let test_r3_release () =
  (* wrong_order: alpha and beta unreleased on the exceptional path;
     leak: alpha never released. The clean ok/ok_protect functions
     must contribute nothing. *)
  check_count ~rule:"lock-release" ~file:"r3_bad.ml" 3

let test_r3_lock_table () =
  check_count ~rule:"lock-table" ~file:"r3_bad.ml" 1

let test_r3_nowait () =
  let r = Lazy.force result in
  (* lock_deferred missing [raise Retry], plus the blocking Mutex.lock. *)
  check_count ~rule:"lock-wait" ~file:"r3_nowait.ml" 2;
  (* Deferred acquires with no bulk release on both paths: module-level
     finding (reported against the unit, line 0). *)
  Alcotest.(check int)
    "missing bulk release" 1
    (List.length
       (List.filter
          (fun (f : Lint_finding.t) ->
            f.rule = "lock-release"
            && f.unit_name = "Lint_fixtures__R3_nowait")
          r.Lint_engine.findings))

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n = 0 || at 0

let test_r4_fires () =
  (* RO2 (transitive R.write through deep_write), RO3 (index .put),
     RO4 (RO2's writer behind an empty ~writes list), RO5 (Bag-like
     add through the two-level alias S.B) and UP2 (declared writer
     that only reads). *)
  check_count ~rule:"profile-honesty" ~file:"r4_registry.ml" 5

let test_r4_findings_name_the_witness () =
  let r = Lazy.force result in
  let msgs =
    List.filter_map
      (fun (f : Lint_finding.t) ->
        if f.rule = "profile-honesty" then Some f.message else None)
      r.Lint_engine.findings
  in
  Alcotest.(check bool)
    "RO2 finding names the transitive write" true
    (List.exists
       (fun m ->
         contains ~sub:"\"RO2\"" m && contains ~sub:"deep_write" m)
       msgs);
  Alcotest.(check bool)
    "RO3 finding names the index mutation" true
    (List.exists
       (fun m ->
         contains ~sub:"\"RO3\"" m && contains ~sub:".put" m)
       msgs);
  Alcotest.(check bool)
    "an empty ~writes list is checked as read-only" true
    (List.exists
       (fun m ->
         contains ~sub:"\"RO4\"" m && contains ~sub:"deep_write" m)
       msgs);
  Alcotest.(check bool)
    "RO5 finding names the write behind the alias chain" true
    (List.exists
       (fun m ->
         contains ~sub:"\"RO5\"" m && contains ~sub:"R4_bag.add" m)
       msgs);
  Alcotest.(check bool)
    "a declared writer that reaches no write is told to drop ~writes" true
    (List.exists
       (fun m ->
         contains ~sub:"\"UP2\"" m
         && contains ~sub:"drop the ~writes clause" m)
       msgs)

let test_r4_honest_ops_clean () =
  let r = Lazy.force result in
  (* Exactly the five liars: honest RO1, declared writer UP1 and the
     structural SM1 contribute nothing, nor do the helper units. *)
  Alcotest.(check int)
    "no profile-honesty findings outside the registry" 5
    (List.length
       (List.filter
          (fun (f : Lint_finding.t) -> f.rule = "profile-honesty")
          r.Lint_engine.findings));
  List.iter
    (fun file ->
      Alcotest.(check int)
        (file ^ " itself is clean")
        0
        (List.length (List.filter (in_file file) r.Lint_engine.findings)))
    [ "r4_helpers.ml"; "r4_bag.ml"; "r4_setup.ml"; "r4_chain.ml" ]

(* One verdict: the footprint inference's [profile_violations] names
   exactly the five liars — RO2/RO4, whose write the generic-writer
   fixpoint cannot attribute to a region, included — and R4's findings
   carry its messages verbatim. *)
let test_r4_reports_the_inference_verdict () =
  let config = { Footprint.default with fp_registry = fixture_config.r4 } in
  let violations =
    Footprint.profile_violations
      (Footprint.infer ~config (Cmt_unit.scan [ fixture_cmts ]))
  in
  Alcotest.(check (list string))
    "profile_violations" [ "RO2"; "RO3"; "RO4"; "RO5"; "UP2" ]
    (List.sort compare
       (List.map (fun ((fp : Footprint.op_footprint), _) -> fp.fp_code)
          violations));
  let r = Lazy.force result in
  Alcotest.(check (list string))
    "R4 findings carry the verdict's messages"
    (List.sort compare (List.map snd violations))
    (List.sort compare
       (List.filter_map
          (fun (f : Lint_finding.t) ->
            if f.rule = "profile-honesty" then Some f.message else None)
          r.Lint_engine.findings))

(* [sb7-footprint gen] reads no comments, so a profile-honesty waiver
   that took would let the lint pass what the generator refuses. RO3's
   waiver does not take: RO3 is still an error, in the lint as in
   [profile_violations] above, and the marker is reported stale. *)
let test_r4_waiver_refused () =
  let r = Lazy.force result in
  let names_ro3 (f : Lint_finding.t) =
    f.rule = "profile-honesty" && contains ~sub:"\"RO3\"" f.message
  in
  Alcotest.(check bool)
    "waived RO3 is still an error" true
    (List.exists names_ro3 r.Lint_engine.findings);
  Alcotest.(check bool)
    "nothing suppressed" false
    (List.exists
       (fun (f : Lint_finding.t) -> f.rule = "profile-honesty")
       r.Lint_engine.suppressed);
  Alcotest.(check bool)
    "the waiver is reported stale" true
    (List.exists
       (fun (file, _, rule) ->
         Filename.basename file = "r4_registry.ml" && rule = "profile-honesty")
       r.Lint_engine.stale_suppressions)

let test_stale_suppression_reported () =
  let r = Lazy.force result in
  (* The clean stale_suppress.ml unit produces no findings, so its
     suppression table is only consulted through the per-unit preload;
     the deliberately stale entry must still surface. *)
  Alcotest.(check bool)
    "stale suppression in a finding-free file is reported" true
    (List.exists
       (fun (file, _, rule) ->
         Filename.basename file = "stale_suppress.ml" && rule = "raw-mut")
       r.Lint_engine.stale_suppressions);
  Alcotest.(check bool)
    "used suppressions are not stale" true
    (List.for_all
       (fun (file, _, _) -> Filename.basename file <> "r1_suppressed.ml")
       r.Lint_engine.stale_suppressions)

(* A sanction whose unit or top-level binding is gone is reported, and
   fails --strict-local; entries naming a present binding — one inside
   a functor body included — are not. *)
let test_stale_sanctions_reported () =
  let config =
    {
      fixture_config with
      Lint_config.r5 =
        {
          fixture_config.r5 with
          r5_allowed =
            [
              ("Lint_fixtures__R5_allowed", Some "cast_ref");
              ("Lint_fixtures__R5_allowed", Some "removed_cast");
              ("Lint_fixtures__R5_gone", None);
            ];
        };
      r7 =
        {
          fixture_config.r7 with
          r7_roots =
            [
              ("Lint_fixtures__R4_bag", Some "add");
              ("Lint_fixtures__R7_bad", Some "removed_root");
            ];
          r7_allowed =
            [
              ("Lint_fixtures__R7_bad", None, "fixture: present unit");
              ("Lint_fixtures__R7_gone", Some "write", "fixture: gone unit");
            ];
        };
    }
  in
  let r = Lint_engine.run ~config ~source_root:".." ~paths:[ fixture_cmts ] () in
  Alcotest.(check (list (triple string string (option string))))
    "exactly the entries naming nothing"
    [
      ("r5_allowed", "Lint_fixtures__R5_allowed", Some "removed_cast");
      ("r5_allowed", "Lint_fixtures__R5_gone", None);
      ("r7_roots", "Lint_fixtures__R7_bad", Some "removed_root");
      ("r7_allowed", "Lint_fixtures__R7_gone", Some "write");
    ]
    r.Lint_engine.stale_sanctions;
  Alcotest.(check bool) "strict mode fails on them" true (Lint_engine.stale r);
  Alcotest.(check (list (triple string string (option string))))
    "the fixture configuration has none" []
    (Lazy.force result).Lint_engine.stale_sanctions

let test_r6_fires () =
  (* stash_closure, stash_named, leak_local, leak_to_outer. *)
  check_count ~rule:"tvar-escape" ~file:"r6_bad.ml" 4

let test_r6_findings_name_the_capture () =
  let r = Lazy.force result in
  let msgs =
    List.filter_map
      (fun (f : Lint_finding.t) ->
        if f.rule = "tvar-escape" && in_file "r6_bad.ml" f then Some f.message
        else None)
      r.Lint_engine.findings
  in
  Alcotest.(check bool)
    "the inline-closure finding names the captured binding" true
    (List.exists (fun m -> contains ~sub:"\"snapshot\"" m) msgs);
  Alcotest.(check bool)
    "the local-mutable finding names the escaping ref" true
    (List.exists (fun m -> contains ~sub:"\"acc\"" m) msgs)

let test_r6_clean_module () =
  let r = Lazy.force result in
  Alcotest.(check int)
    "no findings in r6_ok.ml" 0
    (List.length (List.filter (in_file "r6_ok.ml") r.Lint_engine.findings))

let test_r5_fires () =
  (* smuggle's Obj.magic, inspect's Obj.tag and Obj.repr. *)
  check_count ~rule:"obj-use" ~file:"r5_bad.ml" 3

let test_r5_sanctioned_binding () =
  (* Only off_list's Obj.magic: the allowlisted cast_ref binding —
     nested helper included — contributes nothing. *)
  check_count ~rule:"obj-use" ~file:"r5_allowed.ml" 1;
  let r = Lazy.force result in
  Alcotest.(check bool)
    "the finding is in off_list, not cast_ref" true
    (List.for_all
       (fun (f : Lint_finding.t) ->
         not (in_file "r5_allowed.ml" f) || f.line >= 11)
       r.Lint_engine.findings)

let test_r7_fires () =
  (* incr of the captured counter, c.payload read in the spawned
     closure, c.payload written by the parent after the spawn. *)
  check_count ~rule:"domain-escape" ~file:"r7_bad.ml" 3

let test_r7_findings_carry_escape_path () =
  let r = Lazy.force result in
  let r7 =
    List.filter
      (fun (f : Lint_finding.t) ->
        f.rule = "domain-escape" && in_file "r7_bad.ml" f)
      r.Lint_engine.findings
  in
  Alcotest.(check bool)
    "every r7_bad finding is anchored with related locations" true
    (r7 <> [] && List.for_all (fun (f : Lint_finding.t) -> f.related <> []) r7);
  Alcotest.(check bool)
    "the post-spawn write names the racing spawn" true
    (List.exists
       (fun (f : Lint_finding.t) ->
         List.exists
           (fun (rel : Lint_finding.related) ->
             contains ~sub:"Domain.spawn" rel.rel_message)
           f.related)
       r7)

let test_r7_clean_modules () =
  let r = Lazy.force result in
  List.iter
    (fun file ->
      Alcotest.(check int)
        (Printf.sprintf "no findings in %s" file)
        0
        (List.length (List.filter (in_file file) r.Lint_engine.findings)))
    [ "r7_frozen_ok.ml"; "r7_dls_ok.ml"; "r7_mutex_ok.ml" ]

let test_r7_suppression () =
  let r = Lazy.force result in
  Alcotest.(check int)
    "no unsuppressed findings in r7_suppressed.ml" 0
    (List.length
       (List.filter (in_file "r7_suppressed.ml") r.Lint_engine.findings));
  Alcotest.(check int)
    "the violation is suppressed" 1
    (List.length
       (List.filter (in_file "r7_suppressed.ml") r.Lint_engine.suppressed))

let test_r7_stale_suppression () =
  let r = Lazy.force result in
  Alcotest.(check bool)
    "stale domain-escape suppression is reported" true
    (List.exists
       (fun (file, _, rule) ->
         Filename.basename file = "stale_suppress.ml"
         && rule = "domain-escape")
       r.Lint_engine.stale_suppressions)

let test_rules_validation () =
  Alcotest.(check (list string))
    "known families pass" []
    (Lint_config.unknown_rule_families [ "R1"; "R7" ]);
  Alcotest.(check (list string))
    "unknown families are returned" [ "R9"; "bogus" ]
    (Lint_config.unknown_rule_families [ "R2"; "R9"; "bogus" ]);
  Alcotest.(check bool)
    "R7 is a known family" true
    (List.mem "R7" Lint_config.known_rule_families)

let test_default_allowlist_justified () =
  (* Every waiver in the shipped configuration must carry a non-empty
     justification: the allowlist is an audit trail, not a mute
     button. *)
  let open Lint_config in
  let d = default in
  List.iter
    (fun (u, b, why) ->
      Alcotest.(check bool)
        (Printf.sprintf "r7_allowed %s/%s justified" u
           (Option.value b ~default:"*"))
        true
        (String.trim why <> ""))
    d.r7.r7_allowed;
  List.iter
    (fun (ty, why) ->
      Alcotest.(check bool)
        (Printf.sprintf "confined type %s justified" ty)
        true
        (String.trim why <> ""))
    (d.r7.r7_confined_types @ d.r7.r7_tvar_types)

let test_sarif_structure () =
  let r = Lazy.force result in
  let sarif = Lint_engine.render_sarif r in
  Alcotest.(check bool)
    "SARIF declares version 2.1.0" true
    (contains ~sub:"\"version\":\"2.1.0\"" sarif);
  Alcotest.(check bool)
    "tool version comes from dune-project, not a hardcoded string" true
    (contains
       ~sub:(Printf.sprintf "\"version\":%S" Lint_version.version)
       sarif);
  Alcotest.(check bool)
    "R7 findings carry relatedLocations" true
    (contains ~sub:"\"relatedLocations\"" sarif);
  Alcotest.(check bool)
    "rules carry helpUri anchors into docs/LINT.md" true
    (contains ~sub:"docs/LINT.md#r7" sarif)

let test_strict_local_notices () =
  let r = run ~strict_local:true () in
  Alcotest.(check bool)
    "strict-local reports local mutation notices in r1_ok.ml" true
    (List.exists (in_file "r1_ok.ml") r.Lint_engine.notices);
  (* Notices never affect the error list. *)
  Alcotest.(check int)
    "r1_ok.ml still has no errors under strict-local" 0
    (List.length (List.filter (in_file "r1_ok.ml") r.Lint_engine.findings))

let () =
  Alcotest.run "lint"
    [
      ( "engine",
        [
          Alcotest.test_case "fixture units loaded" `Quick test_units_loaded;
          Alcotest.test_case "strict-local notices" `Quick
            test_strict_local_notices;
          Alcotest.test_case "stale suppressions reported" `Quick
            test_stale_suppression_reported;
          Alcotest.test_case "stale sanctions reported" `Quick
            test_stale_sanctions_reported;
          Alcotest.test_case "--rules family validation" `Quick
            test_rules_validation;
          Alcotest.test_case "SARIF structure" `Quick test_sarif_structure;
          Alcotest.test_case "default allowlist justified" `Quick
            test_default_allowlist_justified;
        ] );
      ( "r1-runtime-bypass",
        [
          Alcotest.test_case "violations fire" `Quick test_r1_fires;
          Alcotest.test_case "clean module" `Quick test_r1_clean_module;
          Alcotest.test_case "suppression comments" `Quick test_r1_suppression;
          Alcotest.test_case "functor tables and byte stores" `Quick
            test_r1_functor_tables_and_byte_stores;
          Alcotest.test_case "raw-dls fires" `Quick test_r1_dls_fires;
          Alcotest.test_case "raw-dls allowlist" `Quick test_r1_dls_allowlist;
        ] );
      ( "r2-irrevocable",
        [
          Alcotest.test_case "effects fire" `Quick test_r2_fires;
          Alcotest.test_case "reachability limits scope" `Quick
            test_r2_reachability;
        ] );
      ( "r3-lock-discipline",
        [
          Alcotest.test_case "lock order" `Quick test_r3_order;
          Alcotest.test_case "release on both paths" `Quick test_r3_release;
          Alcotest.test_case "undeclared lock" `Quick test_r3_lock_table;
          Alcotest.test_case "no-wait discipline" `Quick test_r3_nowait;
        ] );
      ( "r5-obj-use",
        [
          Alcotest.test_case "violations fire" `Quick test_r5_fires;
          Alcotest.test_case "sanctioned binding granularity" `Quick
            test_r5_sanctioned_binding;
        ] );
      ( "r4-profile-honesty",
        [
          Alcotest.test_case "lying profiles fire" `Quick test_r4_fires;
          Alcotest.test_case "findings name the write witness" `Quick
            test_r4_findings_name_the_witness;
          Alcotest.test_case "honest profiles stay clean" `Quick
            test_r4_honest_ops_clean;
          Alcotest.test_case "lint reports the footprint verdict" `Quick
            test_r4_reports_the_inference_verdict;
          Alcotest.test_case "no comment waives a profile" `Quick
            test_r4_waiver_refused;
        ] );
      ( "r7-domain-escape",
        [
          Alcotest.test_case "escapes fire" `Quick test_r7_fires;
          Alcotest.test_case "findings carry the escape path" `Quick
            test_r7_findings_carry_escape_path;
          Alcotest.test_case "clean modules" `Quick test_r7_clean_modules;
          Alcotest.test_case "suppression comments" `Quick test_r7_suppression;
          Alcotest.test_case "stale suppression" `Quick
            test_r7_stale_suppression;
        ] );
      ( "r6-tvar-escape",
        [
          Alcotest.test_case "escapes fire" `Quick test_r6_fires;
          Alcotest.test_case "findings name the capture" `Quick
            test_r6_findings_name_the_capture;
          Alcotest.test_case "clean module" `Quick test_r6_clean_module;
        ] );
    ]
