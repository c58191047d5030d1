(* Behavioural tests for the 45 benchmark operations, run under the
   sequential runtime at tiny scale. Expectations are derived from the
   OO7/STMBench7 construction rules (per-reference traversal counts,
   involutive updates, index maintenance). *)

module Seq = Sb7_runtime.Seq_runtime
module I = Sb7_core.Instance.Make (Seq)
module P = Sb7_core.Parameters
module T = I.Types
module Rand = Sb7_core.Sb_random

let params = P.tiny
let fresh () = I.Setup.create ~seed:21 params
let rng () = Rand.create ~seed:5

exception Failed = Sb7_core.Common.Operation_failed

(* Retry an operation that can fail on random-ID misses. *)
let until_success ?(tries = 200) f =
  let rec go n =
    if n = 0 then Alcotest.fail "operation never succeeded"
    else
      match f () with
      | v -> v
      | exception Failed _ -> go (n - 1)
  in
  go tries

let shared_rng = Rand.create ~seed:977

let run_op setup rng code =
  match I.Operation.by_code code with
  | None -> Alcotest.failf "unknown operation %s" code
  | Some op -> op.I.Operation.run rng setup

(* Number of (base assembly, composite part) references: long traversals
   visit composite parts once per reference. *)
let reference_count setup =
  let stats = I.Structure_stats.collect setup in
  stats.I.Structure_stats.assembly_links

let total_atomic_parts setup = setup.I.Setup.ap_id_index.size ()

(* --- Long traversals --- *)

let test_t1_counts_per_reference () =
  let setup = fresh () in
  let expected = reference_count setup * params.P.num_atomic_per_comp in
  Alcotest.(check int) "T1 visit count" expected (run_op setup (rng ()) "T1")

let test_t6_counts_roots () =
  let setup = fresh () in
  Alcotest.(check int) "T6 = one root per reference"
    (reference_count setup)
    (run_op setup (rng ()) "T6")

let test_q7_counts_all_parts () =
  let setup = fresh () in
  Alcotest.(check int) "Q7 = all atomic parts" (total_atomic_parts setup)
    (run_op setup (rng ()) "Q7")

let snapshot_xy setup =
  let acc = ref [] in
  setup.I.Setup.ap_id_index.iter (fun id p ->
      acc := (id, Seq.read p.T.ap_x, Seq.read p.T.ap_y) :: !acc);
  !acc

let test_t2b_twice_restores () =
  let setup = fresh () in
  let before = snapshot_xy setup in
  let c1 = run_op setup (rng ()) "T2b" in
  let c2 = run_op setup (rng ()) "T2b" in
  Alcotest.(check int) "same visit count" c1 c2;
  Alcotest.(check bool) "x/y restored after double swap" true
    (before = snapshot_xy setup)

let test_t2c_identity_on_xy () =
  (* Four swaps per visit leave x/y unchanged. *)
  let setup = fresh () in
  let before = snapshot_xy setup in
  ignore (run_op setup (rng ()) "T2c");
  Alcotest.(check bool) "unchanged" true (before = snapshot_xy setup)

let test_t2a_touches_only_roots () =
  let setup = fresh () in
  let roots = Hashtbl.create 16 in
  setup.I.Setup.cp_id_index.iter (fun _ cp ->
      Hashtbl.replace roots (Seq.read cp.T.cp_root_part).T.ap_id ());
  let before = snapshot_xy setup in
  ignore (run_op setup (rng ()) "T2a");
  let after = snapshot_xy setup in
  List.iter2
    (fun (id, x, y) (id', x', y') ->
      assert (id = id');
      if not (Hashtbl.mem roots id) then begin
        Alcotest.(check int) "non-root x untouched" x x';
        Alcotest.(check int) "non-root y untouched" y y'
      end)
    before after

let test_t3b_maintains_date_index () =
  let setup = fresh () in
  ignore (run_op setup (rng ()) "T3b");
  I.Invariants.check_exn setup;
  ignore (run_op setup (rng ()) "T3c");
  I.Invariants.check_exn setup;
  ignore (run_op setup (rng ()) "T3a");
  I.Invariants.check_exn setup

let test_t4_matches_independent_count () =
  let setup = fresh () in
  (* Independent computation via the composite-part index and bag
     multiplicities, instead of the assembly tree. *)
  let expected = ref 0 in
  setup.I.Setup.cp_id_index.iter (fun _ cp ->
      let uses = List.length (Seq.read cp.T.cp_used_in) in
      expected :=
        !expected
        + (uses
          * Sb7_core.Text.count_char (Seq.read cp.T.cp_document.T.doc_text) 'I'));
  Alcotest.(check int) "T4 total" !expected (run_op setup (rng ()) "T4")

let test_t5_twice_restores_documents () =
  let setup = fresh () in
  let texts () =
    let acc = ref [] in
    setup.I.Setup.doc_title_index.iter (fun _ d ->
        acc := Seq.read d.T.doc_text :: !acc);
    !acc
  in
  let before = texts () in
  let c1 = run_op setup (rng ()) "T5" in
  Alcotest.(check bool) "T5 replaced something" true (c1 > 0);
  ignore (run_op setup (rng ()) "T5");
  Alcotest.(check bool) "restored" true (before = texts ())

let test_q6_matches_independent_scan () =
  let setup = fresh () in
  (* Independent: collect matching base assemblies from the index, then
     count distinct ascendant complex assemblies. *)
  let matching = ref [] in
  setup.I.Setup.ba_id_index.iter (fun _ ba ->
      let d = Seq.read ba.T.ba_build_date in
      if
        List.exists
          (fun (cp : T.composite_part) -> Seq.read cp.T.cp_build_date > d)
          (Seq.read ba.T.ba_components)
      then matching := ba :: !matching);
  let expected = I.Nav.ascend_complex_assemblies !matching (fun _ -> ()) in
  Alcotest.(check int) "Q6" expected (run_op setup (rng ()) "Q6")

(* --- Short traversals --- *)

let test_st1_succeeds_on_fresh_build () =
  let setup = fresh () in
  let v = run_op setup (rng ()) "ST1" in
  Alcotest.(check bool) "x+y non-negative" true (v >= 0)

let test_st2_counts_i () =
  let setup = fresh () in
  let v = run_op setup (rng ()) "ST2" in
  Alcotest.(check bool) "some 'I' in every document" true (v > 0)

let test_st3_bounded_by_complex_count () =
  let setup = fresh () in
  let n_complex = setup.I.Setup.ca_id_index.size () in
  let v = let r = rng () in
  until_success (fun () -> run_op setup r "ST3") in
  Alcotest.(check bool) "within bounds" true (v >= 1 && v <= n_complex)

let test_st4_counts_visits () =
  let setup = fresh () in
  let v = run_op setup (rng ()) "ST4" in
  (* 100 draws over a mostly-live ID space with ~3 uses per composite
     part must find something. *)
  Alcotest.(check bool) "found some" true (v > 0)

let test_st5_matches_q6_base_selection () =
  let setup = fresh () in
  let expected = ref 0 in
  setup.I.Setup.ba_id_index.iter (fun _ ba ->
      let d = Seq.read ba.T.ba_build_date in
      if
        List.exists
          (fun (cp : T.composite_part) -> Seq.read cp.T.cp_build_date > d)
          (Seq.read ba.T.ba_components)
      then incr expected);
  Alcotest.(check int) "ST5" !expected (run_op setup (rng ()) "ST5")

let test_st9_visits_whole_graph () =
  let setup = fresh () in
  Alcotest.(check int) "all parts of one composite"
    params.P.num_atomic_per_comp
    (run_op setup (rng ()) "ST9")

let test_st6_st10_swap_and_restore () =
  let setup = fresh () in
  (* ST10 visits every part of one composite part: two identical runs
     with a replayed generator restore the x/y values. *)
  let r = rng () in
  let r' = Rand.copy r in
  let before = snapshot_xy setup in
  ignore (run_op setup r "ST10");
  Alcotest.(check bool) "changed something" true (before <> snapshot_xy setup);
  ignore (run_op setup r' "ST10");
  Alcotest.(check bool) "replayed run restores" true
    (before = snapshot_xy setup);
  let r6 = rng () in
  ignore (until_success (fun () -> run_op setup r6 "ST6"))

let test_st7_toggles_one_document () =
  let setup = fresh () in
  let r = rng () in
  let r' = Rand.copy r in
  let c1 = run_op setup r "ST7" in
  let c2 = run_op setup r' "ST7" in
  Alcotest.(check bool) "replaced" true (c1 > 0);
  Alcotest.(check int) "toggle back same count" c1 c2

let test_st8_updates_assemblies () =
  let setup = fresh () in
  let r = rng () in
  ignore (until_success (fun () -> run_op setup r "ST8"));
  I.Invariants.check_exn setup

(* --- Short operations --- *)

let test_op1_bounds () =
  let setup = fresh () in
  let v = run_op setup (rng ()) "OP1" in
  Alcotest.(check bool) "0..10 parts" true (v >= 0 && v <= 10)

let test_op2_subset_of_op3 () =
  let setup = fresh () in
  let r2 = run_op setup (rng ()) "OP2" in
  let r3 = run_op setup (rng ()) "OP3" in
  Alcotest.(check bool) "1% range within 10% range" true (r2 <= r3);
  Alcotest.(check bool) "10% range within total" true
    (r3 <= total_atomic_parts setup)

let test_op2_matches_manual_scan () =
  let setup = fresh () in
  let hi = params.P.max_atomic_date in
  let expected = ref 0 in
  setup.I.Setup.ap_id_index.iter (fun _ p ->
      let d = Seq.read p.T.ap_build_date in
      if d >= hi - 9 && d <= hi then incr expected);
  Alcotest.(check int) "OP2" !expected (run_op setup (rng ()) "OP2")

let test_op4_counts_manual () =
  let setup = fresh () in
  let expected =
    Sb7_core.Text.count_char
      (Seq.read setup.I.Setup.module_.T.mod_manual.T.man_text)
      'I'
  in
  Alcotest.(check int) "OP4" expected (run_op setup (rng ()) "OP4");
  Alcotest.(check bool) "manual has 'I'" true (expected > 0)

let test_op5_first_last () =
  let setup = fresh () in
  let manual = Seq.read setup.I.Setup.module_.T.mod_manual.T.man_text in
  let expected = if Sb7_core.Text.first_last_equal manual then 1 else 0 in
  Alcotest.(check int) "OP5" expected (run_op setup (rng ()) "OP5")

let test_op6_op7_sibling_counts () =
  let setup = fresh () in
  let fanout = params.P.num_assm_per_assm in
  for _ = 1 to 20 do
    let v = until_success (fun () -> run_op setup shared_rng "OP6") in
    Alcotest.(check bool) "OP6 root alone or full sibling set" true
      (v = 1 || v = fanout);
    let w = until_success (fun () -> run_op setup shared_rng "OP7") in
    Alcotest.(check int) "OP7 full sibling set" fanout w
  done

let test_op8_component_count () =
  let setup = fresh () in
  let v = until_success (fun () -> run_op setup shared_rng "OP8") in
  Alcotest.(check int) "components per base assembly"
    params.P.num_comp_per_assm v

let test_op9_op15_keep_invariants () =
  let setup = fresh () in
  ignore (run_op setup (rng ()) "OP9");
  ignore (run_op setup (rng ()) "OP10");
  ignore (run_op setup (rng ()) "OP15");
  I.Invariants.check_exn setup

let test_op11_toggle_roundtrip () =
  let setup = fresh () in
  let before = Seq.read setup.I.Setup.module_.T.mod_manual.T.man_text in
  let c1 = run_op setup (rng ()) "OP11" in
  Alcotest.(check bool) "changed" true (c1 > 0);
  let c2 = run_op setup (rng ()) "OP11" in
  Alcotest.(check int) "restored count" c1 c2;
  Alcotest.(check string) "manual restored" before
    (Seq.read setup.I.Setup.module_.T.mod_manual.T.man_text)

let test_op12_op13_op14_keep_invariants () =
  let setup = fresh () in
  ignore (until_success (fun () -> run_op setup shared_rng "OP12"));
  ignore (until_success (fun () -> run_op setup shared_rng "OP13"));
  ignore (until_success (fun () -> run_op setup shared_rng "OP14"));
  I.Invariants.check_exn setup

(* --- Structure modifications --- *)

let census setup = I.Structure_stats.collect setup

let test_sm1_creates_composite_part () =
  let setup = fresh () in
  let before = census setup in
  let new_id = run_op setup (rng ()) "SM1" in
  let after = census setup in
  Alcotest.(check int) "one more composite part"
    (before.I.Structure_stats.composite_parts + 1)
    after.I.Structure_stats.composite_parts;
  Alcotest.(check int) "atomic parts grew by a full graph"
    (before.I.Structure_stats.atomic_parts + params.P.num_atomic_per_comp)
    after.I.Structure_stats.atomic_parts;
  (match setup.I.Setup.cp_id_index.get new_id with
  | Some cp ->
    Alcotest.(check int) "not linked anywhere" 0
      (List.length (Seq.read cp.T.cp_used_in))
  | None -> Alcotest.fail "created part not in index");
  I.Invariants.check_exn setup

let test_sm1_exhaustion_fails_cleanly () =
  let setup = fresh () in
  let rec drain n =
    if n > 0 then
      match run_op setup (rng ()) "SM1" with
      | (_ : int) -> drain (n - 1)
      | exception Failed _ -> ()
  in
  drain 100;
  (* Pool is now exhausted: SM1 must fail without corrupting state. *)
  (match run_op setup (rng ()) "SM1" with
  | (_ : int) -> Alcotest.fail "expected failure at capacity"
  | exception Failed _ -> ());
  I.Invariants.check_exn setup

let test_sm2_deletes_composite_part () =
  let setup = fresh () in
  let before = census setup in
  ignore (until_success (fun () -> run_op setup shared_rng "SM2"));
  let after = census setup in
  Alcotest.(check int) "one fewer"
    (before.I.Structure_stats.composite_parts - 1)
    after.I.Structure_stats.composite_parts;
  I.Invariants.check_exn setup

let test_sm3_sm4_link_unlink () =
  let setup = fresh () in
  let before = census setup in
  ignore (until_success (fun () -> run_op setup shared_rng "SM3"));
  let linked = census setup in
  Alcotest.(check int) "one more link"
    (before.I.Structure_stats.assembly_links + 1)
    linked.I.Structure_stats.assembly_links;
  I.Invariants.check_exn setup;
  ignore (until_success (fun () -> run_op setup shared_rng "SM4"));
  Alcotest.(check int) "link removed"
    before.I.Structure_stats.assembly_links
    (census setup).I.Structure_stats.assembly_links;
  I.Invariants.check_exn setup

let test_sm5_creates_sibling () =
  let setup = fresh () in
  let before = census setup in
  let id = until_success (fun () -> run_op setup shared_rng "SM5") in
  Alcotest.(check int) "one more base assembly"
    (before.I.Structure_stats.base_assemblies + 1)
    (census setup).I.Structure_stats.base_assemblies;
  (match setup.I.Setup.ba_id_index.get id with
  | Some ba ->
    Alcotest.(check int) "fresh sibling has no components" 0
      (List.length (Seq.read ba.T.ba_components))
  | None -> Alcotest.fail "new sibling not indexed");
  I.Invariants.check_exn setup

let test_sm6_deletes_base_assembly () =
  let setup = fresh () in
  let before = census setup in
  ignore (until_success (fun () -> run_op setup shared_rng "SM6"));
  Alcotest.(check int) "one fewer base assembly"
    (before.I.Structure_stats.base_assemblies - 1)
    (census setup).I.Structure_stats.base_assemblies;
  I.Invariants.check_exn setup

let test_sm7_grows_subtree () =
  let setup = fresh () in
  let before = census setup in
  let created = until_success (fun () -> run_op setup shared_rng "SM7") in
  let after = census setup in
  Alcotest.(check int) "assemblies created"
    (before.I.Structure_stats.base_assemblies
    + before.I.Structure_stats.complex_assemblies + created)
    (after.I.Structure_stats.base_assemblies
    + after.I.Structure_stats.complex_assemblies);
  I.Invariants.check_exn setup

let test_sm8_deletes_subtree () =
  let setup = fresh () in
  let before = census setup in
  let deleted = until_success (fun () -> run_op setup shared_rng "SM8") in
  let after = census setup in
  Alcotest.(check int) "assemblies deleted"
    (before.I.Structure_stats.base_assemblies
    + before.I.Structure_stats.complex_assemblies - deleted)
    (after.I.Structure_stats.base_assemblies
    + after.I.Structure_stats.complex_assemblies);
  Alcotest.(check bool) "subtree was non-trivial" true (deleted >= 1);
  I.Invariants.check_exn setup

let test_registry_complete () =
  Alcotest.(check int) "45 operations" 45 (List.length I.Operation.all);
  let codes = List.map (fun (o : I.Operation.t) -> o.code) I.Operation.all in
  Alcotest.(check int) "unique codes" 45
    (List.length (List.sort_uniq compare codes));
  List.iter
    (fun cat ->
      let n =
        List.length
          (List.filter
             (fun (o : I.Operation.t) -> Sb7_core.Category.equal o.category cat)
             I.Operation.all)
      in
      let expected =
        match cat with
        | Sb7_core.Category.Long_traversal -> 12
        | Sb7_core.Category.Short_traversal -> 10
        | Sb7_core.Category.Short_operation -> 15
        | Sb7_core.Category.Structure_modification -> 8
      in
      Alcotest.(check int) (Sb7_core.Category.to_string cat) expected n)
    Sb7_core.Category.all

let test_reduced_set () =
  let reduced =
    List.filter I.Operation.in_reduced_set I.Operation.all
    |> List.map (fun (o : I.Operation.t) -> o.code)
  in
  List.iter
    (fun excluded ->
      Alcotest.(check bool) (excluded ^ " excluded") false
        (List.mem excluded reduced))
    [ "ST5"; "OP4"; "OP5"; "OP11" ];
  Alcotest.(check bool) "ST1 kept" true (List.mem "ST1" reduced)

(* [by_code]: every registered code resolves to the operation carrying
   that code, and unknown codes come back [None] (the error path every
   CLI/--only-op parse relies on). *)
let test_by_code_lookup () =
  List.iter
    (fun (op : I.Operation.t) ->
      match I.Operation.by_code op.code with
      | Some found ->
        Alcotest.(check string) ("lookup " ^ op.code) op.code found.code
      | None -> Alcotest.failf "known code %s not found" op.code)
    I.Operation.all;
  List.iter
    (fun bogus ->
      match I.Operation.by_code bogus with
      | None -> ()
      | Some op ->
        Alcotest.failf "unknown code %S resolved to %s" bogus op.code)
    [ "NOPE"; ""; "t1"; "T99"; "SM"; "OP" ]

(* The operation path builds no format string and allocates nothing
   per character: ST4 (100 title lookups) and T5 (a text rewrite of
   every document) stay under a minor-word budget per run. With
   [Printf.sprintf] titles ST4 allocated about 5,300 words per run,
   and with a [String.sub] per text position T5 about 17,500. *)
let minor_words_per_run code ~runs =
  let setup = I.Setup.create ~seed:42 params in
  let rng = Rand.create ~seed:13 in
  let run () = try ignore (run_op setup rng code) with Failed _ -> () in
  run ();
  let before = Gc.minor_words () in
  for _ = 1 to runs do
    run ()
  done;
  (Gc.minor_words () -. before) /. float_of_int runs

let test_allocation_budget () =
  List.iter
    (fun (code, budget) ->
      let words = minor_words_per_run code ~runs:50 in
      if words > budget then
        Alcotest.failf "%s allocates %.0f minor words per run (budget %.0f)"
          code words budget)
    [ ("ST4", 2_500.); ("T5", 3_000.) ]

let suite =
  [
    Alcotest.test_case "by_code lookup table" `Quick test_by_code_lookup;
    Alcotest.test_case "T1 counts per reference" `Quick
      test_t1_counts_per_reference;
    Alcotest.test_case "T6 counts roots" `Quick test_t6_counts_roots;
    Alcotest.test_case "Q7 counts all parts" `Quick test_q7_counts_all_parts;
    Alcotest.test_case "T2b twice restores x/y" `Quick
      test_t2b_twice_restores;
    Alcotest.test_case "T2c is x/y-identity" `Quick test_t2c_identity_on_xy;
    Alcotest.test_case "T2a only touches roots" `Quick
      test_t2a_touches_only_roots;
    Alcotest.test_case "T3a/b/c maintain date index" `Quick
      test_t3b_maintains_date_index;
    Alcotest.test_case "T4 matches independent count" `Quick
      test_t4_matches_independent_count;
    Alcotest.test_case "T5 twice restores documents" `Quick
      test_t5_twice_restores_documents;
    Alcotest.test_case "Q6 matches independent scan" `Quick
      test_q6_matches_independent_scan;
    Alcotest.test_case "ST1 fresh build" `Quick test_st1_succeeds_on_fresh_build;
    Alcotest.test_case "ST2 counts I" `Quick test_st2_counts_i;
    Alcotest.test_case "ST3 bounded" `Quick test_st3_bounded_by_complex_count;
    Alcotest.test_case "ST4 finds documents" `Quick test_st4_counts_visits;
    Alcotest.test_case "ST5 matches scan" `Quick
      test_st5_matches_q6_base_selection;
    Alcotest.test_case "ST9 visits whole graph" `Quick
      test_st9_visits_whole_graph;
    Alcotest.test_case "ST6/ST10 swap and restore" `Quick
      test_st6_st10_swap_and_restore;
    Alcotest.test_case "ST7 toggles one document" `Quick
      test_st7_toggles_one_document;
    Alcotest.test_case "ST8 updates assemblies" `Quick
      test_st8_updates_assemblies;
    Alcotest.test_case "OP1 bounds" `Quick test_op1_bounds;
    Alcotest.test_case "OP2 subset of OP3" `Quick test_op2_subset_of_op3;
    Alcotest.test_case "OP2 matches manual scan" `Quick
      test_op2_matches_manual_scan;
    Alcotest.test_case "OP4 counts manual" `Quick test_op4_counts_manual;
    Alcotest.test_case "OP5 first/last" `Quick test_op5_first_last;
    Alcotest.test_case "OP6/OP7 sibling counts" `Quick
      test_op6_op7_sibling_counts;
    Alcotest.test_case "OP8 component count" `Quick test_op8_component_count;
    Alcotest.test_case "OP9/OP10/OP15 invariants" `Quick
      test_op9_op15_keep_invariants;
    Alcotest.test_case "OP11 round trip" `Quick test_op11_toggle_roundtrip;
    Alcotest.test_case "OP12/13/14 invariants" `Quick
      test_op12_op13_op14_keep_invariants;
    Alcotest.test_case "SM1 creates" `Quick test_sm1_creates_composite_part;
    Alcotest.test_case "SM1 exhaustion clean" `Quick
      test_sm1_exhaustion_fails_cleanly;
    Alcotest.test_case "SM2 deletes" `Quick test_sm2_deletes_composite_part;
    Alcotest.test_case "SM3/SM4 link/unlink" `Quick test_sm3_sm4_link_unlink;
    Alcotest.test_case "SM5 sibling" `Quick test_sm5_creates_sibling;
    Alcotest.test_case "SM6 deletes base assembly" `Quick
      test_sm6_deletes_base_assembly;
    Alcotest.test_case "SM7 grows subtree" `Quick test_sm7_grows_subtree;
    Alcotest.test_case "SM8 deletes subtree" `Quick test_sm8_deletes_subtree;
    Alcotest.test_case "registry complete" `Quick test_registry_complete;
    Alcotest.test_case "reduced operation set" `Quick test_reduced_set;
    Alcotest.test_case "ST4 and T5 minor-word budget" `Quick
      test_allocation_budget;
  ]

let () = Alcotest.run "operations" [ ("operations", suite) ]
