(* Tests for operation lock-domain profiles and the medium-grained
   locking plan. *)

module P = Sb7_runtime.Op_profile

let test_read_only () =
  let ro = P.make ~name:"r" ~reads:[ P.Manual ] () in
  let w = P.make ~name:"w" ~reads:[ P.Manual ] ~writes:[ P.Documents ] () in
  let sm = P.make ~name:"s" ~structural:true () in
  Alcotest.(check bool) "reads only" true (P.read_only ro);
  Alcotest.(check bool) "writes" false (P.read_only w);
  Alcotest.(check bool) "structural" false (P.read_only sm)

let test_structural_plan_empty () =
  let sm = P.make ~name:"sm" ~reads:[ P.Manual ] ~structural:true () in
  Alcotest.(check int) "no domain locks for SMs" 0
    (List.length (P.locking_plan sm))

let test_plan_write_wins () =
  let p =
    P.make ~name:"p" ~reads:[ P.Atomic_parts ] ~writes:[ P.Atomic_parts ] ()
  in
  match P.locking_plan p with
  | [ (P.Atomic_parts, `Write) ] -> ()
  | plan ->
    Alcotest.failf "expected single write lock, got %d entries"
      (List.length plan)

let test_plan_canonical_order () =
  let p =
    P.make ~name:"p"
      ~reads:[ P.Manual; P.Assembly_level 1; P.Composite_parts ]
      ~writes:[ P.Assembly_level 7 ]
      ()
  in
  let plan = P.locking_plan p in
  let ranks = List.map (fun (d, _) -> P.domain_rank d) plan in
  Alcotest.(check (list int)) "sorted by rank" (List.sort compare ranks) ranks;
  (* Level 7 (the root) ranks before level 1. *)
  match plan with
  | (P.Assembly_level 7, `Write) :: _ -> ()
  | _ -> Alcotest.fail "root level should come first"

let test_plan_no_duplicates () =
  let p =
    P.make ~name:"p"
      ~reads:(P.all_assembly_levels @ P.all_assembly_levels)
      ()
  in
  Alcotest.(check int) "deduplicated" 7 (List.length (P.locking_plan p))

let test_domain_ranks_distinct () =
  let all =
    P.all_assembly_levels
    @ [ P.Composite_parts; P.Atomic_parts; P.Documents; P.Manual ]
  in
  let ranks = List.map P.domain_rank all in
  Alcotest.(check int) "distinct ranks" (List.length all)
    (List.length (List.sort_uniq compare ranks));
  Alcotest.(check int) "num_domains covers them" P.num_domains
    (List.length all);
  List.iter
    (fun r ->
      Alcotest.(check bool) "rank in bounds" true (r >= 0 && r < P.num_domains))
    ranks

let test_assembly_levels_helper () =
  Alcotest.(check int) "1..7" 7 (List.length P.all_assembly_levels);
  Alcotest.(check int) "2..7" 6 (List.length (P.assembly_levels 2 7));
  match P.assembly_levels 3 3 with
  | [ P.Assembly_level 3 ] -> ()
  | _ -> Alcotest.fail "single level"

let test_every_benchmark_op_has_coherent_profile () =
  let module I = Sb7_core.Instance.Make (Sb7_runtime.Seq_runtime) in
  List.iter
    (fun (op : I.Operation.t) ->
      let p = op.profile in
      Alcotest.(check string) "profile named after op" op.code
        p.P.op_name;
      (* Structural ops have no domain lists; others have some reads. *)
      if p.P.structural then
        Alcotest.(check bool)
          (op.code ^ " SM has no domains")
          true
          (p.P.reads = [] && p.P.writes = [])
      else
        Alcotest.(check bool)
          (op.code ^ " touches some domain")
          true
          (p.P.reads <> [] || p.P.writes <> []))
    I.Operation.all

(* The declaration is the one read-only fact; sb7-footprint gen
   refuses a table that disagrees with it in either direction. This
   checks the committed table against the declarations on every build,
   so a [~writes] edit that breaks the agreement fails here. *)
let test_declared_read_only_is_inferred_pure_read () =
  let module I = Sb7_core.Instance.Make (Sb7_runtime.Seq_runtime) in
  Alcotest.(check int) "45 operations" 45 (List.length I.Operation.all);
  List.iter
    (fun (op : I.Operation.t) ->
      let pure_read =
        match Sb7_core.Op_footprint.find op.code with
        | Some e -> e.fp_writes = [] && not e.fp_structural
        | None -> false
      in
      Alcotest.(check bool)
        (op.code ^ " declared read-only = inferred pure-read")
        pure_read (I.Operation.read_only op))
    I.Operation.all

(* Medium locking's soundness, checked statically: every region a
   non-structural operation's footprint reads is covered by an entry of
   its lock plan (Assemblies by some assembly level), every region it
   writes by a write entry, and the plan locks no region the footprint
   does not touch. Indexes has no lock domain: every non-structural
   operation holds the structure lock in read mode, and the only ones
   that write an index are T3a-c and OP15, which update the build-date
   index beside their atomic-part writes, under that domain's write
   lock. *)
let test_lock_plan_covers_footprint () =
  let module I = Sb7_core.Instance.Make (Sb7_runtime.Seq_runtime) in
  let module R = Sb7_runtime.Region in
  let region = function
    | P.Assembly_level _ -> R.Assemblies
    | P.Composite_parts -> R.Composite_parts
    | P.Atomic_parts -> R.Atomic_parts
    | P.Documents -> R.Documents
    | P.Manual -> R.Manual
  in
  let index_writers = ref [] in
  List.iter
    (fun (op : I.Operation.t) ->
      if not op.profile.P.structural then begin
        let fp = Option.get (Sb7_core.Op_footprint.find op.code) in
        let plan = P.locking_plan op.profile in
        let covered ~write r =
          List.exists (fun (d, m) -> region d = r && ((not write) || m = `Write)) plan
        in
        let check what ok =
          Alcotest.(check bool) (Printf.sprintf "%s: %s" op.code what) true ok
        in
        List.iter
          (fun r ->
            if r <> R.Indexes then
              check ("plan covers read " ^ R.to_string r) (covered ~write:false r))
          fp.fp_reads;
        List.iter
          (fun r ->
            if r = R.Indexes then begin
              index_writers := op.code :: !index_writers;
              check "an index writer writes atomic parts"
                (covered ~write:true R.Atomic_parts)
            end
            else check ("plan write-locks " ^ R.to_string r) (covered ~write:true r))
          fp.fp_writes;
        List.iter
          (fun (d, _) ->
            check
              ("footprint touches locked " ^ P.domain_to_string d)
              (List.mem (region d) (fp.fp_reads @ fp.fp_writes)))
          plan
      end)
    I.Operation.all;
  Alcotest.(check (list string))
    "non-structural index writers" [ "OP15"; "T3a"; "T3b"; "T3c" ]
    (List.sort compare !index_writers)

let suite =
  [
    Alcotest.test_case "read_only classification" `Quick test_read_only;
    Alcotest.test_case "structural plan is empty" `Quick
      test_structural_plan_empty;
    Alcotest.test_case "write mode wins" `Quick test_plan_write_wins;
    Alcotest.test_case "canonical order" `Quick test_plan_canonical_order;
    Alcotest.test_case "no duplicate locks" `Quick test_plan_no_duplicates;
    Alcotest.test_case "domain ranks distinct" `Quick
      test_domain_ranks_distinct;
    Alcotest.test_case "assembly_levels helper" `Quick
      test_assembly_levels_helper;
    Alcotest.test_case "all 45 profiles coherent" `Quick
      test_every_benchmark_op_has_coherent_profile;
    Alcotest.test_case "declared read-only = inferred pure-read" `Quick
      test_declared_read_only_is_inferred_pure_read;
    Alcotest.test_case "lock plan covers the footprint" `Quick
      test_lock_plan_covers_footprint;
  ]

let () = Alcotest.run "op_profile" [ ("op_profile", suite) ]
