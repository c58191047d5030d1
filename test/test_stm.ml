(* Tests shared by every STM implementation (TL2, ASTM, LSA, NOrec and
   ETL), plus implementation-specific checks. The shared functor exercises the
   sequential semantics, rollback, nesting, and — across multiple
   domains — lost-update freedom and snapshot consistency. *)

module type STM = Sb7_stm.Stm_intf.S

module Make_stm_tests (Stm : STM) = struct
  let test_read_outside_tx () =
    let tv = Stm.make 41 in
    Alcotest.(check int) "initial value" 41 (Stm.read tv)

  let test_write_outside_tx () =
    let tv = Stm.make 0 in
    Stm.write tv 7;
    Alcotest.(check int) "direct write" 7 (Stm.read tv)

  let test_atomic_returns () =
    Alcotest.(check int) "result" 5 (Stm.atomic (fun () -> 5))

  let test_read_own_write () =
    let tv = Stm.make 1 in
    let seen =
      Stm.atomic (fun () ->
          Stm.write tv 2;
          Stm.read tv)
    in
    Alcotest.(check int) "sees own write" 2 seen;
    Alcotest.(check int) "committed" 2 (Stm.read tv)

  let test_write_twice () =
    let tv = Stm.make 0 in
    Stm.atomic (fun () ->
        Stm.write tv 1;
        Stm.write tv 2);
    Alcotest.(check int) "last write wins" 2 (Stm.read tv)

  let test_multiple_tvars () =
    let a = Stm.make 1 and b = Stm.make 2 in
    Stm.atomic (fun () ->
        let va = Stm.read a in
        Stm.write b (va + 10));
    Alcotest.(check int) "b updated from a" 11 (Stm.read b)

  let test_empty_transaction () =
    Alcotest.(check unit) "commits" () (Stm.atomic (fun () -> ()))

  let test_write_only_transaction () =
    let a = Stm.make 0 and b = Stm.make 0 in
    Stm.atomic (fun () ->
        Stm.write a 1;
        Stm.write b 2);
    Alcotest.(check int) "a" 1 (Stm.read a);
    Alcotest.(check int) "b" 2 (Stm.read b)

  let test_large_write_set () =
    let cells = Array.init 500 Stm.make in
    Stm.atomic (fun () ->
        Array.iteri (fun i tv -> Stm.write tv (i * 3)) cells);
    Array.iteri
      (fun i tv ->
        if Stm.read tv <> i * 3 then Alcotest.failf "cell %d wrong" i)
      cells

  let test_rollback_on_exception () =
    let tv = Stm.make 10 in
    (try
       Stm.atomic (fun () ->
           Stm.write tv 99;
           failwith "abort me")
     with Failure _ -> ());
    Alcotest.(check int) "rolled back" 10 (Stm.read tv)

  let test_exception_propagates () =
    Alcotest.check_raises "user exception escapes" (Failure "boom")
      (fun () -> Stm.atomic (fun () -> failwith "boom"))

  let test_nested_flattens () =
    let tv = Stm.make 0 in
    Stm.atomic (fun () ->
        Stm.write tv 1;
        let inner =
          Stm.atomic (fun () ->
              (* Nested transaction sees the outer's uncommitted write. *)
              Stm.read tv)
        in
        Alcotest.(check int) "inner sees outer write" 1 inner;
        Stm.write tv (inner + 1));
    Alcotest.(check int) "flattened commit" 2 (Stm.read tv)

  let test_in_transaction () =
    Alcotest.(check bool) "outside" false (Stm.in_transaction ());
    Stm.atomic (fun () ->
        Alcotest.(check bool) "inside" true (Stm.in_transaction ()));
    Alcotest.(check bool) "after" false (Stm.in_transaction ())

  let test_stats_counted () =
    Stm.reset_stats ();
    let tv = Stm.make 0 in
    for _ = 1 to 5 do
      Stm.atomic (fun () -> Stm.write tv (Stm.read tv + 1))
    done;
    Stm.atomic (fun () -> ignore (Stm.read tv));
    let s = Stm.stats () in
    Alcotest.(check bool) "commits >= 6" true
      (Sb7_stm.Stm_stats.(get s commits) >= 6);
    Alcotest.(check bool) "a read-only commit" true
      (Sb7_stm.Stm_stats.(get s read_only_commits) >= 1)

  (* Lost-update freedom: concurrent read-modify-write increments. *)
  let test_concurrent_counter () =
    let tv = Stm.make 0 in
    let domains = 4 and iterations = 2_000 in
    let worker () =
      for _ = 1 to iterations do
        Stm.atomic (fun () -> Stm.write tv (Stm.read tv + 1))
      done
    in
    let ds = List.init domains (fun _ -> Domain.spawn worker) in
    List.iter Domain.join ds;
    Alcotest.(check int) "no lost updates" (domains * iterations)
      (Stm.read tv)

  (* Snapshot consistency: transfers preserve a + b; concurrent
     read-only transactions must never observe a broken invariant. *)
  let test_transfer_invariant () =
    let a = Stm.make 500 and b = Stm.make 500 in
    let stop = Atomic.make false in
    let violations = ref 0 in
    let transferer seed () =
      let rng = Sb7_core.Sb_random.create ~seed in
      for _ = 1 to 3_000 do
        let amount = Sb7_core.Sb_random.in_range rng 1 10 in
        Stm.atomic (fun () ->
            Stm.write a (Stm.read a - amount);
            Stm.write b (Stm.read b + amount))
      done
    in
    let observer () =
      let bad = ref 0 in
      while not (Atomic.get stop) do
        let total = Stm.atomic (fun () -> Stm.read a + Stm.read b) in
        if total <> 1000 then incr bad
      done;
      !bad
    in
    let obs = List.init 2 (fun _ -> Domain.spawn observer) in
    let ts = List.init 2 (fun i -> Domain.spawn (transferer (i + 1))) in
    List.iter Domain.join ts;
    Atomic.set stop true;
    List.iter (fun d -> violations := !violations + Domain.join d) obs;
    Alcotest.(check int) "snapshots consistent" 0 !violations;
    Alcotest.(check int) "total conserved" 1000 (Stm.read a + Stm.read b)

  (* Write sets with many tvars commit atomically: permuting an array
     keeps it a permutation. *)
  let test_array_permutation () =
    let n = 32 in
    let cells = Array.init n Stm.make in
    let domains = 3 in
    let worker seed () =
      let rng = Sb7_core.Sb_random.create ~seed in
      for _ = 1 to 1_000 do
        let i = Sb7_core.Sb_random.int rng n
        and j = Sb7_core.Sb_random.int rng n in
        Stm.atomic (fun () ->
            let vi = Stm.read cells.(i) and vj = Stm.read cells.(j) in
            Stm.write cells.(i) vj;
            Stm.write cells.(j) vi)
      done
    in
    let ds = List.init domains (fun i -> Domain.spawn (worker (i + 1))) in
    List.iter Domain.join ds;
    let final = Array.map Stm.read cells in
    Array.sort compare final;
    Alcotest.(check bool) "still a permutation" true
      (final = Array.init n Fun.id)

  let test_aborts_recorded_under_contention () =
    Stm.reset_stats ();
    let tv = Stm.make 0 in
    let ds =
      List.init 4 (fun _ ->
          Domain.spawn (fun () ->
              for _ = 1 to 2_000 do
                Stm.atomic (fun () -> Stm.write tv (Stm.read tv + 1))
              done))
    in
    List.iter Domain.join ds;
    let s = Stm.stats () in
    Alcotest.(check int) "all committed eventually" 8_000 (Stm.read tv);
    Alcotest.(check bool) "commits recorded" true
      (Sb7_stm.Stm_stats.(get s commits) >= 8_000)

  let suite =
    [
      Alcotest.test_case "read outside tx" `Quick test_read_outside_tx;
      Alcotest.test_case "write outside tx" `Quick test_write_outside_tx;
      Alcotest.test_case "atomic returns" `Quick test_atomic_returns;
      Alcotest.test_case "read own write" `Quick test_read_own_write;
      Alcotest.test_case "last write wins" `Quick test_write_twice;
      Alcotest.test_case "multiple tvars" `Quick test_multiple_tvars;
      Alcotest.test_case "empty transaction" `Quick test_empty_transaction;
      Alcotest.test_case "write-only transaction" `Quick
        test_write_only_transaction;
      Alcotest.test_case "large write set" `Quick test_large_write_set;
      Alcotest.test_case "rollback on exception" `Quick
        test_rollback_on_exception;
      Alcotest.test_case "exception propagates" `Quick
        test_exception_propagates;
      Alcotest.test_case "nested flattens" `Quick test_nested_flattens;
      Alcotest.test_case "in_transaction" `Quick test_in_transaction;
      Alcotest.test_case "stats counted" `Quick test_stats_counted;
      Alcotest.test_case "concurrent counter" `Slow test_concurrent_counter;
      Alcotest.test_case "transfer invariant" `Slow test_transfer_invariant;
      Alcotest.test_case "array permutation" `Slow test_array_permutation;
      Alcotest.test_case "commits under contention" `Slow
        test_aborts_recorded_under_contention;
    ]
end

module Tl2_tests = Make_stm_tests (Sb7_stm.Tl2)
module Astm_tests = Make_stm_tests (Sb7_stm.Astm)
module Lsa_tests = Make_stm_tests (Sb7_stm.Lsa)
module Norec_tests = Make_stm_tests (Sb7_stm.Norec)
module Etl_tests = Make_stm_tests (Sb7_stm.Etl)

(* LSA-specific: snapshot transactions. *)

let test_lsa_snapshot_reads_consistent () =
  let module L = Sb7_stm.Lsa in
  let a = L.make 500 and b = L.make 500 in
  let stop = Atomic.make false in
  let writer () =
    let rng = Sb7_core.Sb_random.create ~seed:3 in
    for _ = 1 to 5_000 do
      let x = Sb7_core.Sb_random.in_range rng 1 10 in
      L.atomic (fun () ->
          L.write a (L.read a - x);
          L.write b (L.read b + x))
    done
  in
  let reader () =
    let bad = ref 0 in
    while not (Atomic.get stop) do
      let total = L.atomic_snapshot (fun () -> L.read a + L.read b) in
      if total <> 1000 then incr bad
    done;
    !bad
  in
  let rs = List.init 2 (fun _ -> Domain.spawn reader) in
  let w = Domain.spawn writer in
  Domain.join w;
  Atomic.set stop true;
  let violations = List.fold_left (fun acc d -> acc + Domain.join d) 0 rs in
  Alcotest.(check int) "snapshots always consistent" 0 violations

let test_lsa_snapshot_write_rejected () =
  let module L = Sb7_stm.Lsa in
  let tv = L.make 0 in
  match L.atomic_snapshot (fun () -> L.write tv 1) with
  | () -> Alcotest.fail "snapshot write accepted"
  | exception Sb7_stm.Stm_intf.Write_in_read_only ->
    Alcotest.(check int) "nothing committed" 0 (L.read tv)

let test_lsa_snapshot_needs_no_validation () =
  let module L = Sb7_stm.Lsa in
  L.reset_stats ();
  let cells = Array.init 200 L.make in
  L.atomic_snapshot (fun () ->
      Array.iter (fun tv -> ignore (L.read tv)) cells);
  let s = L.stats () in
  Alcotest.(check int) "zero validation steps" 0
    Sb7_stm.Stm_stats.(get s validation_steps)

let test_lsa_snapshot_reads_old_version () =
  let module L = Sb7_stm.Lsa in
  (* A snapshot started before an update still sees the old value even
     after a writer commits — served from the version history. *)
  let tv = L.make 1 in
  let gate_snapshot_started = Atomic.make false in
  let gate_write_done = Atomic.make false in
  let reader =
    Domain.spawn (fun () ->
        L.atomic_snapshot (fun () ->
            let first = L.read tv in
            Atomic.set gate_snapshot_started true;
            while not (Atomic.get gate_write_done) do
              Domain.cpu_relax ()
            done;
            let second = L.read tv in
            (first, second)))
  in
  while not (Atomic.get gate_snapshot_started) do
    Domain.cpu_relax ()
  done;
  L.atomic (fun () -> L.write tv 2);
  Atomic.set gate_write_done true;
  let first, second = Domain.join reader in
  Alcotest.(check int) "before write" 1 first;
  Alcotest.(check int) "same snapshot after write" 1 second;
  Alcotest.(check int) "writer committed" 2 (L.read tv)

(* History eviction: a snapshot that outlives [history_depth] commits
   to a tvar must retry (Conflict inside atomic_snapshot) and then see
   a consistent, newer snapshot — never a mix. *)
let test_lsa_snapshot_eviction_retries () =
  let module L = Sb7_stm.Lsa in
  L.reset_stats ();
  let tv = L.make 0 in
  let gate_snapshot_started = Atomic.make false in
  let gate_writes_done = Atomic.make false in
  let runs = Atomic.make 0 in
  let reader =
    Domain.spawn (fun () ->
        L.atomic_snapshot (fun () ->
            Atomic.incr runs;
            let first = L.read tv in
            Atomic.set gate_snapshot_started true;
            while not (Atomic.get gate_writes_done) do
              Domain.cpu_relax ()
            done;
            let second = L.read tv in
            (first, second)))
  in
  while not (Atomic.get gate_snapshot_started) do
    Domain.cpu_relax ()
  done;
  (* Push far more versions than the history keeps. *)
  for i = 1 to 20 do
    L.atomic (fun () -> L.write tv i)
  done;
  Atomic.set gate_writes_done true;
  let first, second = Domain.join reader in
  Alcotest.(check bool) "snapshot retried after eviction" true
    (Atomic.get runs >= 2);
  Alcotest.(check int) "retried snapshot is consistent" first second;
  Alcotest.(check int) "and sees the final value" 20 second;
  (* An eviction is a conflict with the writers, not a stale start:
     counted as an abort, never as an inline revalidation. *)
  let s = L.stats () in
  let open Sb7_stm.Stm_stats in
  Alcotest.(check bool)
    (Printf.sprintf "eviction counted as an abort (got %d)" (get s aborts))
    true
    (get s aborts >= 1);
  Alcotest.(check int) "no inline revalidation" 0
    (get s ro_inline_revalidations)

(* The Lsa.write-outside-a-transaction fix: the store must appear as a
   NEW version, so a snapshot opened before it keeps reading the old
   value instead of observing the new one under the old timestamp. *)
let test_lsa_nontx_write_versioned () =
  let module L = Sb7_stm.Lsa in
  let tv = L.make 1 in
  let gate_snapshot_started = Atomic.make false in
  let gate_write_done = Atomic.make false in
  let reader =
    Domain.spawn (fun () ->
        L.atomic_snapshot (fun () ->
            let first = L.read tv in
            Atomic.set gate_snapshot_started true;
            while not (Atomic.get gate_write_done) do
              Domain.cpu_relax ()
            done;
            let second = L.read tv in
            (first, second)))
  in
  while not (Atomic.get gate_snapshot_started) do
    Domain.cpu_relax ()
  done;
  L.write tv 3 (* non-transactional store *);
  Atomic.set gate_write_done true;
  let first, second = Domain.join reader in
  Alcotest.(check int) "before the store" 1 first;
  Alcotest.(check int) "same snapshot after the store" 1 second;
  Alcotest.(check int) "store visible to fresh reads" 3 (L.read tv)

let lsa_specific_suite =
  [
    Alcotest.test_case "snapshot conservation under writers" `Slow
      test_lsa_snapshot_reads_consistent;
    Alcotest.test_case "snapshot rejects writes" `Quick
      test_lsa_snapshot_write_rejected;
    Alcotest.test_case "snapshot has zero validation" `Quick
      test_lsa_snapshot_needs_no_validation;
    Alcotest.test_case "snapshot serves old versions" `Slow
      test_lsa_snapshot_reads_old_version;
    Alcotest.test_case "snapshot retries on history eviction" `Slow
      test_lsa_snapshot_eviction_retries;
    Alcotest.test_case "non-tx write creates a new version" `Slow
      test_lsa_nontx_write_versioned;
  ]

(* Read-only mode ([atomic_ro]): the zero-log fast path of TL2, NOrec
   and ETL and LSA's snapshot mode behind the shared interface. *)

(* A read-only transaction must observe a consistent snapshot while
   writers commit concurrently — same invariant as the LSA snapshot
   conservation test, but through [atomic_ro] (zero-log for TL2). *)
let test_ro_reads_consistent (module S : STM) () =
  let a = S.make 500 and b = S.make 500 in
  let stop = Atomic.make false in
  let writer () =
    let rng = Sb7_core.Sb_random.create ~seed:3 in
    for _ = 1 to 5_000 do
      let x = Sb7_core.Sb_random.in_range rng 1 10 in
      S.atomic (fun () ->
          S.write a (S.read a - x);
          S.write b (S.read b + x))
    done
  in
  let reader () =
    let bad = ref 0 in
    while not (Atomic.get stop) do
      let total = S.atomic_ro (fun () -> S.read a + S.read b) in
      if total <> 1000 then incr bad
    done;
    !bad
  in
  let rs = List.init 2 (fun _ -> Domain.spawn reader) in
  let w = Domain.spawn writer in
  Domain.join w;
  Atomic.set stop true;
  let violations = List.fold_left (fun acc d -> acc + Domain.join d) 0 rs in
  Alcotest.(check int) "ro snapshots always consistent" 0 violations

(* The zero-log contract: an isolated read-only transaction logs
   nothing (no read-set entries, no max_read_set growth), validates
   nothing, and commits through [ro_zero_log_commits]. *)
let test_ro_zero_log (module S : STM) () =
  S.reset_stats ();
  let cells = Array.init 200 S.make in
  let sum =
    S.atomic_ro (fun () ->
        Array.fold_left (fun acc tv -> acc + S.read tv) 0 cells)
  in
  Alcotest.(check int) "reads correct" (199 * 200 / 2) sum;
  let s = S.stats () in
  let open Sb7_stm.Stm_stats in
  Alcotest.(check int) "no read-set entries" 0 (get s read_set_entries);
  Alcotest.(check int) "max read set stays 0" 0 (get s max_read_set);
  Alcotest.(check int) "no validation" 0 (get s validation_steps);
  Alcotest.(check int) "one zero-log commit" 1 (get s ro_zero_log_commits);
  Alcotest.(check int) "counted as a commit" 1 (get s commits);
  Alcotest.(check int) "counted as read-only" 1 (get s read_only_commits)

let test_ro_write_raises (module S : STM) () =
  let tv = S.make 0 in
  (match S.atomic_ro (fun () -> S.write tv 1) with
  | () -> Alcotest.fail "write accepted in read-only transaction"
  | exception Sb7_stm.Stm_intf.Write_in_read_only -> ());
  Alcotest.(check int) "nothing committed" 0 (S.read tv);
  Alcotest.(check bool) "transaction context cleaned up" false
    (S.in_transaction ())

(* A nested [atomic] flattens into the enclosing [atomic_ro], so its
   writes raise too — a mis-declared op cannot smuggle updates through
   an inner transaction. *)
let test_ro_nested_atomic_flattens (module S : STM) () =
  let tv = S.make 7 in
  let v = S.atomic_ro (fun () -> S.atomic (fun () -> S.read tv)) in
  Alcotest.(check int) "nested read-only atomic flattens" 7 v;
  (match S.atomic_ro (fun () -> S.atomic (fun () -> S.write tv 9)) with
  | () -> Alcotest.fail "nested write accepted in read-only transaction"
  | exception Sb7_stm.Stm_intf.Write_in_read_only -> ());
  Alcotest.(check int) "nested write did not commit" 7 (S.read tv);
  (* The other nesting direction: [atomic_ro] inside an update
     transaction flattens into it, writes and all. *)
  S.atomic (fun () ->
      S.write tv 8;
      Alcotest.(check int) "ro nested in update sees the write" 8
        (S.atomic_ro (fun () -> S.read tv)));
  Alcotest.(check int) "update committed" 8 (S.read tv)

(* TL2 only: a read that post-dates the snapshot restarts the closure
   at a fresh read version ([ro_inline_revalidations]), not an abort. *)
let test_tl2_ro_inline_revalidation () =
  let module T = Sb7_stm.Tl2 in
  T.reset_stats ();
  let tv1 = T.make 0 and tv2 = T.make 0 in
  let wrote = Atomic.make false in
  let a, b =
    T.atomic_ro (fun () ->
        let a = T.read tv1 in
        if not (Atomic.get wrote) then begin
          (* Commit a write from another domain mid-transaction: tv2's
             version now post-dates our snapshot, forcing a restart. *)
          Domain.join
            (Domain.spawn (fun () -> T.atomic (fun () -> T.write tv2 1)));
          Atomic.set wrote true
        end;
        (a, T.read tv2))
  in
  Alcotest.(check (pair int int)) "re-run sees a consistent view" (0, 1) (a, b);
  let s = T.stats () in
  let open Sb7_stm.Stm_stats in
  Alcotest.(check bool)
    (Printf.sprintf "inline revalidation recorded (got %d)"
       (get s ro_inline_revalidations))
    true
    (get s ro_inline_revalidations >= 1);
  Alcotest.(check int) "not counted as an abort" 0 (get s aborts);
  Alcotest.(check int) "single ro commit" 1 (get s ro_zero_log_commits)

(* ASTM's pass-through: no read-only fast path, so a write inside
   [atomic_ro] simply commits (and nothing is ever demoted). *)
let test_astm_ro_passthrough () =
  let module A = Sb7_stm.Astm in
  A.reset_stats ();
  let tv = A.make 0 in
  A.atomic_ro (fun () -> A.write tv 5);
  Alcotest.(check int) "write committed through the pass-through" 5 (A.read tv);
  let s = A.stats () in
  Alcotest.(check int) "no zero-log commits for astm" 0
    Sb7_stm.Stm_stats.(get s ro_zero_log_commits)

let ro_suite =
  [
    Alcotest.test_case "tl2 ro conservation under writers" `Slow
      (test_ro_reads_consistent (module Sb7_stm.Tl2));
    Alcotest.test_case "lsa ro conservation under writers" `Slow
      (test_ro_reads_consistent (module Sb7_stm.Lsa));
    Alcotest.test_case "tl2 ro is zero-log" `Quick
      (test_ro_zero_log (module Sb7_stm.Tl2));
    Alcotest.test_case "lsa ro is zero-log" `Quick
      (test_ro_zero_log (module Sb7_stm.Lsa));
    Alcotest.test_case "tl2 ro write raises" `Quick
      (test_ro_write_raises (module Sb7_stm.Tl2));
    Alcotest.test_case "lsa ro write raises" `Quick
      (test_ro_write_raises (module Sb7_stm.Lsa));
    Alcotest.test_case "tl2 ro nesting flattens" `Quick
      (test_ro_nested_atomic_flattens (module Sb7_stm.Tl2));
    Alcotest.test_case "lsa ro nesting flattens" `Quick
      (test_ro_nested_atomic_flattens (module Sb7_stm.Lsa));
    Alcotest.test_case "norec ro conservation under writers" `Slow
      (test_ro_reads_consistent (module Sb7_stm.Norec));
    Alcotest.test_case "etl ro conservation under writers" `Slow
      (test_ro_reads_consistent (module Sb7_stm.Etl));
    Alcotest.test_case "norec ro is zero-log" `Quick
      (test_ro_zero_log (module Sb7_stm.Norec));
    Alcotest.test_case "etl ro is zero-log" `Quick
      (test_ro_zero_log (module Sb7_stm.Etl));
    Alcotest.test_case "norec ro write raises" `Quick
      (test_ro_write_raises (module Sb7_stm.Norec));
    Alcotest.test_case "etl ro write raises" `Quick
      (test_ro_write_raises (module Sb7_stm.Etl));
    Alcotest.test_case "norec ro nesting flattens" `Quick
      (test_ro_nested_atomic_flattens (module Sb7_stm.Norec));
    Alcotest.test_case "etl ro nesting flattens" `Quick
      (test_ro_nested_atomic_flattens (module Sb7_stm.Etl));
    Alcotest.test_case "tl2 ro inline revalidation" `Slow
      test_tl2_ro_inline_revalidation;
    Alcotest.test_case "astm ro is a pass-through" `Quick
      test_astm_ro_passthrough;
  ]

(* ASTM-specific: the quadratic validation accounting and the policy
   switch. *)

let test_astm_validation_quadratic () =
  let module A = Sb7_stm.Astm in
  A.reset_stats ();
  let n = 100 in
  let cells = Array.init n A.make in
  A.atomic (fun () -> Array.iter (fun tv -> ignore (A.read tv)) cells);
  let s = A.stats () in
  (* Opening k objects validates ~k^2/2 read entries in total. *)
  let expected = n * (n - 1) / 2 in
  Alcotest.(check bool)
    (Printf.sprintf "validation steps ~ %d (got %d)" expected
       Sb7_stm.Stm_stats.(get s validation_steps))
    true
    (Sb7_stm.Stm_stats.(get s validation_steps) >= expected)

let test_tl2_validation_linear () =
  let module T = Sb7_stm.Tl2 in
  T.reset_stats ();
  let n = 100 in
  let cells = Array.init n T.make in
  (* A read-only transaction validates nothing at commit under TL2. *)
  T.atomic (fun () -> Array.iter (fun tv -> ignore (T.read tv)) cells);
  let s = T.stats () in
  Alcotest.(check int) "no validation for read-only tx" 0
    Sb7_stm.Stm_stats.(get s validation_steps)

let test_astm_policies_all_work () =
  let module A = Sb7_stm.Astm in
  let original = A.get_policy () in
  List.iter
    (fun policy ->
      A.set_policy policy;
      let tv = A.make 0 in
      let ds =
        List.init 3 (fun _ ->
            Domain.spawn (fun () ->
                for _ = 1 to 500 do
                  A.atomic (fun () -> A.write tv (A.read tv + 1))
                done))
      in
      List.iter Domain.join ds;
      Alcotest.(check int)
        (Printf.sprintf "policy %s loses no update"
           (Sb7_stm.Contention.policy_to_string policy))
        1_500 (A.read tv))
    Sb7_stm.Contention.all_policies;
  A.set_policy original

let test_max_read_set_tracked () =
  let module T = Sb7_stm.Tl2 in
  T.reset_stats ();
  let cells = Array.init 50 T.make in
  T.atomic (fun () -> Array.iter (fun tv -> ignore (T.read tv)) cells);
  let s = T.stats () in
  Alcotest.(check bool) "max read set >= 50" true
    (Sb7_stm.Stm_stats.(get s max_read_set) >= 50)

(* Read-set dedup: re-reading a logged tvar pushes no duplicate entry,
   so both the logged-entry count and commit-time validation scale with
   DISTINCT tvars, not raw reads. Shared by TL2, LSA update mode and
   ETL (NOrec's value log keeps no dedup cache). *)
let test_dedup_no_duplicate_entries (module S : STM) () =
  S.reset_stats ();
  let cells = Array.init 5 S.make in
  let sink = S.make 0 in
  S.atomic (fun () ->
      (* An update transaction (one write) that re-reads heavily. *)
      S.write sink 1;
      for _ = 1 to 100 do
        Array.iter (fun tv -> ignore (S.read tv)) cells
      done);
  let s = S.stats () in
  let open Sb7_stm.Stm_stats in
  Alcotest.(check bool)
    (Printf.sprintf "entries bounded by distinct tvars (got %d)"
       (get s read_set_entries))
    true (get s read_set_entries <= 5);
  Alcotest.(check bool)
    (Printf.sprintf "dedup hits recorded (got %d)" (get s dedup_hits))
    true
    (get s dedup_hits >= 495);
  Alcotest.(check bool)
    (Printf.sprintf "validation O(distinct) at commit (got %d)"
       (get s validation_steps))
    true
    (get s validation_steps <= 5)

(* Bloom filter: with one buffered write, reads of never-written tvars
   skip the write-set hash probe — and read-own-write still works. *)
let test_bloom_skips_and_correctness (module S : STM) () =
  S.reset_stats ();
  let cells = Array.init 50 S.make in
  let written = S.make 0 in
  let seen =
    S.atomic (fun () ->
        S.write written 42;
        Array.iter (fun tv -> ignore (S.read tv)) cells;
        S.read written)
  in
  Alcotest.(check int) "reads own buffered write through the bloom" 42 seen;
  let s = S.stats () in
  Alcotest.(check bool)
    (Printf.sprintf "most probes skipped (got %d)"
       Sb7_stm.Stm_stats.(get s bloom_skips))
    true
    (Sb7_stm.Stm_stats.(get s bloom_skips) >= 40)

(* The new counters flow through the generic assoc export (the harness
   reads them from there into reports and CSV). *)
let test_counters_exported () =
  let module T = Sb7_stm.Tl2 in
  let assoc = Sb7_stm.Stm_stats.to_assoc (T.stats ()) in
  List.iter
    (fun key ->
      Alcotest.(check bool) (key ^ " exported") true (List.mem_assoc key assoc))
    [
      "read_set_entries";
      "dedup_hits";
      "bloom_skips";
      "extensions";
      "clock_reuses";
      "ro_zero_log_commits";
      "ro_inline_revalidations";
      "ro_demotions";
    ]

(* Short-lived domains: each domain's first update transaction
   allocates its own descriptor, so two domains running at once never
   share one — aliased logs would lose updates. *)
let test_domain_waves (module S : STM) () =
  let tv = S.make 0 in
  let incr_n n () =
    for _ = 1 to n do
      S.atomic (fun () -> S.write tv (S.read tv + 1))
    done
  in
  let wave n =
    List.iter Domain.join (List.init 2 (fun _ -> Domain.spawn (incr_n n)))
  in
  wave 100;
  wave 500;
  Alcotest.(check int) "two waves lose no update" 1200 (S.read tv);
  wave 10;
  Alcotest.(check int) "a third wave loses no update" 1220 (S.read tv)

(* A commit that fails validation leaves nothing behind: its write set
   is unlocked and keeps its old values, so another domain writes the
   same tvars at once. The first attempt reads [r], writes [w1] and
   [w2], and lets another domain commit to [r] before committing; the
   second attempt lets another domain update [w1] and [w2]. Both
   transactions give up after a few attempts, so a lock left held
   fails the test instead of hanging it. *)
let test_failed_commit_releases (module S : STM) () =
  S.reset_stats ();
  let r = S.make 0 and w1 = S.make 0 and w2 = S.make 0 in
  let bounded runs f =
    match
      S.atomic (fun () ->
          incr runs;
          if !runs > 8 then raise Exit;
          f ())
    with
    | v -> Some v
    | exception Exit -> None
  in
  let on_other_domain f = Domain.join (Domain.spawn f) in
  let runs = ref 0 and other = ref None in
  ignore
    (bounded runs (fun () ->
         if !runs = 2 then
           other :=
             on_other_domain (fun () ->
                 bounded (ref 0) (fun () ->
                     let a = S.read w1 and b = S.read w2 in
                     S.write w1 (a + 10);
                     S.write w2 (b + 20);
                     (a, b)));
         let x = S.read r in
         S.write w1 (x + 1);
         S.write w2 (x + 1);
         if !runs = 1 then
           on_other_domain (fun () -> S.atomic (fun () -> S.write r 100))));
  Alcotest.(check int) "one failed commit, one retry" 2 !runs;
  Alcotest.(check (option (pair int int)))
    "the other domain wrote the same tvars, seeing their old values"
    (Some (0, 0)) !other;
  Alcotest.(check (pair int int))
    "the retry committed over it" (101, 101)
    (S.read w1, S.read w2);
  Alcotest.(check int) "the failed commit is one abort" 1
    Sb7_stm.Stm_stats.(get (S.stats ()) aborts)

let specific_suite =
  [
    Alcotest.test_case "astm validation is quadratic" `Quick
      test_astm_validation_quadratic;
    Alcotest.test_case "tl2 read-only validation is free" `Quick
      test_tl2_validation_linear;
    Alcotest.test_case "astm works under every policy" `Slow
      test_astm_policies_all_work;
    Alcotest.test_case "tl2 tracks max read set" `Quick
      test_max_read_set_tracked;
    Alcotest.test_case "tl2 read-set dedup" `Quick
      (test_dedup_no_duplicate_entries (module Sb7_stm.Tl2));
    Alcotest.test_case "lsa read-set dedup" `Quick
      (test_dedup_no_duplicate_entries (module Sb7_stm.Lsa));
    Alcotest.test_case "etl read-set dedup" `Quick
      (test_dedup_no_duplicate_entries (module Sb7_stm.Etl));
    Alcotest.test_case "tl2 bloom-filtered write-set lookup" `Quick
      (test_bloom_skips_and_correctness (module Sb7_stm.Tl2));
    Alcotest.test_case "lsa bloom-filtered write-set lookup" `Quick
      (test_bloom_skips_and_correctness (module Sb7_stm.Lsa));
    Alcotest.test_case "etl bloom-filtered write-set lookup" `Quick
      (test_bloom_skips_and_correctness (module Sb7_stm.Etl));
    Alcotest.test_case "norec bloom-filtered write-set lookup" `Quick
      (test_bloom_skips_and_correctness (module Sb7_stm.Norec));
    Alcotest.test_case "new counters exported" `Quick test_counters_exported;
    Alcotest.test_case "tl2 failed commit releases its writes" `Quick
      (test_failed_commit_releases (module Sb7_stm.Tl2));
    Alcotest.test_case "lsa failed commit releases its writes" `Quick
      (test_failed_commit_releases (module Sb7_stm.Lsa));
    Alcotest.test_case "etl failed commit releases its writes" `Quick
      (test_failed_commit_releases (module Sb7_stm.Etl));
    Alcotest.test_case "tl2 domain waves lose no update" `Slow
      (test_domain_waves (module Sb7_stm.Tl2));
    Alcotest.test_case "lsa domain waves lose no update" `Slow
      (test_domain_waves (module Sb7_stm.Lsa));
    Alcotest.test_case "norec domain waves lose no update" `Slow
      (test_domain_waves (module Sb7_stm.Norec));
    Alcotest.test_case "etl domain waves lose no update" `Slow
      (test_domain_waves (module Sb7_stm.Etl));
  ]

let () =
  Alcotest.run "stm"
    [
      ("tl2", Tl2_tests.suite);
      ("astm", Astm_tests.suite);
      ("lsa", Lsa_tests.suite);
      ("norec", Norec_tests.suite);
      ("etl", Etl_tests.suite);
      ("lsa-snapshot", lsa_specific_suite);
      ("ro", ro_suite);
      ("specific", specific_suite);
    ]
