(* Tests for the sanitizer substrate (lib/sanitize): the wrapper must
   be transparent, the trace must round-trip, and the checker must flag
   each class of bug on hand-built event streams — and, end to end,
   flag the seeded runtime bugs while passing honest runs clean. *)

module Trace = Sb7_sanitize.Trace
module Checker = Sb7_sanitize.Checker
module Sanitize = Sb7_sanitize.Sanitize
module Op_profile = Sb7_runtime.Op_profile
module B = Sb7_harness.Benchmark

(* -- Stream-building helpers ---------------------------------------- *)

let begin_ ?(flags = 0) ?(op = 0) ts = [ Trace.tag_begin; flags; ts; op ]
let read_ sid wid = [ Trace.tag_read; sid; wid ]
let write_ sid wid prev = [ Trace.tag_write; sid; wid; prev ]
let commit ts = [ Trace.tag_commit; ts; 0 ]
let rollback = [ Trace.tag_rollback ]
let partial_ reads_kept writes_kept = [ Trace.tag_partial; reads_kept; writes_kept ]
let acq ?(excl = true) uid = [ Trace.tag_acquire; uid; (if excl then 1 else 0) ]
let rel ?(excl = true) uid = [ Trace.tag_release; uid; (if excl then 1 else 0) ]
let stream evs = Array.of_list (List.concat evs)

let dump ?(locks = []) ?(ops = []) ?(regions = [||]) streams : Trace.dump =
  { Trace.streams = Array.of_list (List.map stream streams); locks; ops; regions }

let stm_profile =
  {
    Checker.rollback_on_failure = true;
    lockset = false;
    ranked_locks = [];
  }

let lock_profile ?(ranked = []) () =
  {
    Checker.rollback_on_failure = false;
    lockset = true;
    ranked_locks = ranked;
  }

let contains s sub =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n = 0 || at 0

let check_clean what v =
  if not (Checker.clean v) then
    Alcotest.failf "%s is not clean:\n%s" what (Checker.summary v)

let expect ~category ~mentions v =
  let findings =
    match category with
    | `Opacity -> v.Checker.opacity
    | `Races -> v.Checker.races
    | `Order -> v.Checker.lock_order
  in
  match findings with
  | [] -> Alcotest.failf "no finding mentioning %S" mentions
  | f :: _ ->
    let contains s sub =
      let n = String.length sub and m = String.length s in
      let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
      n = 0 || at 0
    in
    Alcotest.(check bool)
      (Printf.sprintf "finding %S mentions %S" f mentions)
      true (contains f mentions)

(* -- Opacity checker on hand-built streams -------------------------- *)

let test_clean_history () =
  (* Two domains, serial version chain on tvar 1: nothing to flag. *)
  let d =
    dump
      [
        [ begin_ 1; write_ 1 10 0; commit 2; begin_ 5; read_ 1 11; commit 6 ];
        [ begin_ 3; read_ 1 10; write_ 1 11 10; commit 4 ];
      ]
  in
  let v = Checker.analyze ~profile:stm_profile d in
  check_clean "serial history" v;
  Alcotest.(check int) "attempts" 3 v.Checker.attempts;
  Alcotest.(check int) "committed" 3 v.Checker.committed

let test_non_repeatable_read () =
  let d = dump [ [ begin_ 1; read_ 1 10; read_ 1 11; commit 2 ] ] in
  let v = Checker.analyze ~profile:stm_profile d in
  expect ~category:`Opacity ~mentions:"non-repeatable" v

let test_own_writes_are_repeatable () =
  (* Re-reading your own write is not a non-repeatable read. *)
  let d =
    dump [ [ begin_ 1; read_ 1 10; write_ 1 11 10; read_ 1 11; commit 2 ] ]
  in
  check_clean "read-own-write" (Checker.analyze ~profile:stm_profile d)

let test_lost_update () =
  (* Both domains overwrite version 0 of tvar 1: a fork in the chain. *)
  let d =
    dump
      [
        [ begin_ 1; write_ 1 10 0; commit 2 ];
        [ begin_ 3; write_ 1 11 0; commit 4 ];
      ]
  in
  expect ~category:`Opacity ~mentions:"lost update"
    (Checker.analyze ~profile:stm_profile d)

let test_dirty_read () =
  (* Domain 0's write rolls back (rollback runtime: not effective);
     domain 1 observed it anyway. *)
  let d =
    dump
      [
        [ begin_ 1; write_ 1 10 0; rollback ];
        [ begin_ 2; read_ 1 10; commit 3 ];
      ]
  in
  expect ~category:`Opacity ~mentions:"dirty read"
    (Checker.analyze ~profile:stm_profile d)

let test_rolledback_writes_effective_without_rollback () =
  (* Same trace under a no-rollback profile (coarse/medium/seq): the
     rolled-back attempt's writes are committed effects, so the read is
     legitimate. *)
  let d =
    dump
      [
        [ begin_ 1; write_ 1 10 0; rollback ];
        [ begin_ 2; read_ 1 10; commit 3 ];
      ]
  in
  let seq_like =
    { Checker.rollback_on_failure = false; lockset = false; ranked_locks = [] }
  in
  check_clean "no-rollback profile" (Checker.analyze ~profile:seq_like d)

let test_write_skew_cycle () =
  (* Classic write skew: T1 reads x then writes y, T2 reads y then
     writes x — an RW/RW cycle no serial order satisfies. *)
  let x = 1 and y = 2 in
  let d =
    dump
      [
        [ begin_ 1; read_ x 0; write_ y 10 0; commit 2 ];
        [ begin_ 1; read_ y 0; write_ x 11 0; commit 2 ];
      ]
  in
  expect ~category:`Opacity ~mentions:"not serializable"
    (Checker.analyze ~profile:stm_profile d)

let test_inconsistent_snapshot_aborted () =
  (* Domain 0 commits (x,y) twice; domain 1's ABORTED attempt saw old x
     with new y — exactly the inconsistent snapshot opacity forbids
     even for aborted transactions. *)
  let x = 1 and y = 2 in
  let d =
    dump
      [
        [
          begin_ 1; write_ x 10 0; write_ y 20 0; commit 2;
          begin_ 3; write_ x 11 10; write_ y 21 20; commit 4;
        ];
        [ begin_ 5; read_ x 10; read_ y 21 (* never commits: aborted *) ];
      ]
  in
  let v = Checker.analyze ~profile:stm_profile d in
  Alcotest.(check int) "aborted attempt counted" 1 v.Checker.aborted;
  expect ~category:`Opacity ~mentions:"inconsistent snapshot" v

let test_consistent_aborted_attempt_clean () =
  let x = 1 and y = 2 in
  let d =
    dump
      [
        [
          begin_ 1; write_ x 10 0; write_ y 20 0; commit 2;
          begin_ 3; write_ x 11 10; write_ y 21 20; commit 4;
        ];
        [ begin_ 5; read_ x 10; read_ y 20 ];
      ]
  in
  check_clean "consistent aborted attempt"
    (Checker.analyze ~profile:stm_profile d)

let test_concurrent_commits_no_false_positive () =
  (* T-y (listed first, so earlier in an arbitrary topological order)
     and T-x touch unrelated tvars; the reader saw x's new version and
     y's base version. A naive single-witness-order window check would
     call that inconsistent whenever the order places T-x after T-y;
     the reachability confirmation must discard it. *)
  let x = 1 and y = 2 in
  let d =
    dump
      [
        [ begin_ 1; write_ y 20 0; commit 2 ];
        [ begin_ 1; write_ x 10 0; commit 2 ];
        [ begin_ 3; read_ x 10; read_ y 0 ];
      ]
  in
  check_clean "unordered concurrent commits"
    (Checker.analyze ~profile:stm_profile d)

let test_snapshot_pass_linear_on_independent_chains () =
  (* Two committed chains of writers, on tvars 1 and 2, one per
     stream; a third stream of aborted readers, reader k seeing version
     k of tvar 1 and version k+3 of tvar 2. The witness order
     interleaves the chains, so every reader's window test raises a
     suspicion, and the chains share no edge, so each is discarded. A
     path search that walks the whole rest of chain 1 per reader is
     quadratic; bounded by the target's position it is constant. *)
  let n = 5_000 in
  let chain sid base =
    List.init n (fun i ->
        let k = i + 1 in
        let prev = if k = 1 then 0 else base + k - 1 in
        [ begin_ (2 * k); write_ sid (base + k) prev; commit ((2 * k) + 1) ])
    |> List.concat
  in
  let readers =
    List.init (n - 3) (fun i ->
        let k = i + 1 in
        [ begin_ (2 * k); read_ 1 k; read_ 2 (n + k + 3) ])
    |> List.concat
  in
  let d = dump [ chain 1 0; chain 2 n; readers ] in
  let t0 = Sys.time () in
  let v = Checker.analyze ~profile:stm_profile d in
  let took = Sys.time () -. t0 in
  check_clean "independent chains" v;
  Alcotest.(check int) "every reader aborted" (n - 3) v.Checker.aborted;
  Alcotest.(check bool)
    (Printf.sprintf "analysis took %.2f s (bound 1 s)" took)
    true (took < 1.)

(* -- Partial aborts (checkpoint rollback) on hand-built streams ----- *)

let test_partial_rollback_discards_stale_read () =
  (* Domain 0 advances tvar 2 from version 20 to 21. Domain 1's first
     pass saw 2@20; the partial abort kept only its first read event
     (tvar 1), so the re-read observing 2@21 is fresh, not a repeat.
     Without the truncation this exact stream is a non-repeatable
     read (the next test). *)
  let d =
    dump
      [
        [
          begin_ 1; write_ 1 10 0; write_ 2 20 0; commit 2;
          begin_ 3; write_ 2 21 20; commit 4;
        ];
        [ begin_ 5; read_ 1 10; read_ 2 20; partial_ 1 0; read_ 2 21; commit 6 ];
      ]
  in
  let v = Checker.analyze ~profile:stm_profile d in
  check_clean "validated partial rollback" v;
  (* The partial abort continues the SAME attempt: 2 committers on
     domain 0 plus the one resumed scanner. *)
  Alcotest.(check int) "no extra attempt for the resume" 3 v.Checker.attempts

let test_partial_rollback_oversalvage_flagged () =
  (* Same history, but the partial abort claims BOTH reads survived —
     the unvalidated-resume bug. The retained 2@20 plus the resumed
     read 2@21 is a non-repeatable read. *)
  let d =
    dump
      [
        [
          begin_ 1; write_ 1 10 0; write_ 2 20 0; commit 2;
          begin_ 3; write_ 2 21 20; commit 4;
        ];
        [ begin_ 5; read_ 1 10; read_ 2 20; partial_ 2 0; read_ 2 21; commit 6 ];
      ]
  in
  expect ~category:`Opacity ~mentions:"non-repeatable"
    (Checker.analyze ~profile:stm_profile d)

let test_partial_rollback_discards_write () =
  (* The attempt's first write is undone by the partial abort; its
     replacement legitimately continues version 0's chain. If the
     truncation did not discard the write event, the two writes would
     fork the chain and be flagged as a lost update. *)
  let d =
    dump [ [ begin_ 1; write_ 1 10 0; partial_ 0 0; write_ 1 11 0; commit 2 ] ]
  in
  let v = Checker.analyze ~profile:stm_profile d in
  check_clean "discarded write" v;
  Alcotest.(check int) "still one attempt" 1 v.Checker.attempts

(* -- Lockset + lock-order on hand-built streams --------------------- *)

let locks = [ (1, "structure"); (2, "domain-0"); (3, "domain-1") ]

let test_lockset_race () =
  (* Two domains write tvar 9 under disjoint exclusive locks. *)
  let d =
    dump ~locks
      [
        [ acq 2; write_ 9 10 0; rel 2 ];
        [ acq 3; write_ 9 11 0; rel 3 ];
      ]
  in
  expect ~category:`Races ~mentions:"data race"
    (Checker.analyze ~profile:(lock_profile ()) d)

let test_lockset_exclusive_common_lock_clean () =
  (* Medium-runtime shape: a structural op writes under structure:W; a
     traversal writes under structure:R + domain:W. Their locksets
     differ, but the shared structure lock is exclusive on one side —
     ordered, not a race. Plain lockset intersection gets this wrong. *)
  let d =
    dump ~locks
      [
        [ acq 1; write_ 9 10 0; rel 1 ];
        [ acq ~excl:false 1; acq 2; write_ 9 11 10; rel 2; rel ~excl:false 1 ];
      ]
  in
  check_clean "structure-lock ordering"
    (Checker.analyze ~profile:(lock_profile ()) d)

let test_lockset_shared_only_write_race () =
  (* Both writers hold the common lock in read mode only: flagged. *)
  let d =
    dump ~locks
      [
        [ acq ~excl:false 1; acq 2; write_ 9 10 0; rel 2; rel ~excl:false 1 ];
        [ acq ~excl:false 1; acq 3; write_ 9 11 0; rel 3; rel ~excl:false 1 ];
      ]
  in
  expect ~category:`Races ~mentions:"data race"
    (Checker.analyze ~profile:(lock_profile ()) d)

let test_read_read_not_a_race () =
  let d =
    dump ~locks
      [ [ read_ 9 0 ]; [ read_ 9 0 ] ]
  in
  check_clean "read/read" (Checker.analyze ~profile:(lock_profile ()) d)

let test_single_domain_not_a_race () =
  (* Unsynchronized accesses from ONE domain are fine. *)
  let d = dump ~locks [ [ write_ 9 10 0; write_ 9 11 10 ] ] in
  check_clean "single domain" (Checker.analyze ~profile:(lock_profile ()) d)

let ranked = [ ("structure", 0); ("domain-0", 1); ("domain-1", 2) ]

let test_lock_order_violation () =
  (* Acquire the structure lock while holding a domain lock. *)
  let d = dump ~locks [ [ acq 2; acq 1; rel 1; rel 2 ] ] in
  expect ~category:`Order ~mentions:"lock-order"
    (Checker.analyze ~profile:(lock_profile ~ranked ()) d)

let test_lock_order_respected () =
  let d = dump ~locks [ [ acq 1; acq 2; acq 3; rel 3; rel 2; rel 1 ] ] in
  check_clean "declared order"
    (Checker.analyze ~profile:(lock_profile ~ranked ()) d)

let test_anonymous_locks_exempt_from_order () =
  (* fine's per-tvar locks are unranked: interleaving them with ranked
     locks is not an ordering violation. *)
  let anon = Sb7_rwlock.Lock_hooks.anonymous_base + 7 in
  let d = dump ~locks [ [ acq anon; acq 1; rel 1; rel anon ] ] in
  check_clean "anonymous locks"
    (Checker.analyze ~profile:(lock_profile ~ranked ()) d)

(* fine's per-tvar locks: anonymous uids, each guarding only the tvar
   whose access immediately follows its acquire (trace.mli). *)
let fine_profile = Checker.profile_of_runtime "fine"
let tvar_lock sid = Sb7_rwlock.Lock_hooks.anonymous_base + sid

let test_other_tvar_lock_orders_nothing () =
  (* Both domains hold tvar 5's lock exclusively while writing tvar 9,
     whose own lock neither takes: that lock does not order tvar 9. *)
  let x = tvar_lock 5 in
  let d =
    dump
      [
        [ begin_ 1; acq x; read_ 5 0; write_ 9 10 0; rel x; commit 2 ];
        [ begin_ 3; acq x; read_ 5 0; write_ 9 11 10; rel x; commit 4 ];
      ]
  in
  expect ~category:`Races ~mentions:"data race on tvar 9"
    (Checker.analyze ~profile:fine_profile d)

(* The wrapper's write reads first, so fine's traced write is a read
   lock, its release, and the write lock the upgrade takes. *)
let fine_write g sid wid prev =
  [ acq ~excl:false g; rel ~excl:false g; acq g; write_ sid wid prev ]

let test_tvar_lock_upgrade_clean () =
  let g = tvar_lock 9 in
  let d =
    dump
      [
        [ begin_ 1 ] @ fine_write g 9 10 0 @ [ rel g; commit 2 ];
        [ begin_ 3 ] @ fine_write g 9 11 10 @ [ rel g; commit 4 ];
      ]
  in
  check_clean "upgraded per-tvar lock" (Checker.analyze ~profile:fine_profile d)

let test_tvar_lock_reread_keeps_guard () =
  (* Domain 0 re-reads tvar 9 after touching tvar 5: no new acquire
     precedes the re-read, yet 9's lock still guards it. *)
  let g = tvar_lock 9 and h = tvar_lock 5 in
  let d =
    dump
      [
        [
          begin_ 1; acq ~excl:false g; read_ 9 0; acq ~excl:false h; read_ 5 0;
          read_ 9 0; rel ~excl:false h; rel ~excl:false g; commit 2;
        ];
        [ begin_ 3 ] @ fine_write g 9 10 0 @ [ rel g; commit 4 ];
      ]
  in
  check_clean "re-read under its own lock"
    (Checker.analyze ~profile:fine_profile d)

let test_lockset_linear_on_fine_traces () =
  (* Strict 2PL over a sliding window: attempt [j] locks and writes
     tvars j .. j+99, so every attempt holds a different lock set. The
     domains alternate in one serial history, so the trace is clean. A
     signature of every held lock gives each access its own bucket and
     makes the pairwise check quadratic; the guard rule gives one
     bucket per tvar. *)
  let attempts = 300 and guards = 100 in
  let last = Array.make (attempts + guards) 0 and wid = ref 0 in
  let streams = [| []; [] |] in
  for k = 0 to (2 * attempts) - 1 do
    let dom = k mod 2 and j = k / 2 in
    let sids = List.init guards (fun g -> j + g) in
    let locked =
      List.map
        (fun sid ->
          incr wid;
          let prev = last.(sid) in
          last.(sid) <- !wid;
          acq (tvar_lock sid) @ write_ sid !wid prev)
        sids
    in
    let evs =
      (begin_ ((2 * k) + 1) :: locked)
      @ List.map (fun sid -> rel (tvar_lock sid)) sids
      @ [ commit ((2 * k) + 2) ]
    in
    streams.(dom) <- List.rev_append evs streams.(dom)
  done;
  let d = dump (List.map List.rev (Array.to_list streams)) in
  let t0 = Sys.time () in
  let v = Checker.analyze ~profile:fine_profile d in
  let took = Sys.time () -. t0 in
  check_clean "sliding 2PL window" v;
  Alcotest.(check bool)
    (Printf.sprintf "analysis took %.2f s (bound 4 s)" took)
    true (took < 4.)

(* -- Trace round-trip ----------------------------------------------- *)

let test_trace_save_load () =
  let d =
    dump ~locks [ [ begin_ 1; read_ 1 0; write_ 1 10 0; commit 2 ] ]
  in
  let path = Filename.temp_file "sb7" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.save path d;
      let d' = Trace.load path in
      Alcotest.(check bool) "streams survive" true (d'.Trace.streams = d.Trace.streams);
      Alcotest.(check bool) "locks survive" true (d'.Trace.locks = d.Trace.locks))

(* Each traced domain registers an event buffer and a note buffer.
   Once the domain has exited, the next dump still reads them and the
   next reset of each kind frees them: respawned workers must not pin
   one grown buffer each. *)
let test_exited_domain_buffers_freed () =
  let cycle () =
    Domain.join
      (Domain.spawn (fun () ->
           Trace.on_commit ();
           Trace.note_region ~sid:1 ~region:0));
    let d = Trace.dump () in
    Trace.reset ();
    Trace.reset_notes ();
    d
  in
  Trace.reset ();
  let d = cycle () in
  Alcotest.(check int) "the exited domain's events are dumped" 1
    (Array.length d.Trace.streams);
  Alcotest.(check bool) "and its region note" true
    (Array.mem (1, 0) d.Trace.regions);
  Gc.full_major ();
  let before = (Gc.stat ()).live_words in
  for _ = 1 to 50 do
    ignore (cycle ())
  done;
  Gc.full_major ();
  let grown = (Gc.stat ()).live_words - before in
  Alcotest.(check bool)
    (Printf.sprintf "live heap grew %d words over 50 domains" grown)
    true (grown < 1 lsl 12)

(* -- The wrapper runtime -------------------------------------------- *)

module Seq = Sb7_runtime.Seq_runtime
module S = Sanitize.Make (Seq)

let profile = Op_profile.make ~name:"test" ()

let test_wrapper_transparent () =
  Alcotest.(check string) "name passes through" Seq.name S.name;
  let tv = S.make 41 in
  Alcotest.(check int) "read back" 41 (S.read tv);
  S.write tv 42;
  Alcotest.(check int)
    "atomic result" 43
    (S.atomic ~profile (fun () -> S.read tv + 1));
  (match S.atomic ~profile (fun () -> raise Exit) with
  | () -> Alcotest.fail "exception swallowed"
  | exception Exit -> ());
  Alcotest.(check bool) "tracing stayed off" false (Trace.enabled ())

let test_wrapper_records () =
  Trace.reset ();
  Trace.enable ();
  let v =
    Fun.protect
      ~finally:(fun () -> Trace.disable ())
      (fun () ->
        let tv = S.make 0 in
        S.atomic ~profile (fun () -> S.write tv (S.read tv + 1));
        S.atomic ~profile (fun () -> S.read tv) |> ignore;
        Trace.disable ();
        Checker.analyze
          ~profile:(Checker.profile_of_runtime Seq.name)
          (Trace.dump ()))
  in
  Trace.reset ();
  Alcotest.(check int) "two attempts" 2 v.Checker.attempts;
  Alcotest.(check int) "both committed" 2 v.Checker.committed;
  check_clean "single-threaded wrapped run" v

(* -- Footprint replay on hand-built streams ------------------------- *)

(* Toy footprint table: one operation OPX that may read regions {0, 3}
   and may write {3} (the may-read mask includes the writes, as the
   generated table's [masks] accessor guarantees). *)
let fp_table = function
  | "OPX" -> Some ((1 lsl 0) lor (1 lsl 3), 1 lsl 3)
  | _ -> None

let fp_check ?(ops = [ (1, "OPX") ]) ?(regions = [||]) streams =
  Checker.footprint ~table:fp_table (dump ~ops ~regions streams)

let test_replay_clean_stream () =
  let v =
    fp_check
      ~regions:[| (1, 0); (2, 3) |]
      [ [ begin_ ~op:1 10; read_ 1 5; write_ 2 11 5; commit 12 ] ]
  in
  Alcotest.(check int) "both accesses checked" 2 v.Checker.checked;
  Alcotest.(check bool) "clean" true
    (v.Checker.read_escapes = [] && v.Checker.write_escapes = [])

let test_replay_read_escape () =
  (* Region 4 is outside OPX's may-read set. *)
  let v =
    fp_check ~regions:[| (1, 4) |] [ [ begin_ ~op:1 10; read_ 1 5; commit 12 ] ]
  in
  Alcotest.(check int) "no write escape" 0
    (List.length v.Checker.write_escapes);
  Alcotest.(check bool)
    "escape names the op and kind" true
    (match v.Checker.read_escapes with
    | [ m ] -> contains m "OPX" && contains m "may-read"
    | _ -> false)

let test_replay_write_outside_write_set () =
  (* Region 0 is readable but NOT writable for OPX: a write there must
     be flagged even though a read would pass. *)
  let v =
    fp_check
      ~regions:[| (1, 0) |]
      [ [ begin_ ~op:1 10; write_ 1 11 5; commit 12 ] ]
  in
  Alcotest.(check int) "no read escape" 0 (List.length v.Checker.read_escapes);
  Alcotest.(check bool)
    "flagged as a write escape" true
    (match v.Checker.write_escapes with
    | [ m ] -> contains m "may-write"
    | _ -> false)

let test_replay_unknowns_counted_not_flagged () =
  let v =
    fp_check
      ~regions:[| (1, 0) |]
      [
        (* Known op, tvar without a region note. *)
        [ begin_ ~op:1 10; read_ 9 5; commit 12 ];
        (* Unknown op id: its accesses are counted, never flagged. *)
        [ begin_ ~op:7 20; read_ 1 5; commit 22 ];
      ]
  in
  Alcotest.(check int) "unknown region" 1 v.Checker.unknown_region;
  Alcotest.(check int) "unknown op" 1 v.Checker.unknown_op;
  Alcotest.(check int) "nothing checked" 0 v.Checker.checked;
  Alcotest.(check bool) "clean" true
    (v.Checker.read_escapes = [] && v.Checker.write_escapes = [])

let test_replay_escapes_deduplicated () =
  let v =
    fp_check
      ~regions:[| (1, 4); (2, 4) |]
      [ [ begin_ ~op:1 10; read_ 1 5; read_ 2 6; commit 12 ] ]
  in
  (* Both escaping accesses are checked, but the report collapses to
     one line per (op, region, kind). *)
  Alcotest.(check int) "both accesses checked" 2 v.Checker.checked;
  Alcotest.(check int)
    "one deduplicated finding" 1
    (List.length v.Checker.read_escapes)

(* -- End to end: honest run clean, seeded bugs flagged -------------- *)

let run_config =
  {
    B.default_config with
    B.threads = 2;
    duration_s = 0.3;
    workload = Sb7_harness.Workload.Write_dominated;
    scale = Sb7_core.Parameters.tiny;
    scale_name = "tiny";
    sanitize = true;
  }

let sanitized_run ?(config = run_config) runtime_name =
  match Sb7_harness.Driver.run ~runtime_name config with
  | Error e -> Alcotest.fail e
  | Ok r -> (
    match r.Sb7_harness.Run_result.sanitizer with
    | None -> Alcotest.fail "sanitized run produced no verdict"
    | Some v -> v)

(* Property: for every registered runtime, a sanitized quick workload
   at two domains records attempts, comes back clean, and its verdict's
   footprint replay checked accesses with zero contradictions and no
   unknowns — the dynamic trace validates the whole-program inference
   (docs/FOOTPRINT.md). *)
let test_footprint_replay_all_runtimes () =
  List.iter
    (fun (name, _) ->
      let config =
        if String.equal name Sb7_runtime.Registry.single_domain then
          { run_config with B.threads = 1 }
        else run_config
      in
      let verdict = sanitized_run ~config name in
      let fp = verdict.Checker.footprint in
      Alcotest.(check bool)
        (name ^ ": attempts recorded")
        true
        (verdict.Checker.attempts > 0);
      check_clean ("honest " ^ name) verdict;
      Alcotest.(check bool)
        (name ^ ": accesses were checked")
        true (fp.Checker.checked > 0);
      Alcotest.(check int) (name ^ ": no unknown regions") 0
        fp.Checker.unknown_region;
      Alcotest.(check int) (name ^ ": no unknown ops") 0 fp.Checker.unknown_op)
    Sb7_runtime.Registry.all;
  Trace.reset ()

(* A sanitized run whose trace escapes the footprint table is not
   clean, and every rendering of its verdict says so. OP2 alone, with
   the injected read of the manual armed, escapes on every execution. *)
let test_escape_flags_the_run () =
  let config =
    { run_config with B.threads = 1; max_ops = Some 20; only_op = Some "OP2" }
  in
  B.Unsafe.read_escape ();
  let r =
    Fun.protect ~finally:B.Unsafe.reset (fun () ->
        match Sb7_harness.Driver.run ~runtime_name:"tl2" config with
        | Ok r -> r
        | Error e -> Alcotest.fail e)
  in
  let v = Option.get r.Sb7_harness.Run_result.sanitizer in
  Alcotest.(check bool) "not clean" false (Checker.clean v);
  Alcotest.(check bool) "a may-read escape" true
    (v.Checker.footprint.Checker.read_escapes <> []);
  let shows what text =
    Alcotest.(check bool)
      (what ^ " shows the escape")
      true
      (contains text "footprint escape: operation OP2 read")
  in
  shows "summary" (Checker.summary v);
  shows "report" (Format.asprintf "%a" Sb7_harness.Report.print r);
  Alcotest.(check string)
    "csv cell" "flagged;opacity=0;races=0;order=0;structural=0;footprint=1"
    (Checker.csv_cell v);
  Trace.reset ()

(* Every planted bug of the fixture table is flagged in its category. *)
let test_seeded (fixture : Sb7_harness.Fixture.t) () =
  let module F = Sb7_harness.Fixture in
  let attempt, v = F.detect { run_config with B.duration_s = 0.2 } fixture in
  if F.findings fixture.expect v = [] then
    Alcotest.failf "%s: no %s finding after %d runs:\n%s" fixture.name
      (F.category_name fixture.expect)
      attempt (Checker.summary v)

let () =
  Alcotest.run "sanitize"
    [
      ( "opacity",
        [
          Alcotest.test_case "clean serial history" `Quick test_clean_history;
          Alcotest.test_case "non-repeatable read" `Quick
            test_non_repeatable_read;
          Alcotest.test_case "own writes repeatable" `Quick
            test_own_writes_are_repeatable;
          Alcotest.test_case "lost update" `Quick test_lost_update;
          Alcotest.test_case "dirty read" `Quick test_dirty_read;
          Alcotest.test_case "no-rollback rolledback effective" `Quick
            test_rolledback_writes_effective_without_rollback;
          Alcotest.test_case "write-skew cycle" `Quick test_write_skew_cycle;
          Alcotest.test_case "inconsistent snapshot in aborted tx" `Quick
            test_inconsistent_snapshot_aborted;
          Alcotest.test_case "consistent aborted tx clean" `Quick
            test_consistent_aborted_attempt_clean;
          Alcotest.test_case "concurrent commits: no false positive" `Quick
            test_concurrent_commits_no_false_positive;
          Alcotest.test_case "partial rollback discards stale read" `Quick
            test_partial_rollback_discards_stale_read;
          Alcotest.test_case "partial over-salvage flagged" `Quick
            test_partial_rollback_oversalvage_flagged;
          Alcotest.test_case "partial rollback discards write" `Quick
            test_partial_rollback_discards_write;
          Alcotest.test_case "snapshot pass linear on independent chains"
            `Quick test_snapshot_pass_linear_on_independent_chains;
        ] );
      ( "lockset",
        [
          Alcotest.test_case "disjoint-lock write race" `Quick
            test_lockset_race;
          Alcotest.test_case "exclusive common lock is ordered" `Quick
            test_lockset_exclusive_common_lock_clean;
          Alcotest.test_case "shared-only common lock races" `Quick
            test_lockset_shared_only_write_race;
          Alcotest.test_case "read/read clean" `Quick test_read_read_not_a_race;
          Alcotest.test_case "single domain clean" `Quick
            test_single_domain_not_a_race;
          Alcotest.test_case "lock-order violation" `Quick
            test_lock_order_violation;
          Alcotest.test_case "lock-order respected" `Quick
            test_lock_order_respected;
          Alcotest.test_case "anonymous locks exempt" `Quick
            test_anonymous_locks_exempt_from_order;
          Alcotest.test_case "another tvar's lock orders nothing" `Quick
            test_other_tvar_lock_orders_nothing;
          Alcotest.test_case "per-tvar lock upgrade clean" `Quick
            test_tvar_lock_upgrade_clean;
          Alcotest.test_case "re-read keeps its tvar's guard" `Quick
            test_tvar_lock_reread_keeps_guard;
          Alcotest.test_case "linear on fine-shaped traces" `Quick
            test_lockset_linear_on_fine_traces;
        ] );
      ( "trace",
        [
          Alcotest.test_case "save/load round-trip" `Quick test_trace_save_load;
          Alcotest.test_case "wrapper transparent when off" `Quick
            test_wrapper_transparent;
          Alcotest.test_case "wrapper records when on" `Quick
            test_wrapper_records;
          Alcotest.test_case "exited domains' buffers freed" `Quick
            test_exited_domain_buffers_freed;
        ] );
      ( "footprint",
        [
          Alcotest.test_case "clean stream" `Quick test_replay_clean_stream;
          Alcotest.test_case "read escape" `Quick test_replay_read_escape;
          Alcotest.test_case "write outside write set" `Quick
            test_replay_write_outside_write_set;
          Alcotest.test_case "unknowns counted not flagged" `Quick
            test_replay_unknowns_counted_not_flagged;
          Alcotest.test_case "escapes deduplicated" `Quick
            test_replay_escapes_deduplicated;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "footprint replay: all runtimes" `Quick
            test_footprint_replay_all_runtimes;
          Alcotest.test_case "a footprint escape flags the run" `Quick
            test_escape_flags_the_run;
        ]
        @ List.map
            (fun (f : Sb7_harness.Fixture.t) ->
              Alcotest.test_case ("seeded: " ^ f.bug) `Quick (test_seeded f))
            Sb7_harness.Fixture.all );
    ]
