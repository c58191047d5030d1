(* Tests for the sanitizer substrate (lib/sanitize) on hand-built
   event streams: the wrapper must be transparent, the trace must
   round-trip, and the checker must flag each class of bug and pass its
   clean twin. The end-to-end runs are test_sanitize_replay (every
   runtime, honest) and test_sanitize_seeded (the planted bugs). *)

open Sanitize_helpers
module Trace = Sb7_sanitize.Trace
module Sanitize = Sb7_sanitize.Sanitize
module Op_profile = Sb7_runtime.Op_profile

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

let test_intermediate_read_any_numbering () =
  (* The committed attempt writes x@10 and y@20, then overwrites its
     own x@10 with x@11; the aborted reader saw x@10 and y@20. No
     serialization shows x@10, whatever the tvars are numbered. The
     last numbering is sparse enough to be renumbered, and the finding
     still names the recorded ids. *)
  List.iter
    (fun (x, y) ->
      let d =
        dump
          [
            [ begin_ 1; write_ x 10 0; write_ y 20 0; write_ x 11 10; commit 2 ];
            [ begin_ 3; read_ x 10; read_ y 20 ];
          ]
      in
      expect ~category:`Opacity
        ~mentions:
          (Printf.sprintf
             "intermediate read: domain 1 attempt #1 (aborted) saw tvar %d \
              at version 10"
             x)
        (Checker.analyze ~profile:stm_profile d))
    [ (1, 2); (9, 5); (100, 3); (2, 1); (5, 9); ((1 lsl 41) + 5, 3) ]

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

let test_lock_order_pairs_reported_once () =
  (* Domain 0 takes the structure lock under domain-0 twice; domain 1
     takes domain-0 under domain-1, then the structure lock under both.
     Each out-of-order (held, acquired) pair is one finding, however
     often and from whichever held set it recurs. *)
  let d =
    dump ~locks
      [
        [ acq 2; acq 1; rel 1; rel 2; acq 2; acq 1; rel 1; rel 2 ];
        [ acq 3; acq 2; acq 1; rel 1; rel 2; rel 3 ];
      ]
  in
  let v = Checker.analyze ~profile:(lock_profile ~ranked ()) d in
  Alcotest.(check int) "one finding per pair" 3 (List.length v.Checker.lock_order);
  expect ~category:`Order
    ~mentions:"domain 0: acquired structure while holding domain-0" v

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

(* -- Verdicts do not depend on id numbering ------------------------- *)

(* A random small history, the same for every [seed] whatever the
   naming: 2-3 streams of attempts over at most 8 tvars. An attempt
   reads a version of a tvar (usually its newest), writes a new version
   on top of one (usually the newest), partially aborts, takes a tvar's
   lock (usually the accessed tvar's own) just before an access, and
   ends in a commit, a rollback or an abort. [sid], [wid] and [lock]
   name the tvars, the nonzero versions and the lock offsets. *)
let random_history ~sid ~wid ~lock seed =
  let rs = Random.State.make [| seed |] in
  let int n = Random.State.int rs n in
  let n_tvars = 1 + int 8 and n_streams = 2 + int 2 in
  let versions = Array.make n_tvars [ 0 ] (* newest first *) in
  let pick l = if int 4 > 0 then List.hd l else List.nth l (int (List.length l)) in
  let name w = if w = 0 then 0 else wid w in
  let last = ref 0 in
  let evs = Array.make n_streams [] (* reversed *) in
  let emit d ev = evs.(d) <- ev :: evs.(d) in
  let running = Array.make n_streams false and held = Array.make n_streams [] in
  let reads = Array.make n_streams 0 and writes = Array.make n_streams 0 in
  let locked d t ~excl =
    if int 2 = 0 then begin
      let k = if int 4 > 0 then t else int n_tvars in
      held.(d) <- (k, excl) :: held.(d);
      emit d (acq ~excl (tvar_lock (lock k)))
    end
  in
  for step = 1 to 10 + int 40 do
    let d = int n_streams and t = int n_tvars in
    if not running.(d) then begin
      emit d (begin_ ~flags:(int 4) step);
      running.(d) <- true;
      reads.(d) <- 0;
      writes.(d) <- 0
    end
    else
      match int 10 with
      | 0 | 1 | 2 | 3 ->
        locked d t ~excl:(int 2 = 0);
        emit d (read_ (sid t) (name (pick versions.(t))));
        reads.(d) <- reads.(d) + 1
      | 4 | 5 | 6 ->
        locked d t ~excl:true;
        incr last;
        emit d (write_ (sid t) (name !last) (name (pick versions.(t))));
        versions.(t) <- !last :: versions.(t);
        writes.(d) <- writes.(d) + 1
      | 7 ->
        reads.(d) <- int (reads.(d) + 1);
        writes.(d) <- int (writes.(d) + 1);
        emit d (partial_ reads.(d) writes.(d))
      | _ ->
        List.iter (fun (k, excl) -> emit d (rel ~excl (tvar_lock (lock k)))) held.(d);
        held.(d) <- [];
        (match int 3 with 0 -> emit d (commit step) | 1 -> emit d rollback | _ -> ());
        running.(d) <- false
  done;
  dump (Array.to_list (Array.map List.rev evs))

(* Everything a renaming must keep: the counts and each category's
   number of findings. *)
let shape (v : Checker.verdict) =
  ( Checker.clean v,
    [ v.events; v.attempts; v.committed; v.aborted; v.rolled_back;
      v.structural_commits; List.length v.opacity; List.length v.races;
      List.length v.lock_order ] )

let prop_numbering =
  QCheck.Test.make ~name:"verdict independent of id numbering" ~count:2000
    QCheck.int (fun seed ->
      let rs = Random.State.make [| seed; 1 |] in
      let perm n =
        let a = Array.init n Fun.id in
        for i = n - 1 downto 1 do
          let j = Random.State.int rs (i + 1) in
          let t = a.(i) in
          a.(i) <- a.(j);
          a.(j) <- t
        done;
        a
      in
      (* 64 > the most versions a history writes *)
      let ps = perm 8 and pw = perm 64 and pl = perm 8 in
      let sparse p i = (1 lsl 40) + (p.(i) lsl 24) + Random.State.int rs (1 lsl 20) in
      let sparse_s = Array.init 8 (sparse ps) and sparse_w = Array.init 64 (sparse pw)
      and sparse_l = Array.init 8 (sparse pl) in
      let analyze d = Checker.analyze ~profile:fine_profile d in
      let base = analyze (random_history ~sid:Fun.id ~wid:Fun.id ~lock:Fun.id seed) in
      let dense =
        analyze
          (random_history ~sid:(Array.get ps) ~wid:(fun w -> 1 + pw.(w))
             ~lock:(Array.get pl) seed)
      in
      let spread =
        analyze
          (random_history ~sid:(Array.get sparse_s) ~wid:(Array.get sparse_w)
             ~lock:(Array.get sparse_l) seed)
      in
      shape base = shape dense && shape base = shape spread
      || QCheck.Test.fail_reportf "renamed verdicts differ:\n%s\n%s\n%s"
           (Checker.summary base) (Checker.summary dense) (Checker.summary spread))

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

(* A dump holds the trace's one copy: each stream is its buffer's own
   array. It must still behave as a snapshot: a second dump before a
   reset returns the same streams, and no later recording — after a
   reset or without one — writes into a dumped stream. *)
let test_dump_is_a_snapshot () =
  let commits n =
    for _ = 1 to n do
      Trace.on_commit ()
    done
  in
  let unchanged what (d : Trace.dump) copy =
    Alcotest.(check bool) what true (d.Trace.streams = copy)
  in
  Trace.reset ();
  Domain.join (Domain.spawn (fun () -> commits 5));
  commits 3;
  let d = Trace.dump () in
  let copy = Array.map Array.copy d.Trace.streams in
  Alcotest.(check (list int))
    "one stream per domain, each holding only its events" [ 9; 15 ]
    (List.sort compare
       (Array.to_list (Array.map Array.length d.Trace.streams)));
  let again = Trace.dump () in
  unchanged "a second dump returns the same streams" again copy;
  Alcotest.(check bool) "and shares their arrays, copying nothing" true
    (Array.for_all2 ( == ) d.Trace.streams again.Trace.streams);
  Trace.reset ();
  commits 4;
  unchanged "recording after a reset leaves the dump alone" d copy;
  let d' = Trace.dump () in
  let copy' = Array.map Array.copy d'.Trace.streams in
  Alcotest.(check int) "the next dump holds the new events" 12
    (Array.length d'.Trace.streams.(0));
  commits 1;
  unchanged "recording after a dump leaves it alone" d' copy';
  Trace.reset ()

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

let test_replay_sparse_sids () =
  (* Accessed sids spanning far more than the trace has events are
     renumbered first; a later note of a sid still wins. *)
  let far = 1 lsl 41 in
  let v =
    fp_check
      ~regions:[| (far, 4); (far, 0); (3, 4) |]
      [ [ begin_ ~op:1 10; read_ far 5; read_ 3 6; read_ 7 8; commit 12 ] ]
  in
  Alcotest.(check int) "noted sids checked" 2 v.Checker.checked;
  Alcotest.(check int) "unnoted sid unknown" 1 v.Checker.unknown_region;
  Alcotest.(check bool)
    "only tvar 3 escapes" true
    (match v.Checker.read_escapes with
    | [ m ] -> contains m "tvar 3 in region documents"
    | _ -> false)

(* Alcotest pads group names to the longest one and cuts long test names
   to fit the line, so a test's printed name depends on that width. The
   longest group name here is ten characters ("renumbered"); keep it so. *)
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
          Alcotest.test_case "intermediate read under any numbering" `Quick
            test_intermediate_read_any_numbering;
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
          Alcotest.test_case "lock-order pairs reported once" `Quick
            test_lock_order_pairs_reported_once;
        ] );
      ("renumbered", [ QCheck_alcotest.to_alcotest prop_numbering ]);
      ( "trace",
        [
          Alcotest.test_case "save/load round-trip" `Quick test_trace_save_load;
          Alcotest.test_case "wrapper transparent when off" `Quick
            test_wrapper_transparent;
          Alcotest.test_case "wrapper records when on" `Quick
            test_wrapper_records;
          Alcotest.test_case "exited domains' buffers freed" `Quick
            test_exited_domain_buffers_freed;
          Alcotest.test_case "a dump is a snapshot" `Quick
            test_dump_is_a_snapshot;
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
          Alcotest.test_case "sparse sids" `Quick test_replay_sparse_sids;
        ] );
    ]
