(* Concurrency-granularity tests for the index implementations under
   the TL2 runtime: correctness under parallel transactional updates,
   and the conflict-surface difference between one-big-object indexes
   (avl, flat) and the per-node B+tree — the measurable substance of
   the paper's §5 "B-trees with each node synchronized separately"
   proposal. *)

module R = Sb7_runtime.Tl2_runtime
module Stm = Sb7_stm.Tl2
module Idx = Sb7_core.Index.Make (R)
module Index_intf = Sb7_core.Index_intf

let parallel_inserts kind ~domains ~per_domain =
  let index = Idx.create kind ~name:"conc" ~cmp:Int.compare in
  Stm.reset_stats ();
  let worker d () =
    (* Disjoint key ranges: logically independent updates. *)
    for i = 1 to per_domain do
      let key = (d * 1_000_000) + i in
      Stm.atomic (fun () -> index.Index_intf.put key (key * 2))
    done
  in
  let ds = List.init domains (fun d -> Domain.spawn (worker d)) in
  List.iter Domain.join ds;
  (index, Stm.stats ())

let kind_name = Index_intf.kind_to_string

let test_parallel_inserts_correct () =
  List.iter
    (fun kind ->
      let n = kind_name kind in
      let index, _ = parallel_inserts kind ~domains:3 ~per_domain:300 in
      Alcotest.(check int) (n ^ ": all keys present") 900
        (index.Index_intf.size ());
      for d = 0 to 2 do
        for i = 1 to 300 do
          let key = (d * 1_000_000) + i in
          if index.Index_intf.get key <> Some (key * 2) then
            Alcotest.failf "%s: key %d missing or wrong" n key
        done
      done)
    Index_intf.all_kinds

(* Deterministic conflict-surface check. Two transactions update
   *pre-existing* keys in distant regions; their commits are forced to
   cross (tx1's body completes only after tx2 has committed). On the
   one-big-object AVL index tx2's commit rewrites the single root tvar
   that tx1 read, so tx1 must abort and retry; on the per-node B+tree
   the two updates touch disjoint leaves and tx1 commits first try. *)
let crossing_commit_aborts kind =
  let index = Idx.create kind ~name:"cross" ~cmp:Int.compare in
  (* Pre-populate so updates replace in place: no structural change,
     no leaf splits. *)
  for k = 0 to 999 do
    index.Index_intf.put k k
  done;
  Stm.reset_stats ();
  let tx2_committed = Atomic.make false in
  let tx1_entered = Atomic.make false in
  let tx1 =
    Domain.spawn (fun () ->
        Stm.atomic (fun () ->
            index.Index_intf.put 5 50;
            Atomic.set tx1_entered true;
            (* Hold the transaction open until tx2 has committed. *)
            while not (Atomic.get tx2_committed) do
              Domain.cpu_relax ()
            done))
  in
  while not (Atomic.get tx1_entered) do
    Domain.cpu_relax ()
  done;
  Stm.atomic (fun () -> index.Index_intf.put 995 9950);
  Atomic.set tx2_committed true;
  Domain.join tx1;
  let stats = Stm.stats () in
  (* Both updates must have landed regardless of strategy. *)
  Alcotest.(check (option int))
    (Index_intf.kind_to_string kind ^ ": tx1 update landed")
    (Some 50) (index.Index_intf.get 5);
  Alcotest.(check (option int))
    (Index_intf.kind_to_string kind ^ ": tx2 update landed")
    (Some 9950) (index.Index_intf.get 995);
  Sb7_stm.Stm_stats.(get stats aborts)

let test_btree_conflicts_less_than_avl () =
  Alcotest.(check bool) "avl: crossing commits conflict" true
    (crossing_commit_aborts Index_intf.Avl >= 1);
  Alcotest.(check int) "btree: disjoint leaves do not conflict" 0
    (crossing_commit_aborts Index_intf.Btree)

let test_concurrent_mixed_ops () =
  (* Readers + writers + removers on overlapping ranges: the final
     state must be exactly what a sequential replay of the committed
     multiset of operations would give — checked via a key-space sweep
     where every key is written with its own value, so any torn or
     lost update is visible. *)
  List.iter
    (fun kind ->
      let index = Idx.create kind ~name:"mix" ~cmp:Int.compare in
      let keys = 64 in
      let writer seed () =
        let rng = Sb7_core.Sb_random.create ~seed in
        for _ = 1 to 1_000 do
          let k = Sb7_core.Sb_random.int rng keys in
          Stm.atomic (fun () ->
              if Sb7_core.Sb_random.percent rng 20 then
                ignore (index.Index_intf.remove k)
              else index.Index_intf.put k (k * 10))
        done
      in
      let reader () =
        let bad = ref 0 in
        for _ = 1 to 500 do
          Stm.atomic (fun () ->
              index.Index_intf.iter (fun k v ->
                  if v <> k * 10 then incr bad))
        done;
        !bad
      in
      let ws = List.init 2 (fun i -> Domain.spawn (writer (i + 1))) in
      let rd = Domain.spawn reader in
      List.iter Domain.join ws;
      let bad = Domain.join rd in
      Alcotest.(check int)
        (kind_name kind ^ ": values always consistent")
        0 bad;
      index.Index_intf.iter (fun k v ->
          if v <> k * 10 then
            Alcotest.failf "%s: final value broken at %d" (kind_name kind) k))
    Index_intf.all_kinds

let suite =
  [
    Alcotest.test_case "parallel inserts correct" `Slow
      test_parallel_inserts_correct;
    Alcotest.test_case "btree conflicts <= avl" `Slow
      test_btree_conflicts_less_than_avl;
    Alcotest.test_case "concurrent mixed operations" `Slow
      test_concurrent_mixed_ops;
  ]

let () = Alcotest.run "index_concurrency" [ ("index-conc", suite) ]
