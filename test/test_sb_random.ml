(* Tests for the SplitMix64 generator. *)

module R = Sb7_core.Sb_random

let test_deterministic () =
  let a = R.create ~seed:123 and b = R.create ~seed:123 in
  for _ = 1 to 1000 do
    Alcotest.(check int) "same stream" (R.int a 1_000_000) (R.int b 1_000_000)
  done

let test_seed_changes_stream () =
  let a = R.create ~seed:1 and b = R.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 100 do
    if R.int a 1_000_000 = R.int b 1_000_000 then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 5)

let test_int_bounds () =
  let rng = R.create ~seed:7 in
  for _ = 1 to 10_000 do
    let v = R.int rng 17 in
    Alcotest.(check bool) "0 <= v < 17" true (v >= 0 && v < 17)
  done

let test_int_one () =
  let rng = R.create ~seed:7 in
  for _ = 1 to 100 do
    Alcotest.(check int) "bound 1 gives 0" 0 (R.int rng 1)
  done

let test_in_range_bounds () =
  let rng = R.create ~seed:11 in
  for _ = 1 to 10_000 do
    let v = R.in_range rng 5 9 in
    Alcotest.(check bool) "5 <= v <= 9" true (v >= 5 && v <= 9)
  done

let test_in_range_degenerate () =
  let rng = R.create ~seed:11 in
  Alcotest.(check int) "singleton range" 42 (R.in_range rng 42 42)

let test_in_range_covers () =
  let rng = R.create ~seed:3 in
  let seen = Array.make 10 false in
  for _ = 1 to 10_000 do
    seen.(R.in_range rng 0 9) <- true
  done;
  Alcotest.(check bool) "all values hit" true (Array.for_all Fun.id seen)

let test_uniformity_rough () =
  let rng = R.create ~seed:5 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let i = R.int rng 10 in
    buckets.(i) <- buckets.(i) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = n / 10 in
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d within 10%%" i)
        true
        (abs (c - expected) < expected / 10))
    buckets

let test_percent_extremes () =
  let rng = R.create ~seed:9 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "0%" false (R.percent rng 0);
    Alcotest.(check bool) "100%" true (R.percent rng 100)
  done

let test_percent_rough () =
  let rng = R.create ~seed:13 in
  let hits = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    if R.percent rng 30 then incr hits
  done;
  let ratio = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "~30%" true (ratio > 0.28 && ratio < 0.32)

let test_split_independent () =
  let parent = R.create ~seed:17 in
  let child = R.split parent in
  let same = ref 0 in
  for _ = 1 to 100 do
    if R.int parent 1_000_000 = R.int child 1_000_000 then incr same
  done;
  Alcotest.(check bool) "split streams differ" true (!same < 5)

let test_copy_replays () =
  let a = R.create ~seed:23 in
  ignore (R.int a 100);
  let b = R.copy a in
  for _ = 1 to 100 do
    Alcotest.(check int) "copy replays" (R.int a 1000) (R.int b 1000)
  done

let test_element () =
  let rng = R.create ~seed:29 in
  let l = [ 10; 20; 30 ] in
  for _ = 1 to 100 do
    Alcotest.(check bool) "member" true (List.mem (R.element rng l) l)
  done

let test_element_empty () =
  let rng = R.create ~seed:29 in
  Alcotest.check_raises "empty list"
    (Invalid_argument "Sb_random.element: empty list") (fun () ->
      ignore (R.element rng []))

let test_bool_varies () =
  let rng = R.create ~seed:31 in
  let trues = ref 0 in
  for _ = 1 to 1000 do
    if R.bool rng then incr trues
  done;
  Alcotest.(check bool) "not constant" true (!trues > 400 && !trues < 600)

(* The first draws of fixed seeds, recorded from the int64-field
   generator this one replaced: the state's representation must not
   change the stream. *)
let test_pinned_draws () =
  let draws rng n = List.init n (fun _ -> R.int rng 1_000_000) in
  let a = R.create ~seed:42 in
  Alcotest.(check (list int))
    "int, seed 42"
    [ 499605; 892291; 375954; 867860; 963250 ]
    (draws a 5);
  let parent = R.create ~seed:7 in
  let child = R.split parent in
  Alcotest.(check (list int)) "split child, seed 7" [ 921413; 106366; 949019 ]
    (draws child 3);
  Alcotest.(check (list int)) "split parent, seed 7" [ 955804; 445634; 696395 ]
    (draws parent 3);
  let orig = R.create ~seed:23 in
  ignore (R.int orig 100);
  let dup = R.copy orig in
  Alcotest.(check (list int)) "copy, seed 23" [ 66871; 964910; 103235 ]
    (draws dup 3);
  Alcotest.(check (list int)) "copied-from, seed 23" [ 66871; 964910; 103235 ]
    (draws orig 3)

(* Every operation pick and every random id costs a draw, so a draw
   must not allocate. *)
let test_draws_allocate_nothing () =
  let rng = R.create ~seed:42 in
  let sum = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 100_000 do
    sum := !sum + R.int rng 1000
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "draws ran" true (!sum > 0);
  Alcotest.(check (float 0.)) "minor words over 100k draws" 0. words

let suite =
  [
    Alcotest.test_case "deterministic per seed" `Quick test_deterministic;
    Alcotest.test_case "seed changes stream" `Quick test_seed_changes_stream;
    Alcotest.test_case "int bounds" `Quick test_int_bounds;
    Alcotest.test_case "int with bound 1" `Quick test_int_one;
    Alcotest.test_case "in_range bounds" `Quick test_in_range_bounds;
    Alcotest.test_case "in_range degenerate" `Quick test_in_range_degenerate;
    Alcotest.test_case "in_range covers all" `Quick test_in_range_covers;
    Alcotest.test_case "rough uniformity" `Quick test_uniformity_rough;
    Alcotest.test_case "percent extremes" `Quick test_percent_extremes;
    Alcotest.test_case "percent ~ratio" `Quick test_percent_rough;
    Alcotest.test_case "split independence" `Quick test_split_independent;
    Alcotest.test_case "copy replays stream" `Quick test_copy_replays;
    Alcotest.test_case "element membership" `Quick test_element;
    Alcotest.test_case "element on empty" `Quick test_element_empty;
    Alcotest.test_case "bool varies" `Quick test_bool_varies;
    Alcotest.test_case "pinned first draws" `Quick test_pinned_draws;
    Alcotest.test_case "draws allocate nothing" `Quick
      test_draws_allocate_nothing;
  ]

let () = Alcotest.run "sb_random" [ ("sb_random", suite) ]
