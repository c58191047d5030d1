(* Tests for text generation and the textual update operations,
   including qcheck properties. *)

module Text = Sb7_core.Text

let test_generate_size () =
  List.iter
    (fun size ->
      Alcotest.(check int)
        (Printf.sprintf "size %d" size)
        size
        (String.length (Text.generate ~phrase:"I am here. " ~size)))
    [ 1; 5; 11; 100; 1000; 12345 ]

let test_generate_zero () =
  Alcotest.(check string) "empty" "" (Text.generate ~phrase:"x" ~size:0)

let test_generate_repeats () =
  let t = Text.generate ~phrase:"abc" ~size:8 in
  Alcotest.(check string) "prefix repetition" "abcabcab" t

let test_document_phrase_has_i_am () =
  let p = Text.document_phrase ~part_id:7 in
  Alcotest.(check bool) "contains 'I am'" true
    (fst (Text.replace_all p ~old_s:"I am" ~new_s:"X") <> p)

let test_count_char () =
  Alcotest.(check int) "count" 3 (Text.count_char "aIbIcI" 'I');
  Alcotest.(check int) "none" 0 (Text.count_char "abc" 'I');
  Alcotest.(check int) "empty" 0 (Text.count_char "" 'I')

let test_first_last_equal () =
  Alcotest.(check bool) "equal" true (Text.first_last_equal "abca");
  Alcotest.(check bool) "differs" false (Text.first_last_equal "abc");
  Alcotest.(check bool) "single" true (Text.first_last_equal "x");
  Alcotest.(check bool) "empty" false (Text.first_last_equal "")

let test_replace_all_basic () =
  let t, n = Text.replace_all "I am what I am" ~old_s:"I am" ~new_s:"This is" in
  Alcotest.(check string) "text" "This is what This is" t;
  Alcotest.(check int) "count" 2 n

let test_replace_all_none () =
  let t, n = Text.replace_all "nothing here" ~old_s:"I am" ~new_s:"X" in
  Alcotest.(check string) "unchanged" "nothing here" t;
  Alcotest.(check int) "count 0" 0 n

let test_replace_all_overlap () =
  (* Non-overlapping, left to right. *)
  let t, n = Text.replace_all "aaa" ~old_s:"aa" ~new_s:"b" in
  Alcotest.(check string) "left to right" "ba" t;
  Alcotest.(check int) "one replacement" 1 n

let test_toggle_i_am_round_trip () =
  let original = Text.generate ~phrase:(Text.document_phrase ~part_id:3) ~size:500 in
  let once, n1 = Text.toggle_i_am original in
  let twice, n2 = Text.toggle_i_am once in
  Alcotest.(check bool) "first toggle replaced something" true (n1 > 0);
  Alcotest.(check int) "second toggle reverses count" n1 n2;
  Alcotest.(check string) "round trip" original twice

let test_toggle_i_case_round_trip () =
  let original = Text.generate ~phrase:(Text.manual_phrase ~module_id:1) ~size:500 in
  let once, n1 = Text.toggle_i_case original in
  let twice, n2 = Text.toggle_i_case once in
  Alcotest.(check bool) "changed" true (n1 > 0);
  Alcotest.(check int) "reversed count" n1 n2;
  Alcotest.(check string) "round trip" original twice

let test_swap_char () =
  let t, n = Text.swap_char "IiIi" ~from_c:'I' ~to_c:'i' in
  Alcotest.(check string) "all lowered" "iiii" t;
  Alcotest.(check int) "two changes" 2 n

(* qcheck properties *)

let printable_string = QCheck.string_gen_of_size (QCheck.Gen.int_bound 200) QCheck.Gen.printable

let prop_count_char_matches_fold =
  QCheck.Test.make ~name:"count_char matches naive fold" ~count:500
    printable_string (fun s ->
      Text.count_char s 'I'
      = String.fold_left (fun acc c -> if c = 'I' then acc + 1 else acc) 0 s)

let prop_replace_count_consistent =
  QCheck.Test.make ~name:"replace_all count = occurrences removed" ~count:500
    printable_string (fun s ->
      let replaced, n = Text.replace_all s ~old_s:"ab" ~new_s:"" in
      String.length replaced = String.length s - (2 * n))

let prop_replace_removes_pattern =
  QCheck.Test.make ~name:"replace_all leaves no pattern when new avoids it"
    ~count:500 printable_string (fun s ->
      let replaced, _ = Text.replace_all s ~old_s:"ab" ~new_s:"_" in
      let _, again = Text.replace_all replaced ~old_s:"ab" ~new_s:"_" in
      again = 0)

let prop_generate_size =
  QCheck.Test.make ~name:"generate length" ~count:200
    QCheck.(pair (int_range 1 50) (int_range 0 500))
    (fun (plen, size) ->
      let phrase = String.make plen 'x' in
      String.length (Text.generate ~phrase ~size) = size)

let prop_swap_char_involutive_count =
  QCheck.Test.make ~name:"swap_char back and forth restores" ~count:500
    printable_string (fun s ->
      (* Only valid when the target character is absent initially. *)
      QCheck.assume (not (String.contains s '\001'));
      let once, n1 = Text.swap_char s ~from_c:'a' ~to_c:'\001' in
      let back, n2 = Text.swap_char once ~from_c:'\001' ~to_c:'a' in
      n1 = n2 && String.equal back s)

let qcheck_suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_count_char_matches_fold;
      prop_replace_count_consistent;
      prop_replace_removes_pattern;
      prop_generate_size;
      prop_swap_char_involutive_count;
    ]

(* --- Equivalence with the straightforward implementations ----------

   [Reference] keeps the first, obviously-correct versions of the text
   functions (a closure per character, a [String.sub] per position, a
   format string per title). The loops in [Text] must return exactly
   what they return. *)

module Reference = struct
  let generate ~phrase ~size =
    if size <= 0 then ""
    else begin
      let buf = Buffer.create size in
      while Buffer.length buf < size do
        Buffer.add_string buf phrase
      done;
      Buffer.sub buf 0 size
    end

  let count_char text c =
    let n = ref 0 in
    String.iter (fun ch -> if ch = c then incr n) text;
    !n

  let replace_all text ~old_s ~new_s =
    let old_len = String.length old_s in
    let buf = Buffer.create (String.length text) in
    let count = ref 0 in
    let i = ref 0 in
    let n = String.length text in
    while !i < n do
      if !i + old_len <= n && String.sub text !i old_len = old_s then begin
        Buffer.add_string buf new_s;
        incr count;
        i := !i + old_len
      end
      else begin
        Buffer.add_char buf text.[!i];
        incr i
      end
    done;
    (Buffer.contents buf, !count)

  let swap_char text ~from_c ~to_c =
    let count = ref 0 in
    let swapped =
      String.map
        (fun ch ->
          if ch = from_c then begin
            incr count;
            to_c
          end
          else ch)
        text
    in
    (swapped, !count)

  let toggle_i_am text =
    let replaced, count = replace_all text ~old_s:"I am" ~new_s:"This is" in
    if count > 0 then (replaced, count)
    else replace_all text ~old_s:"This is" ~new_s:"I am"

  let toggle_i_case text =
    if String.contains text 'I' then swap_char text ~from_c:'I' ~to_c:'i'
    else swap_char text ~from_c:'i' ~to_c:'I'
end

(* Strings over the documents' own alphabet: runs of the fragments the
   text operations look for, so matches are dense, overlap ("aa" in
   "aaa") and sit at either end. *)
let fragments =
  [| "I am"; "This is"; "I"; "i"; "a"; "aa"; "m"; " "; "T"; "h"; "s";
     "#"; "7"; ". "; "I am the documentation of composite part #" |]

let doc_string_gen =
  QCheck.Gen.(
    map (String.concat "")
      (list_size (int_bound 40) (map (Array.get fragments) (int_bound (Array.length fragments - 1)))))

let patterns = [| "I am"; "This is"; "aa"; "a"; "I"; "is"; " "; "xyz"; "I am the" |]
let replacements = [| "This is"; "I am"; ""; "b"; "aaa"; "I" |]

let doc_string = QCheck.make ~print:(Printf.sprintf "%S") doc_string_gen

let replace_case =
  QCheck.make
    ~print:(fun (s, o, n) -> Printf.sprintf "%S ~old_s:%S ~new_s:%S" s o n)
    QCheck.Gen.(
      triple doc_string_gen (oneofa patterns) (oneofa replacements))

let same_result (t, n) (t', n') = String.equal t t' && n = n'

let prop_replace_all_equiv =
  QCheck.Test.make ~name:"replace_all = reference" ~count:2_000 replace_case
    (fun (s, old_s, new_s) ->
      same_result
        (Text.replace_all s ~old_s ~new_s)
        (Reference.replace_all s ~old_s ~new_s))

let prop_toggle_i_am_equiv =
  QCheck.Test.make ~name:"toggle_i_am = reference" ~count:2_000 doc_string
    (fun s -> same_result (Text.toggle_i_am s) (Reference.toggle_i_am s))

let prop_toggle_i_case_equiv =
  QCheck.Test.make ~name:"toggle_i_case = reference" ~count:2_000 doc_string
    (fun s -> same_result (Text.toggle_i_case s) (Reference.toggle_i_case s))

let prop_swap_count_equiv =
  QCheck.Test.make ~name:"swap_char and count_char = reference" ~count:2_000
    doc_string (fun s ->
      List.for_all
        (fun (from_c, to_c) ->
          same_result
            (Text.swap_char s ~from_c ~to_c)
            (Reference.swap_char s ~from_c ~to_c)
          && Text.count_char s from_c = Reference.count_char s from_c)
        [ ('I', 'i'); ('i', 'I'); ('a', 'b'); ('x', 'y') ])

let prop_generate_equiv =
  QCheck.Test.make ~name:"generate = reference" ~count:1_000
    QCheck.(pair (make ~print:(Printf.sprintf "%S") doc_string_gen) (int_range (-2) 500))
    (fun (phrase, size) ->
      QCheck.assume (phrase <> "");
      String.equal (Text.generate ~phrase ~size) (Reference.generate ~phrase ~size))

let equivalence_suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_replace_all_equiv;
      prop_toggle_i_am_equiv;
      prop_toggle_i_case_equiv;
      prop_swap_count_equiv;
      prop_generate_equiv;
    ]

let check_text name expected actual =
  Alcotest.(check (pair string int)) name expected actual

let test_replace_edges () =
  List.iter
    (fun (s, old_s, new_s) ->
      check_text
        (Printf.sprintf "%S ~old_s:%S ~new_s:%S" s old_s new_s)
        (Reference.replace_all s ~old_s ~new_s)
        (Text.replace_all s ~old_s ~new_s))
    [
      ("aaa", "aa", "b");
      ("aaaa", "aa", "");
      ("I amI am", "I am", "This is");
      ("I am in the middle, I am", "I am", "This is");
      ("This is", "This is", "I am");
      ("I a", "I am", "X");
      ("", "I am", "X");
      ("no match here", "xyz", "abc");
      ("a", "aa", "b");
    ]

(* Every id the structure can hold, and more: the titles, phrases and
   type names are exactly the [Printf] forms they replace. *)
let test_formatted_ids () =
  for id = 0 to 100_000 do
    let pin what expected actual =
      if not (String.equal expected actual) then
        Alcotest.failf "%s %d: expected %S, got %S" what id expected actual
    in
    pin "document_title" (Printf.sprintf "Composite Part #%d" id)
      (Text.document_title ~part_id:id);
    pin "document_phrase"
      (Printf.sprintf "I am the documentation of composite part #%d. " id)
      (Text.document_phrase ~part_id:id);
    pin "manual_phrase" (Printf.sprintf "I am the manual of module #%d. " id)
      (Text.manual_phrase ~module_id:id);
    pin "type_name" (Printf.sprintf "type #%d" id) (Text.type_name id)
  done;
  List.iter
    (fun id ->
      Alcotest.(check string) "title" (Printf.sprintf "Composite Part #%d" id)
        (Text.document_title ~part_id:id))
    [ max_int; -1; min_int ]

let equivalence_cases =
  [
    Alcotest.test_case "replace_all edge cases = reference" `Quick
      test_replace_edges;
    Alcotest.test_case "ids format as Printf does" `Quick test_formatted_ids;
  ]

let suite =
  [
    Alcotest.test_case "generate size" `Quick test_generate_size;
    Alcotest.test_case "generate zero" `Quick test_generate_zero;
    Alcotest.test_case "generate repeats phrase" `Quick test_generate_repeats;
    Alcotest.test_case "document phrase has 'I am'" `Quick
      test_document_phrase_has_i_am;
    Alcotest.test_case "count_char" `Quick test_count_char;
    Alcotest.test_case "first_last_equal" `Quick test_first_last_equal;
    Alcotest.test_case "replace_all basic" `Quick test_replace_all_basic;
    Alcotest.test_case "replace_all none" `Quick test_replace_all_none;
    Alcotest.test_case "replace_all no overlap" `Quick test_replace_all_overlap;
    Alcotest.test_case "toggle I am round trip" `Quick
      test_toggle_i_am_round_trip;
    Alcotest.test_case "toggle I case round trip" `Quick
      test_toggle_i_case_round_trip;
    Alcotest.test_case "swap_char" `Quick test_swap_char;
  ]

let () =
  Alcotest.run "text"
    [
      ("text", suite);
      ("text-props", qcheck_suite);
      ("text-equiv", equivalence_cases @ equivalence_suite);
    ]
