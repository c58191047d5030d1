(** Text utilities for documents and the manual.

    Texts are generated by repeating a seed phrase up to a target size,
    so they contain the substrings the textual operations look for:
    "I am" (toggled with "This is" by T5/ST7) and the character 'I'
    (counted by T4/OP4, case-toggled by OP11). *)

(** Repeat [phrase] until the result is exactly [size] characters. *)
let generate ~phrase ~size =
  if size <= 0 then ""
  else begin
    let plen = String.length phrase in
    assert (plen > 0);
    let b = Bytes.create size in
    let pos = ref 0 in
    while !pos < size do
      let len = Int.min plen (size - !pos) in
      Bytes.blit_string phrase 0 b !pos len;
      pos := !pos + len
    done;
    Bytes.unsafe_to_string b
  end

let rec decimal_digits n = if n < 10 then 1 else 1 + decimal_digits (n / 10)

(* [prefix ^ string_of_int n ^ suffix], built in one allocation. *)
let with_int prefix n suffix =
  if n < 0 then prefix ^ string_of_int n ^ suffix
  else begin
    let plen = String.length prefix and nd = decimal_digits n in
    let b = Bytes.create (plen + nd + String.length suffix) in
    Bytes.blit_string prefix 0 b 0 plen;
    let n = ref n in
    for i = plen + nd - 1 downto plen do
      Bytes.unsafe_set b i (Char.unsafe_chr (48 + (!n mod 10)));
      n := !n / 10
    done;
    Bytes.blit_string suffix 0 b (plen + nd) (String.length suffix);
    Bytes.unsafe_to_string b
  end

let document_phrase ~part_id =
  with_int "I am the documentation of composite part #" part_id ". "

let manual_phrase ~module_id = with_int "I am the manual of module #" module_id ". "
let document_title ~part_id = with_int "Composite Part #" part_id ""
let type_name id = with_int "type #" id ""

let count_char text c =
  let n = ref 0 in
  for i = 0 to String.length text - 1 do
    if String.unsafe_get text i = c then incr n
  done;
  !n

let first_last_equal text =
  String.length text > 0 && text.[0] = text.[String.length text - 1]

(* Whether [pat] occurs in [text] at [i]; needs
   [i + String.length pat <= String.length text]. *)
let rec matches_at text i pat j =
  j = String.length pat
  || String.unsafe_get text (i + j) = String.unsafe_get pat j
     && matches_at text i pat (j + 1)

(* Non-overlapping occurrences of [pat], left to right. *)
let occurrences text pat =
  let m = String.length pat in
  assert (m > 0);
  let last = String.length text - m in
  let count = ref 0 and i = ref 0 in
  while !i <= last do
    if matches_at text !i pat 0 then begin
      incr count;
      i := !i + m
    end
    else incr i
  done;
  !count

(* A fresh copy of [text] with its [count] occurrences of [old_s]
   (as counted by {!occurrences}) replaced by [new_s]. *)
let substitute text ~old_s ~new_s count =
  let n = String.length text in
  let m = String.length old_s and new_len = String.length new_s in
  let b = Bytes.create (n + (count * (new_len - m))) in
  let i = ref 0 and from = ref 0 and o = ref 0 in
  let left = ref count in
  while !left > 0 do
    if matches_at text !i old_s 0 then begin
      let run = !i - !from in
      Bytes.blit_string text !from b !o run;
      Bytes.blit_string new_s 0 b (!o + run) new_len;
      o := !o + run + new_len;
      i := !i + m;
      from := !i;
      decr left
    end
    else incr i
  done;
  Bytes.blit_string text !from b !o (n - !from);
  Bytes.unsafe_to_string b

(** Replace every occurrence of [old_s] (non-overlapping, left to right)
    with [new_s]; returns the new text and the number of replacements. *)
let replace_all text ~old_s ~new_s =
  let count = occurrences text old_s in
  (substitute text ~old_s ~new_s count, count)

(** Replace every [from_c] character with [to_c]; returns the new text
    and the number of characters changed. *)
let swap_char text ~from_c ~to_c =
  let b = Bytes.of_string text in
  let count = ref 0 in
  for i = 0 to Bytes.length b - 1 do
    if Bytes.unsafe_get b i = from_c then begin
      Bytes.unsafe_set b i to_c;
      incr count
    end
  done;
  (Bytes.unsafe_to_string b, !count)

(** The T5/ST7 update: replace "I am" by "This is", or vice versa if no
    "I am" is present. Returns the new text and the replacement count. *)
let toggle_i_am text =
  let count = occurrences text "I am" in
  if count > 0 then (substitute text ~old_s:"I am" ~new_s:"This is" count, count)
  else replace_all text ~old_s:"This is" ~new_s:"I am"

(** The OP11 update: if the text contains 'I', lowercase every 'I';
    otherwise uppercase every 'i'. Returns new text and change count. *)
let toggle_i_case text =
  if String.contains text 'I' then swap_char text ~from_c:'I' ~to_c:'i'
  else swap_char text ~from_c:'i' ~to_c:'I'
