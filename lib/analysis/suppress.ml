(** Per-site suppression comments.

    A finding on line [l] is suppressed when line [l] or line [l - 1]
    of the source file carries a comment of the form

    {v (* sb7-lint: allow <rule> -- reason *) v}

    where [<rule>] is the finding's rule id (e.g. [raw-mut],
    [irrevocable], [lock-order]) or [all]. The reason is free text; by
    convention it says why the site is safe (e.g. "thread-private
    state"). Several rules may be allowed at one site by repeating the
    marker. [profile-honesty] is the one rule no marker waives, [all]
    included. *)

type entry = {
  e_line : int;
  e_rule : string;
  mutable e_used : bool;
}

type t = {
  entries : entry list;
  source : string;  (** path the suppressions were read from *)
}

let empty source = { entries = []; source }

(* Matches "sb7-lint:<ws>allow<ws><rule-token>" anywhere in a line;
   comment delimiters around it are not checked so the marker also
   works inside larger documentation comments. *)
let parse_line line =
  let key = "sb7-lint:" in
  let klen = String.length key in
  let len = String.length line in
  let rec find i =
    if i + klen > len then None
    else if String.sub line i klen = key then Some (i + klen)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some i ->
    let rec skip_ws i = if i < len && line.[i] = ' ' then skip_ws (i + 1) else i in
    let i = skip_ws i in
    let word_end j =
      let rec go j =
        if j < len
           && (match line.[j] with
              | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> true
              | _ -> false)
        then go (j + 1)
        else j
      in
      go j
    in
    let e = word_end i in
    if String.sub line i (e - i) <> "allow" then None
    else
      let i = skip_ws e in
      let e = word_end i in
      if e = i then None else Some (String.sub line i (e - i))

(* A marker inside a multi-line comment protects the code following the
   comment, so an entry's effective line is the line where its comment
   closes (the marker's own line for single-line comments). *)
let closing_line lines start =
  let n = Array.length lines in
  let rec find i =
    if i >= n then start + 1
    else
      let line = lines.(i) in
      let has_close =
        let len = String.length line in
        let rec scan j =
          j + 1 < len && ((line.[j] = '*' && line.[j + 1] = ')') || scan (j + 1))
        in
        scan 0
      in
      if has_close then i + 1 else find (i + 1)
  in
  find start

let load path =
  match open_in path with
  | exception Sys_error _ -> empty path
  | ic ->
    let lines = ref [] in
    (try
       while true do
         lines := input_line ic :: !lines
       done
     with End_of_file -> ());
    close_in ic;
    let lines = Array.of_list (List.rev !lines) in
    let entries = ref [] in
    Array.iteri
      (fun i line ->
        match parse_line line with
        | Some rule ->
          entries :=
            { e_line = closing_line lines i; e_rule = rule; e_used = false }
            :: !entries
        | None -> ())
      lines;
    { entries = List.rev !entries; source = path }

(* Profile honesty is also the verdict [sb7-footprint gen] and
   [matrix] refuse on, and they read no comments: a waiver here would
   let the lint pass a profile the generator refuses. A marker naming
   it matches nothing and is reported stale. *)
let unsuppressible = "profile-honesty"

(** [suppressed t ~line ~rule] also marks the matching entry as used so
    that stale suppressions can be reported. *)
let suppressed t ~line ~rule =
  (not (String.equal rule unsuppressible))
  &&
  match
    List.find_opt
      (fun e ->
        (e.e_line = line || e.e_line = line - 1)
        && (e.e_rule = rule || e.e_rule = "all"))
      t.entries
  with
  | Some e ->
    e.e_used <- true;
    true
  | None -> false

(** Suppression entries that never matched a finding: likely stale. *)
let unused t =
  List.filter_map
    (fun e -> if e.e_used then None else Some (e.e_line, e.e_rule))
    t.entries
