(** Text utilities for documents and the manual.

    Texts are generated by repeating a seed phrase up to a target size,
    so they contain the substrings the textual operations look for:
    "I am" (toggled with "This is" by T5/ST7) and the character 'I'
    (counted by T4/OP4, case-toggled by OP11).

    The functions run on operation paths and in the structure builder:
    none formats, calls a closure per character or allocates anything
    but its result. *)

(** Repeat [phrase] until the result is exactly [size] characters
    ([""] if [size <= 0]; [phrase] must be non-empty). *)
val generate : phrase:string -> size:int -> string

val document_phrase : part_id:int -> string
val manual_phrase : module_id:int -> string

(** The indexed document title for a composite part,
    ["Composite Part #<part_id>"]. *)
val document_title : part_id:int -> string

(** The type attribute of objects and connections, ["type #<id>"]. *)
val type_name : int -> string

val count_char : string -> char -> int

(** Whether the first and last characters exist and are equal (the OP5
    check). *)
val first_last_equal : string -> bool

(** Replace every occurrence of [old_s] (non-overlapping, left to
    right) with [new_s]; returns the new text and the number of
    replacements. *)
val replace_all : string -> old_s:string -> new_s:string -> string * int

(** Replace every [from_c] character with [to_c]; returns the new text
    and the number of characters changed. *)
val swap_char : string -> from_c:char -> to_c:char -> string * int

(** The T5/ST7 update: replace "I am" by "This is", or vice versa when
    no "I am" is present. Returns the new text and the replacement
    count. *)
val toggle_i_am : string -> string * int

(** The OP11 update: lowercase every 'I' if any is present, otherwise
    uppercase every 'i'. Returns the new text and the change count. *)
val toggle_i_case : string -> string * int
