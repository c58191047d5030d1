(* TL2 (Dice, Shalev, Shavit, DISC'06): the one-version instance of
   {!Mvstm}. A read-only read that post-dates its snapshot restarts the
   closure at a fresh read version; {!Mvstm.Make}'s [Unsafe] holds the
   two seeded bugs the sanitizer's fixtures arm through this module. *)

include Mvstm.Make (struct
  let name = "tl2"
  let history_depth = 1
end)
