(* R1 through a functor-made hash table and a Bytes integer store: the
   same mutations R1 reports over Stdlib.Hashtbl and Bytes.set.
   Expected: one raw-mut-global (the module-level table), two raw-mut
   (the insertion into it, the store into a caller's buffer); the local
   table and buffer are strict-local notices only. *)

module Id_set = Hashtbl.Make (Int)

let probe_seen : unit Id_set.t = Id_set.create 16
let probe_note id = Id_set.replace probe_seen id ()
let stamp (b : Bytes.t) = Bytes.set_int64_le b 0 1L

let fresh_seen ids =
  let seen = Id_set.create 16 in
  List.iter (fun id -> Id_set.replace seen id ()) ids;
  Id_set.length seen

let fresh_stamp () =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 1L;
  b
