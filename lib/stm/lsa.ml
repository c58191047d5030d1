(* LSA (Riegel, Felber, Fetzer, DISC'06): the multi-version instance of
   {!Mvstm}. Every tvar keeps its newest value and, in a ring, the three
   versions before it. Keep the depth small: every live slot of every
   ring is a pointer the GC must mark, so depth is a direct tax on
   traversal-heavy workloads (depth 8 measurably slowed
   single-threaded T1). *)

include Mvstm.Make (struct
  let name = "lsa"
  let history_depth = 4
end)

(* Multi-version snapshots are LSA's native read-only mode, so
   [atomic_ro] is the snapshot mode. *)
let atomic_snapshot = atomic_ro
