(** The coarse-grained locking strategy of the paper: one global
    read-write lock protects the entire data structure. Read-only
    operations take it in read mode, everything else in write mode. *)

module C = Sb7_stm.Sharded_counter

let name = "coarse"

type 'a tvar = 'a ref

let make v = ref v
let read tv = !tv
let write tv v = tv := v

let global = Sb7_rwlock.Rwlock.create ~name:"global" ()
let schema = C.schema ()
let read_acquisitions = C.declare schema "read_acquisitions"
let write_acquisitions = C.declare schema "write_acquisitions"
let commits = C.declare schema "commits"
let _aborts = C.declare schema "aborts" (* exported, never recorded *)
let counters = C.create schema

let atomic ~profile f =
  let mode : Sb7_rwlock.Rwlock.mode =
    if Op_profile.read_only profile then Read else Write
  in
  (match mode with
  | Read -> C.incr counters read_acquisitions
  | Write -> C.incr counters write_acquisitions);
  let result = Sb7_rwlock.Rwlock.with_lock global mode f in
  (* Only normal returns count, mirroring the STM runtimes where an
     operation that raises rolls back and is not a commit. *)
  C.incr counters commits;
  result

(* Lock-based execution holds its locks for the whole operation and
   rolls back wholesale on restart: no partial abort. *)
let partial_abort = false
let checkpoint ~acc = ignore acc
let resume () = (0, 0)

let stats () = C.to_assoc schema (C.snapshot counters)
let reset_stats () = C.reset counters
