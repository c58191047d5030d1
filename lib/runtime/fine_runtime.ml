(** A fine-grained locking strategy — the "ultimate baseline" the paper
    leaves as future work (§6: "adding a fine-grained, highly-optimized
    locking strategy would help define the ultimate baseline test").

    The paper observes (§4) that static fine-grained locking is
    impractical for STMBench7 because an operation cannot know the
    objects it will touch before traversing: one would have to build,
    sort, and lock an access list per operation. This implementation
    takes the standard dynamic alternative: strict two-phase locking at
    tvar granularity with no-wait deadlock avoidance —

    - every tvar carries its own reader/writer lock word;
    - locks are acquired on first access and held to the end of the
      operation (strict 2PL, so operations stay atomic);
    - a lock that cannot be acquired immediately triggers restart:
      writes are rolled back from an undo log, all locks are released,
      and the operation reruns after randomized backoff (no waiting
      cycles, hence no deadlock);
    - read locks upgrade to write locks when the holder is the sole
      reader, and restart otherwise.

    This is exactly the engineering the paper predicts: the mechanism
    needs an undo log and restart — "implementing it efficiently would
    be much more complex than using an STM". *)

module C = Sb7_stm.Sharded_counter

exception Restart

let name = "fine"

(* Lock word: 0 = free, n > 0 = n readers, -1 = write-locked. *)
type 'a tvar = {
  id : int;
  lock : int Atomic.t;
  mutable content : 'a;
}

(* Chunked ids; see Tvar_id — one shared atomic op per 1024 tvars. *)
let tvar_ids = Sb7_stm.Tvar_id.create ()

let make v =
  { id = Sb7_stm.Tvar_id.fresh tvar_ids; lock = Atomic.make 0; content = v }

type held_mode =
  | Held_read
  | Held_write

type op_ctx = {
  (* tvar id -> (mode, release closure) *)
  held : (int, held_mode ref * (unit -> unit)) Hashtbl.t;
  mutable undo : (unit -> unit) list;
  backoff : Sb7_stm.Backoff.t;
}

type domain_state = {
  mutable active : op_ctx option;
  mutable spare : op_ctx option;
}

let state_key : domain_state Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { active = None; spare = None })

let fresh_ctx () =
  {
    held = Hashtbl.create 64;
    undo = [];
    backoff = Sb7_stm.Backoff.for_domain ();
  }

let schema = C.schema ()
let acquisitions = C.declare schema "acquisitions"
let restarts = C.declare schema "restarts"
let upgrades = C.declare schema "upgrades"
let commits = C.declare schema "commits"

(* Restarts are this runtime's aborts: an operation that could not take
   a lock rolled back and reran. Both are recorded on every restart. *)
let aborts = C.declare schema "aborts"
let counters = C.create schema

let try_read_lock lock =
  let rec attempt spins =
    let v = Atomic.get lock in
    if v >= 0 then
      if Atomic.compare_and_set lock v (v + 1) then true else attempt spins
    else if spins > 0 then begin
      Domain.cpu_relax ();
      attempt (spins - 1)
    end
    else false
  in
  attempt 16

let try_write_lock lock =
  let rec attempt spins =
    if Atomic.compare_and_set lock 0 (-1) then true
    else if spins > 0 then begin
      Domain.cpu_relax ();
      attempt (spins - 1)
    end
    else false
  in
  attempt 16

let release_read lock = ignore (Atomic.fetch_and_add lock (-1))
let release_write lock = Atomic.set lock 0

(* Per-tvar lock identity for the sanitizer's acquire/release events:
   too numerous to register by name, so they live in the anonymous uid
   space (see Lock_hooks). *)
module Hooks = Sb7_rwlock.Lock_hooks

let lock_uid tv = Hooks.anonymous_base + tv.id

let lock_for_read ctx tv =
  match Hashtbl.find_opt ctx.held tv.id with
  | Some _ -> () (* already held in either mode *)
  | None ->
    if not (try_read_lock tv.lock) then raise Restart;
    C.incr counters acquisitions;
    Hooks.on_acquire ~id:(lock_uid tv) ~exclusive:false;
    Hashtbl.add ctx.held tv.id
      ( ref Held_read,
        fun () ->
          Hooks.on_release ~id:(lock_uid tv) ~exclusive:false;
          release_read tv.lock )

let lock_for_write ctx tv =
  match Hashtbl.find_opt ctx.held tv.id with
  | Some ({ contents = Held_write }, _) -> ()
  | Some (({ contents = Held_read } as mode), _) ->
    (* Upgrade: legal only as the sole reader (1 -> -1). *)
    if Atomic.compare_and_set tv.lock 1 (-1) then begin
      C.incr counters upgrades;
      Hooks.on_release ~id:(lock_uid tv) ~exclusive:false;
      Hooks.on_acquire ~id:(lock_uid tv) ~exclusive:true;
      mode := Held_write;
      Hashtbl.replace ctx.held tv.id
        ( mode,
          fun () ->
            Hooks.on_release ~id:(lock_uid tv) ~exclusive:true;
            release_write tv.lock )
    end
    else raise Restart
  | None ->
    if not (try_write_lock tv.lock) then raise Restart;
    C.incr counters acquisitions;
    Hooks.on_acquire ~id:(lock_uid tv) ~exclusive:true;
    Hashtbl.add ctx.held tv.id
      ( ref Held_write,
        fun () ->
          Hooks.on_release ~id:(lock_uid tv) ~exclusive:true;
          release_write tv.lock )

let read tv =
  match (Domain.DLS.get state_key).active with
  | None -> tv.content
  | Some ctx ->
    lock_for_read ctx tv;
    tv.content

let write tv v =
  match (Domain.DLS.get state_key).active with
  | None -> tv.content <- v
  | Some ctx ->
    lock_for_write ctx tv;
    let old = tv.content in
    ctx.undo <- (fun () -> tv.content <- old) :: ctx.undo;
    tv.content <- v

let release_all ctx =
  Hashtbl.iter (fun _ (_, release) -> release ()) ctx.held;
  Hashtbl.reset ctx.held

let rollback ctx =
  List.iter (fun undo -> undo ()) ctx.undo;
  ctx.undo <- []

let atomic ~profile f =
  ignore (profile : Op_profile.t);
  let st = Domain.DLS.get state_key in
  match st.active with
  | Some _ -> f () (* nested: flatten into the enclosing operation *)
  | None ->
    let ctx =
      match st.spare with
      | Some ctx -> ctx
      | None ->
        let ctx = fresh_ctx () in
        st.spare <- Some ctx;
        ctx
    in
    let rec attempt () =
      ctx.undo <- [];
      st.active <- Some ctx;
      match f () with
      | result ->
        st.active <- None;
        ctx.undo <- [];
        release_all ctx;
        Sb7_stm.Backoff.reset ctx.backoff;
        C.incr counters commits;
        result
      | exception Restart ->
        st.active <- None;
        rollback ctx;
        release_all ctx;
        C.incr counters restarts;
        C.incr counters aborts;
        Sb7_stm.Backoff.once ctx.backoff;
        attempt ()
      | exception exn ->
        (* Semantic failures (and any other exception) roll back and
           propagate — strict 2PL means the view was consistent. *)
        st.active <- None;
        rollback ctx;
        release_all ctx;
        raise exn
    in
    attempt ()

(* Lock-based execution holds its locks for the whole operation and
   rolls back wholesale on restart: no partial abort. *)
let partial_abort = false
let checkpoint ~acc = ignore acc
let resume () = (0, 0)

let stats () = C.to_assoc schema (C.snapshot counters)
let reset_stats () = C.reset counters
