(* An encounter-time-locking (ETL) software transactional memory in
   the style of TinySTM's write-through mode (Felber, Fetzer, Riegel,
   PPoPP'08; the TinySTM exemplar referenced in SNIPPETS.md §3).

   Same per-tvar versioned-lock word, global version clock and commit
   prologue as TL2 ({!Mvstm}); the difference is WHEN writes take
   effect:
   - a writer acquires the tvar's vlock at its FIRST write (encounter
     time), stores the new value in place, and keeps the lock until
     commit or abort;
   - an undo log (old values, in first-write order) restores contents
     on abort, and the lock is released back at the version it was
     taken at;
   - commit is just read-set validation (unless the clock never moved)
     plus releasing every held lock at the new write version — the
     values are already in place.

   Compared to TL2's lazy buffering this converts late commit-time
   write conflicts into early aborts: a second writer touching a
   locked tvar conflicts at ITS first write, before doing the rest of
   its work — the winning trade on write-dominated structural phases.
   Reads of tvars the transaction already locked are plain content
   loads (the in-place value is the transaction's own), cheaper than
   TL2's write-buffer hash probe.

   Reads of foreign tvars are exactly TL2's: vlock sandwich, dedup
   cache, timestamp extension — except that validation must accept the
   transaction's own encounter-time locks (a logged version [v] whose
   vlock now reads [v + 1] owned by us is intact).

   Partial abort: the undo log doubles as the rollback journal. A
   checkpoint records read-set / write-log / undo watermarks; rolling
   back to a mark restores post-mark undo entries in reverse and
   releases (and drops) the locks acquired past the mark, keeping the
   pre-mark locks held — the resumed attempt continues writing through
   them.

   Memory-model note: in-place stores race with other domains' content
   reads; OCaml guarantees no tearing, and the vlock sandwich means a
   foreign reader that overlaps our lock window observes an odd vlock
   (or a version change) and conflicts/retries rather than using the
   uncommitted value. *)

exception Conflict = Stm_intf.Conflict

let name = "etl"

type 'a tvar = {
  id : int;
  vlock : int Atomic.t; (* even = version, odd = locked (version+1) *)
  mutable content : 'a;
}

(* The undo journal ({!Checkpoint}'s) records overwritten contents in
   store order as (tvar, saved content) pairs; an abort replays it in
   reverse so the first-write entry restores last. Both are captured
   from the same ['a] and only re-paired at the same index (see
   {!Checkpoint} for the [Obj] discipline). *)
let journal ck (tv : 'a tvar) =
  Checkpoint.push_undo ck (Obj.repr tv) (Obj.repr tv.content)

let undo_restore (tv : Obj.t) (v : Obj.t) =
  (Obj.obj tv : Obj.t tvar).content <- v

let clock = Global_clock.create ()
let global_stats = Stm_stats.create ()
let tvar_ids = Tvar_id.create ()

let make v = { id = Tvar_id.fresh tvar_ids; vlock = Atomic.make 0; content = v }

(* Whether the transaction holds [id]'s encounter-time lock: the
   descriptor's [writes] is just the set of tvars whose lock we hold —
   the content is written through in place, so there is no buffered
   value to keep and no coercion (the lock itself, and the version it
   was taken at, sit in {!Checkpoint}'s write log). *)
let owns (tx : unit Txdesc.vtx) id = Hashtbl.mem tx.writes id

(* Read-set validation is always own-lock aware here: the transaction
   may hold encounter-time locks on tvars it read first. *)
let extend tx = Txdesc.extend clock ~own_locks:true tx

let rec tx_read : type a. unit Txdesc.vtx -> a tvar -> a =
 fun tx tv ->
  let v1 = Atomic.get tv.vlock in
  if v1 land 1 = 1 then raise Conflict (* foreign encounter-time lock *)
  else begin
    let value = tv.content in
    let v2 = Atomic.get tv.vlock in
    if v1 <> v2 then raise Conflict
    else if v1 > tx.rv then begin
      extend tx;
      tx_read tx tv
    end
    else begin
      if not (Readset.seen tx.rs tv.id) then
        Readset.push tx.rs tv.id tv.vlock v1;
      value
    end
  end

(* Zero-log read-only mode, as TL2's ({!Mvstm.ro_read}) except that an
   odd vlock is a writer in its (here: potentially long) lock window —
   restart the closure rather than spin it out, since an encounter-time
   lock can be held for the writer's whole transaction. *)
let ro_read : type a. int -> a tvar -> a =
 fun rv tv ->
  let v1 = Atomic.get tv.vlock in
  if v1 land 1 = 1 then raise Txdesc.Ro_restart
  else begin
    let value = tv.content in
    let v2 = Atomic.get tv.vlock in
    if v1 <> v2 || v1 > rv then raise Txdesc.Ro_restart else value
  end

(* Acquire [tv]'s lock at encounter time. A foreign lock or a lost CAS
   race is an immediate conflict (the early abort ETL is about); a
   version newer than [rv] forces a timestamp extension first, so the
   lock is always taken at a version within the validated snapshot. *)
let rec acquire (tx : _ Txdesc.vtx) tv =
  let v = Atomic.get tv.vlock in
  if v land 1 = 1 then raise Conflict
  else if v > tx.rv then begin
    extend tx;
    acquire tx tv
  end
  else if Atomic.compare_and_set tv.vlock v (v + 1) then v
  else raise Conflict

(* Full rollback: restore journalled contents in reverse (the
   first-write entry lands last), then release every held lock back at
   its acquisition version. Restore-before-release matters: once the
   vlock returns to an even value, foreign readers will use the
   content. Clears the lock table — the caller must not release
   again. *)
let rollback (tx : _ Txdesc.vtx) =
  Checkpoint.undo_to tx.ck ~from:0 ~restore:undo_restore;
  Checkpoint.unlock tx.ck ~from:0;
  Hashtbl.reset tx.writes;
  tx.wbloom <- 0

(* Commit: values are already in place and every written tvar is
   locked, so all that is left is {!Txdesc.commit_version}'s prologue
   (clock tick, then read validation unless the tick proves nothing
   else committed since [rv]) and releasing the locks at the new write
   version. A validation failure leaves the locks HELD and raises — the
   [atomic] conflict handler owns the rollback, because it may instead
   salvage a checkpointed prefix. *)
let commit (tx : _ Txdesc.vtx) =
  if Hashtbl.length tx.writes = 0 then
    Stm_stats.record_commit global_stats ~read_only:true
  else begin
    let wv = Txdesc.commit_version global_stats clock ~blind:false tx in
    if wv < 0 then raise Conflict;
    Checkpoint.publish tx.ck wv;
    Hashtbl.reset tx.writes;
    Checkpoint.clear_undo tx.ck;
    Stm_stats.record_commit global_stats ~read_only:false
  end

let engine =
  Txdesc.create global_stats
    {
      fresh = Txdesc.fresh_vtx;
      (* Precondition: no locks held and no live undo entries (commit
         or rollback ran). *)
      reset = Txdesc.reset_vtx clock;
      commit;
      (* Partial abort. Unlike TL2, this can run with encounter-time
         locks (including the commit-failure path's) still held: the
         prefix validation is own-lock aware, the undo suffix restores
         in-place stores past the chosen mark, and exactly the locks
         acquired past the mark are released and dropped — pre-mark
         locks stay held for the resumed attempt. *)
      salvage =
        Txdesc.salvage_vtx global_stats clock ~own_locks:true ~blind:false
          ~restore:undo_restore;
      (* Conflicts can arrive with encounter-time locks held (from
         [acquire], [extend] and commit validation alike): when no
         checkpointed prefix can be salvaged, everything is rolled
         back. *)
      rollback;
      flush = Txdesc.flush_vtx global_stats;
    }

let in_transaction () = Txdesc.in_transaction engine

let read tv =
  let state = Txdesc.state engine in
  match state.active with
  | None -> if state.ro_rv >= 0 then ro_read state.ro_rv tv else tv.content
  | Some tx ->
    if tx.wbloom = 0 then tx_read tx tv
    else begin
      let bits = Checkpoint.bloom_bit tv.id in
      if tx.wbloom land bits <> bits then begin
        tx.bloom_skips <- tx.bloom_skips + 1;
        tx_read tx tv
      end
      else if owns tx tv.id then
        (* Own lock held: the in-place content is this transaction's
           pending value — no probe of a write buffer, no log entry. *)
        tv.content
      else tx_read tx tv (* bloom false positive *)
    end

let write tv v =
  let state = Txdesc.state engine in
  match state.active with
  | None ->
    if state.ro_rv >= 0 then raise Stm_intf.Write_in_read_only
    else tv.content <- v
  | Some tx ->
    if owns tx tv.id then begin
      (* Re-store through a lock already held: journal the overwritten
         value only if a checkpoint might roll back to it. *)
      if Checkpoint.armed tx.ck then journal tx.ck tv;
      tv.content <- v
    end
    else begin
      let from = acquire tx tv in
      Hashtbl.add tx.writes tv.id ();
      tx.wbloom <- tx.wbloom lor Checkpoint.bloom_bit tv.id;
      Checkpoint.log_write tx.ck tv.id tv.vlock ~from;
      (* First write always journals: any abort must restore this. *)
      journal tx.ck tv;
      tv.content <- v
    end

let partial_abort = true

let checkpoint ~acc = Txdesc.checkpoint engine ~acc
let resume () = Txdesc.resume engine
let atomic f = Txdesc.atomic engine f
let now () = Global_clock.now clock
let atomic_ro f = Txdesc.atomic_ro engine ~snapshot:now f
let record_ro_demotion () = Stm_stats.(incr global_stats ro_demotions)

let stats () = Stm_stats.snapshot global_stats
let reset_stats () = Stm_stats.reset global_stats
