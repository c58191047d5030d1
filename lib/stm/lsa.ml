(* A multi-version STM in the style of the Lazy Snapshot Algorithm
   (Riegel, Felber, Fetzer, DISC'06 — reference [11] of the STMBench7
   paper, one of the "solutions already proposed" for the long-traversal
   problem).

   Every tvar keeps a short history of (version, value) pairs. Update
   transactions behave like TL2 (read-version check with extension,
   lazy writes, commit-time locking, O(k) validation), but commits
   *append* to the history instead of overwriting. Transactions opened
   in snapshot mode — which the LSA runtime selects for operations with
   read-only profiles — read the newest version no newer than their
   start time: they never validate and never conflict with writers, and
   abort only in the rare case where the needed version has already
   been evicted from a history.

   This is exactly what the paper's §5 calls for: T1-class traversals
   run at sequential speed regardless of concurrent updates, where the
   invisible-read ASTM pays O(k²) validation and the locks serialize.

   Version histories are fixed-size circular arrays (two flat parallel
   buffers plus a head index) rather than cons lists: a commit appends
   by overwriting the oldest slot with no allocation and no recursive
   truncation, and a snapshot read is a short linear scan newest-to-
   oldest over a cache-friendly int array ([history_depth] is small
   enough that binary search would not pay for itself). The update
   path shares TL2's log fast paths — read-set dedup, a word-sized
   write-set bloom filter, and the GV4-style commit clock; see
   docs/PERF.md. *)

exception Conflict = Stm_intf.Conflict

let name = "lsa"

(* Versions kept per tvar. Snapshot transactions abort if they need
   something older; STMBench7's long traversals are fast relative to
   the update rate at realistic scales, so a small constant works.
   Keep it small: every live slot of every [values] ring is a pointer
   the GC must mark, so depth is a direct tax on traversal-heavy
   workloads (depth 8 measurably slowed single-threaded T1). *)
let history_depth = 4

type 'a tvar = {
  id : int;
  vlock : int Atomic.t; (* even = version of the head entry, odd = locked *)
  versions : int array; (* circular ring, parallel to [values] *)
  values : 'a array;
  mutable head : int; (* index of the newest entry *)
}

type wentry = W : { tv : 'a tvar; value : 'a ref } -> wentry

(* Same id-equality justification as [Tl2.cast_ref]. *)
let cast_ref : type a. a tvar -> wentry -> a ref =
 fun tv (W w) ->
  assert (w.tv.id = tv.id);
  (Obj.magic w.value : a ref)

let clock = Global_clock.create ()
let global_stats = Stm_stats.create ()

(* Chunked ids; see Tvar_id — one shared atomic op per 1024 tvars. *)
let tvar_ids = Tvar_id.create ()

let make v =
  {
    id = Tvar_id.fresh tvar_ids;
    vlock = Atomic.make 0;
    (* Every slot starts as (0, v): logically "v since version 0"
       repeated, which any snapshot resolves correctly. *)
    versions = Array.make history_depth 0;
    values = Array.make history_depth v;
    head = 0;
  }

let head_value tv = tv.values.(tv.head)

let next_slot h = if h + 1 = history_depth then 0 else h + 1

(* Append (wv, v) over the oldest slot. Caller must hold the vlock. *)
let append_version : type a. a tvar -> int -> a -> unit =
 fun tv wv v ->
  let h = next_slot tv.head in
  tv.versions.(h) <- wv;
  tv.values.(h) <- v;
  tv.head <- h

(* Snapshot read: the newest version no newer than [rv]. The vlock
   sandwich makes the ring access consistent: a committer holds the
   lock (odd) while it mutates the ring, so equal even vlock values
   around the access mean nothing moved. An unlocked vlock IS the
   version of the head slot, so the overwhelmingly common case
   (newest version old enough) needs no ring scan at all: one head
   load, one value load, re-check the vlock. *)
let rec snapshot_read : type a. int -> a tvar -> a =
 fun rv tv ->
  let v1 = Atomic.get tv.vlock in
  if v1 land 1 = 1 then begin
    (* A committer holds the lock; its write will carry a version
       newer than rv, so the pre-lock history suffices — spin briefly
       for the consistent pair. *)
    Domain.cpu_relax ();
    snapshot_read rv tv
  end
  else if v1 <= rv then begin
    let value = tv.values.(tv.head) in
    let v2 = Atomic.get tv.vlock in
    if v1 = v2 then value else snapshot_read rv tv
  end
  else snapshot_scan rv tv v1

(* Slow path: the newest version is too new — scan the ring
   newest-to-oldest for one no newer than [rv]. *)
and snapshot_scan : type a. int -> a tvar -> int -> a =
 fun rv tv v1 ->
  let rec find i =
    if i = history_depth then -1
    else begin
      let idx = tv.head - i in
      let idx = if idx < 0 then idx + history_depth else idx in
      if tv.versions.(idx) <= rv then idx else find (i + 1)
    end
  in
  let idx = find 0 in
  let value = tv.values.(if idx >= 0 then idx else 0) in
  let v2 = Atomic.get tv.vlock in
  if v1 <> v2 then snapshot_read rv tv
  else if idx >= 0 then value
  else raise Conflict (* evicted: every live version is newer than rv *)

let rec update_read : type a. wentry Txdesc.vtx -> a tvar -> a =
 fun tx tv ->
  let v1 = Atomic.get tv.vlock in
  if v1 land 1 = 1 then raise Conflict
  else begin
    let value = head_value tv in
    let v2 = Atomic.get tv.vlock in
    if v1 <> v2 then raise Conflict
    else if v1 > tx.rv then begin
      Txdesc.extend clock ~own_locks:false tx;
      update_read tx tv
    end
    else begin
      if not (Readset.seen tx.rs tv.id) then
        Readset.push tx.rs tv.id tv.vlock v1;
      value
    end
  end

let commit (tx : _ Txdesc.vtx) =
  if Hashtbl.length tx.writes = 0 then
    Stm_stats.record_commit global_stats ~read_only:true
  else begin
    Checkpoint.lock_writes tx.ck;
    (* Same GV4-style advance as Tl2.commit: single CAS attempt after
       the locks; a reused value always validates. *)
    let wv, unique =
      match Global_clock.tick_or_reuse clock with
      | Ticked wv -> (wv, true)
      | Reused wv ->
        Stm_stats.(incr global_stats clock_reuses);
        (wv, false)
    in
    if
      not (unique && wv = tx.rv + 2)
      && not (Readset.valid tx.rs ~own_locks:true tx.writes)
    then begin
      Checkpoint.unlock tx.ck ~from:0;
      raise Conflict
    end;
    Hashtbl.iter (fun _ (W w) -> append_version w.tv wv !(w.value)) tx.writes;
    Checkpoint.publish tx.ck wv;
    Stm_stats.record_commit global_stats ~read_only:false
  end

(* Update transactions use the shared versioned descriptor
   ({!Txdesc.vtx}) over a lazy write buffer and salvage exactly like
   TL2. Snapshot transactions need no descriptor at all: they run in
   the engine's read-only mode, where the read version is all a
   snapshot read consults, and their only conflicts (ring evictions)
   always full-abort. *)
let engine =
  Txdesc.create global_stats
    {
      fresh = Txdesc.fresh_vtx;
      reset = Txdesc.reset_vtx clock;
      commit;
      salvage =
        Txdesc.salvage_vtx global_stats clock ~own_locks:false ~blind:false
          ~restore:Checkpoint.restore_ref;
      rollback = ignore;
      flush = Txdesc.flush_vtx global_stats;
    }

let in_transaction () = Txdesc.in_transaction engine

let read tv =
  let state = Txdesc.state engine in
  match state.active with
  | None -> if state.ro_rv >= 0 then snapshot_read state.ro_rv tv else head_value tv
  | Some tx ->
    if tx.wbloom = 0 then update_read tx tv
    else begin
      let bits = Checkpoint.bloom_bit tv.id in
      if tx.wbloom land bits <> bits then begin
        tx.bloom_skips <- tx.bloom_skips + 1;
        update_read tx tv
      end
      else
        match Hashtbl.find_opt tx.writes tv.id with
        | Some entry -> !(cast_ref tv entry)
        | None -> update_read tx tv
    end

let write tv v =
  let state = Txdesc.state engine in
  match state.active with
  | None when state.ro_rv >= 0 ->
    (* The snapshot stays valid — nothing was mutated — so raising
       here lets the runtime dispatch layer catch the signal and
       re-run the operation as an update transaction (adaptive
       demotion) instead of crashing on a mis-declared profile. *)
    raise Stm_intf.Write_in_read_only
  | None ->
    (* A non-transactional store must still look like a committed
       version: overwriting the head slot in place would let a
       concurrent snapshot reader at [rv >= head version] observe the
       new value under the old timestamp. Take the vlock like a
       committer, draw a fresh write version from the clock, and
       append. *)
    let rec acquire () =
      let cur = Atomic.get tv.vlock in
      if cur land 1 = 1 || not (Atomic.compare_and_set tv.vlock cur (cur + 1))
      then begin
        Domain.cpu_relax ();
        acquire ()
      end
    in
    acquire ();
    let wv = Global_clock.tick clock in
    append_version tv wv v;
    Atomic.set tv.vlock wv
  | Some tx -> (
    match Hashtbl.find_opt tx.writes tv.id with
    | Some entry ->
      let slot = cast_ref tv entry in
      if Checkpoint.armed tx.ck then Checkpoint.save_ref tx.ck slot;
      slot := v
    | None ->
      tx.wbloom <- tx.wbloom lor Checkpoint.bloom_bit tv.id;
      Hashtbl.add tx.writes tv.id (W { tv; value = ref v });
      Checkpoint.log_write tx.ck tv.id tv.vlock ~from:0)

let partial_abort = true

let checkpoint ~acc = Txdesc.checkpoint engine ~acc
let resume () = Txdesc.resume engine
let atomic f = Txdesc.atomic engine f
let now () = Global_clock.now clock

(** Run a read-only transaction against a consistent snapshot: no
    validation, no conflicts with concurrent committers. [f] must not
    call {!write} — doing so raises [Stm_intf.Write_in_read_only]. *)
let atomic_snapshot f = Txdesc.atomic_ro engine ~snapshot:now f

(* Multi-version snapshots are LSA's native read-only mode, so
   [atomic_ro] is the snapshot mode. Unlike TL2 there are no inline
   revalidations: a stale read either resolves from the ring or is a
   [Conflict] (ring eviction), counted as an abort. *)
let atomic_ro f = atomic_snapshot f

let record_ro_demotion () = Stm_stats.(incr global_stats ro_demotions)

let stats () = Stm_stats.snapshot global_stats
let reset_stats () = Stm_stats.reset global_stats
