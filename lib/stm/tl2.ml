(* A TL2-style software transactional memory (Dice, Shalev, Shavit,
   DISC'06 — reference [5] of the STMBench7 paper).

   Design points, all of which contrast with {!Astm} and make this the
   "fixed" STM the paper says was already proposed at the time:
   - a global version clock gives every read a consistency check in
     O(1), so transactions never act on inconsistent state (opacity)
     and read-only transactions commit without any validation pass;
   - writes are buffered (lazy versioning) and acquire per-tvar
     versioned locks only at commit;
   - commit-time read-set validation is a single O(k) pass.

   Timestamp extension (TinySTM-style): when a read observes a version
   newer than the transaction's read version [rv], the whole read set is
   revalidated against the current clock and, if intact, [rv] advances
   instead of aborting.

   Read-only mode ([atomic_ro]): TL2's observation that a read-only
   transaction needs no read set at all. Each read is just the vlock
   sandwich plus a [version <= rv] check; nothing is logged, commit is
   a counter bump (no validation pass, no clock CAS). A read that
   post-dates the snapshot restarts the closure at a re-snapshotted rv
   (counted as [ro_inline_revalidations]); a [write] raises
   [Stm_intf.Write_in_read_only] for the runtime layer to demote the
   operation to update mode.

   Log-management fast paths, implemented once in {!Readset} and
   {!Checkpoint} and shared with LSA and ETL (see docs/PERF.md; the
   paper's §5 thesis is that exactly this bookkeeping decides whether an
   STM "behaves like medium-grained locking" on long traversals):
   - read-set dedup: a per-transaction direct-mapped (id -> seen) cache
     makes re-reading an already-logged tvar O(1) with no duplicate
     entry, so validation and extension stay O(distinct tvars) instead
     of O(raw reads);
   - write-set bloom: a word-sized bloom filter over buffered tvar ids
     is consulted before the write-set hash probe in [read], so
     read-mostly transactions that buffered one write stop paying a
     [Hashtbl] lookup per read;
   - commit clock: a single CAS attempt (GV4 "pass on failure") instead
     of a fetch-and-add, reusing a concurrent committer's clock value
     when the race is lost.

   Memory-model note: tvar contents are plain mutable fields and are
   read concurrently with commit-time write-back. The OCaml memory model
   guarantees such races are memory-safe (no tearing); the sandwich of
   [Atomic] reads of the versioned lock around each content read, plus
   release/acquire ordering of [Atomic] operations, ensures a reader
   either observes a consistent (version, value) pair or aborts. *)

exception Conflict = Stm_intf.Conflict

let name = "tl2"

type 'a tvar = {
  id : int; (* unique; identity witness for the typed-log coercion *)
  vlock : int Atomic.t; (* even = version, odd = locked (version+1) *)
  mutable content : 'a;
}

(* A buffered write. The payload type is existentially quantified; it is
   recovered in [cast_ref], justified by the uniqueness of tvar ids:
   equal ids imply physical equality of the tvars and hence equality of
   the hidden types. Every [Obj] use in this module is allowlisted
   per-binding by lint rule R5 (see lib/analysis/lint_config.ml). *)
type wentry = W : { tv : 'a tvar; value : 'a ref } -> wentry

let cast_ref : type a. a tvar -> wentry -> a ref =
 fun tv (W w) ->
  assert (w.tv.id = tv.id);
  (Obj.magic w.value : a ref)

let clock = Global_clock.create ()
let global_stats = Stm_stats.create ()

(* Chunked ids: one shared atomic op per 1024 tvars instead of a global
   fetch-and-add on every [make]. Per-allocator uniqueness is all the
   dedup cache / bloom filter need. *)
let tvar_ids = Tvar_id.create ()

let make v = { id = Tvar_id.fresh tvar_ids; vlock = Atomic.make 0; content = v }

(* Seeded-bug fixture for the sanitizer (docs/SANITIZER.md): when set,
   read-set validation is skipped at commit AND during timestamp
   extension, so transactions commit on top of — and expose to later
   reads within the same transaction — inconsistent snapshots. The
   opacity checker must flag the lost updates and stale reads this
   produces; never set outside sanitizer fixtures. *)
module Unsafe = struct
  let no_validation = ref false
  let disable_validation () = no_validation := true

  (* Second seeded fixture: partial aborts salvage the newest watermark
     blindly, skipping the read-set prefix validation, so a resumed
     attempt continues on top of a snapshot a concurrent committer
     already invalidated. The opacity checker must flag the resulting
     stale reads; never set outside sanitizer fixtures. *)
  let unvalidated_resume = ref false
  let disable_resume_validation () = unvalidated_resume := true

  let reset () =
    no_validation := false;
    unvalidated_resume := false
end

(* The read observed a version newer than [rv]: try to extend [rv] to
   the current clock instead of aborting. No commit lock is held
   outside [commit], so the read set is checked without own locks. *)
let extend (tx : _ Txdesc.vtx) =
  if !Unsafe.no_validation then begin
    tx.rv <- Global_clock.now clock;
    tx.extensions <- tx.extensions + 1
  end
  else Txdesc.extend clock ~own_locks:false tx

let rec tx_read : type a. wentry Txdesc.vtx -> a tvar -> a =
 fun tx tv ->
  let v1 = Atomic.get tv.vlock in
  if v1 land 1 = 1 then raise Conflict
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

(* A zero-log read: the vlock sandwich plus a [version <= rv] check.
   Nothing is logged — a read-only transaction whose every read
   satisfies the check is serializable at its read version, with no
   commit-time validation and no clock CAS (TL2's read-only mode). A
   locked vlock is a committer in its (short) write-back window, so
   spin rather than restart the whole closure. *)
let rec ro_read : type a. int -> a tvar -> a =
 fun rv tv ->
  let v1 = Atomic.get tv.vlock in
  if v1 land 1 = 1 then begin
    Domain.cpu_relax ();
    ro_read rv tv
  end
  else begin
    let value = tv.content in
    let v2 = Atomic.get tv.vlock in
    if v1 <> v2 then ro_read rv tv
    else if v1 > rv then raise Txdesc.Ro_restart
    else value
  end

let commit (tx : _ Txdesc.vtx) =
  if Hashtbl.length tx.writes = 0 then
    Stm_stats.record_commit global_stats ~read_only:true
  else begin
    Checkpoint.lock_writes tx.ck;
    (* Clock advance after the locks (required by [tick_or_reuse]'s
       contract): one CAS attempt; on failure adopt the concurrent
       committer's value. A reused value forfeits the "nothing
       committed since rv" shortcut below — the interleaved tick WAS a
       commit. *)
    let wv, unique =
      match Global_clock.tick_or_reuse clock with
      | Ticked wv -> (wv, true)
      | Reused wv ->
        Stm_stats.(incr global_stats clock_reuses);
        (wv, false)
    in
    (* If nothing committed since we started, the read set is trivially
       intact (standard TL2 optimization). Entries we hold the commit
       lock on appear as [version + 1]. *)
    if
      (not !Unsafe.no_validation)
      && not (unique && wv = tx.rv + 2)
      && not (Readset.valid tx.rs ~own_locks:true tx.writes)
    then begin
      Checkpoint.unlock tx.ck ~from:0;
      raise Conflict
    end;
    Hashtbl.iter (fun _ (W w) -> w.tv.content <- !(w.value)) tx.writes;
    Checkpoint.publish tx.ck wv;
    Stm_stats.record_commit global_stats ~read_only:false
  end

(* TL2's descriptor is the shared versioned one ({!Txdesc.vtx}) over
   its lazy write buffer. *)
let engine =
  Txdesc.create global_stats
    {
      fresh = Txdesc.fresh_vtx;
      reset = Txdesc.reset_vtx clock;
      commit;
      (* No commit locks are held at a conflict: every [Conflict] raise
         site in [commit] releases them first. *)
      salvage =
        (fun tx ->
          Txdesc.salvage_vtx global_stats clock ~own_locks:false
            ~blind:!Unsafe.unvalidated_resume ~restore:Checkpoint.restore_ref
            tx);
      (* The write buffer was never published: discarding it at the
         next [reset] is the whole rollback. *)
      rollback = ignore;
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
        (* Definitely never buffered: skip the hash probe. *)
        tx.bloom_skips <- tx.bloom_skips + 1;
        tx_read tx tv
      end
      else
        match Hashtbl.find_opt tx.writes tv.id with
        | Some entry -> !(cast_ref tv entry)
        | None -> tx_read tx tv (* bloom false positive *)
    end

let write tv v =
  let state = Txdesc.state engine in
  match state.active with
  | None ->
    if state.ro_rv >= 0 then raise Stm_intf.Write_in_read_only
    else tv.content <- v
  | Some tx -> (
    match Hashtbl.find_opt tx.writes tv.id with
    | Some entry ->
      let slot = cast_ref tv entry in
      (* With live checkpoints, save the overwritten buffer value so a
         rollback to an earlier watermark can restore it. *)
      if Checkpoint.armed tx.ck then Checkpoint.save_ref tx.ck slot;
      slot := v
    | None ->
      tx.wbloom <- tx.wbloom lor Checkpoint.bloom_bit tv.id;
      Hashtbl.add tx.writes tv.id (W { tv; value = ref v });
      (* Insertion-order log: lets a partial abort drop exactly the
         entries buffered past a watermark, and [commit] lock them. *)
      Checkpoint.log_write tx.ck tv.id tv.vlock ~from:0)

let partial_abort = true

let checkpoint ~acc = Txdesc.checkpoint engine ~acc
let resume () = Txdesc.resume engine
let atomic f = Txdesc.atomic engine f
let now () = Global_clock.now clock
let atomic_ro f = Txdesc.atomic_ro engine ~snapshot:now f
let record_ro_demotion () = Stm_stats.(incr global_stats ro_demotions)

let stats () = Stm_stats.snapshot global_stats
let reset_stats () = Stm_stats.reset global_stats
