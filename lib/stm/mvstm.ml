(* The lazy-versioning, commit-time-locking STM behind TL2 and LSA: one
   implementation, instantiated once per substrate with the number of
   versions a tvar keeps. TL2 (Dice, Shalev, Shavit, DISC'06 —
   reference [5] of the STMBench7 paper) is the one-version instance;
   LSA (Riegel, Felber, Fetzer, DISC'06 — reference [11]) the
   four-version one. Both are the "solutions already proposed" the
   paper sets against ASTM's pathologies (see {!Astm} for the
   contrast):
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

   Versions: every tvar keeps its newest value in [content], under its
   vlock. A multi-version tvar also keeps its older versions in a ring
   of [history_depth - 1] slots (two flat parallel arrays plus a head
   index): a commit pushes the version it replaces into the ring, over
   the oldest slot, with no allocation. The update path never looks at
   the ring; only read-only transactions do.

   Read-only mode ([atomic_ro]): a read-only transaction needs no read
   set at all. Each read is the vlock sandwich plus a [version <= rv]
   check; nothing is logged, commit is a counter bump (no validation
   pass, no clock CAS). When [content] post-dates the snapshot, a
   one-version tvar restarts the closure at a re-snapshotted rv
   (counted as [ro_inline_revalidations]), while a multi-version tvar
   serves the read from its ring — LSA's snapshot, which never
   conflicts with writers and aborts only when the needed version was
   evicted (a [Conflict], counted as an abort). A [write] raises
   [Stm_intf.Write_in_read_only] for the runtime layer to demote the
   operation to update mode.

   Log-management fast paths, implemented once in {!Readset} and
   {!Checkpoint} and shared with ETL (see docs/PERF.md; the paper's §5
   thesis is that exactly this bookkeeping decides whether an STM
   "behaves like medium-grained locking" on long traversals):
   - read-set dedup: a per-transaction direct-mapped (id -> seen) cache
     makes re-reading an already-logged tvar O(1) with no duplicate
     entry, so validation and extension stay O(distinct tvars) instead
     of O(raw reads);
   - write-set bloom: a word-sized bloom filter over buffered tvar ids
     is consulted before the write-set hash probe in [read], so
     read-mostly transactions that buffered one write stop paying a
     [Hashtbl] lookup per read;
   - commit clock: {!Txdesc.commit_version}'s single CAS attempt (GV4
     "pass on failure") instead of a fetch-and-add.

   The instances differ only in values (a name and a history depth), so
   [Make] takes no function: the build has no flambda, and a call to a
   functor parameter's function would not be a direct call, while calls
   between the functions of one functor body are.

   Memory-model note: tvar contents are plain mutable fields and are
   read concurrently with commit-time write-back. The OCaml memory model
   guarantees such races are memory-safe (no tearing); the sandwich of
   [Atomic] reads of the versioned lock around each content read, plus
   release/acquire ordering of [Atomic] operations, ensures a reader
   either observes a consistent (version, value) pair or aborts. *)

exception Conflict = Stm_intf.Conflict

type 'a tvar = {
  id : int; (* unique; identity witness for the typed-log coercion *)
  vlock : int Atomic.t; (* even = version of [content], odd = locked *)
  mutable content : 'a; (* the newest value *)
  versions : int array; (* older versions: a ring parallel to [values] *)
  values : 'a array; (* empty in a one-version tvar *)
  mutable head : int; (* ring index of the newest older version *)
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

(* Publish [v] as the newest value; a multi-version tvar first pushes
   the version it replaces into its ring, over the oldest slot. The
   caller holds the vlock, so it reads [version + 1]. *)
let publish : type a. a tvar -> a -> unit =
 fun tv v ->
  let n = Array.length tv.versions in
  if n > 0 then begin
    let h = if tv.head + 1 = n then 0 else tv.head + 1 in
    tv.versions.(h) <- Atomic.get tv.vlock - 1;
    tv.values.(h) <- tv.content;
    tv.head <- h
  end;
  tv.content <- v

(* Spin until the vlock is ours (a non-transactional versioned store). *)
let rec lock tv =
  let cur = Atomic.get tv.vlock in
  if cur land 1 = 1 || not (Atomic.compare_and_set tv.vlock cur (cur + 1))
  then begin
    Domain.cpu_relax ();
    lock tv
  end

(* The ring slot [i] steps older than the newest holding a version no
   newer than [rv], or -1. A linear scan: the ring is short enough that
   binary search would not pay for itself. *)
let rec ring_find versions head rv i =
  let n = Array.length versions in
  if i = n then -1
  else begin
    let idx = if head - i < 0 then head - i + n else head - i in
    if versions.(idx) <= rv then idx else ring_find versions head rv (i + 1)
  end

(* A zero-log read at [rv]: the vlock sandwich plus a [version <= rv]
   check. Nothing is logged — a read-only transaction whose every read
   satisfies the check is serializable at its read version, with no
   commit-time validation and no clock CAS. A locked vlock is a
   committer in its (short) write-back window, whose write will carry a
   version newer than rv, so spin rather than restart the closure. *)
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
    else if v1 <= rv then value
    else if Array.length tv.versions = 0 then raise Txdesc.Ro_restart
    else past_read rv tv v1
  end

(* [content] (at version [v1]) post-dates the snapshot: the newest
   older version no newer than [rv]. Equal even vlock values around the
   ring access mean no committer moved it. *)
and past_read : type a. int -> a tvar -> int -> a =
 fun rv tv v1 ->
  let idx = ring_find tv.versions tv.head rv 0 in
  let value = tv.values.(if idx >= 0 then idx else 0) in
  let v2 = Atomic.get tv.vlock in
  if v1 <> v2 then ro_read rv tv
  else if idx >= 0 then value
  else raise Conflict (* evicted: every kept version is newer than rv *)

module Make (P : sig
  val name : string

  (** Versions a tvar keeps, the newest included: 1 for TL2. A
      snapshot that needs an older one aborts. *)
  val history_depth : int
end) =
struct
  let name = P.name

  type nonrec 'a tvar = 'a tvar

  let clock = Global_clock.create ()
  let global_stats = Stm_stats.create ()

  (* Chunked ids: one shared atomic op per 1024 tvars instead of a
     global fetch-and-add on every [make]. Per-allocator uniqueness is
     all the dedup cache / bloom filter need. *)
  let tvar_ids = Tvar_id.create ()

  let older = P.history_depth - 1

  (* Every older slot starts as (0, v): logically "v since version 0"
     repeated, which any snapshot resolves correctly. A one-version
     tvar shares the empty arrays, at no allocation and no C call. *)
  let make v =
    {
      id = Tvar_id.fresh tvar_ids;
      vlock = Atomic.make 0;
      content = v;
      versions = (if older = 0 then [||] else Array.make older 0);
      values = (if older = 0 then [||] else Array.make older v);
      head = 0;
    }

  (* Seeded-bug fixtures for the sanitizer (docs/SANITIZER.md), armed
     only through TL2's interface; never set outside sanitizer
     fixtures. *)
  module Unsafe = struct
    (* Read-set validation is skipped at commit AND during timestamp
       extension, so transactions commit on top of — and expose to
       later reads within the same transaction — inconsistent
       snapshots. The opacity checker must flag the lost updates and
       stale reads this produces. *)
    let no_validation = ref false
    let disable_validation () = no_validation := true

    (* Partial aborts salvage the newest watermark blindly, skipping the
       read-set prefix validation, so a resumed attempt continues on top
       of a snapshot a concurrent committer already invalidated. The
       opacity checker must flag the resulting stale reads. *)
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

  let commit (tx : _ Txdesc.vtx) =
    if Hashtbl.length tx.writes = 0 then
      Stm_stats.record_commit global_stats ~read_only:true
    else begin
      Checkpoint.lock_writes tx.ck;
      let wv =
        Txdesc.commit_version global_stats clock ~blind:!Unsafe.no_validation
          tx
      in
      if wv < 0 then begin
        Checkpoint.unlock tx.ck ~from:0;
        raise Conflict
      end;
      Hashtbl.iter (fun _ (W w) -> publish w.tv !(w.value)) tx.writes;
      Checkpoint.publish tx.ck wv;
      Stm_stats.record_commit global_stats ~read_only:false
    end

  (* The descriptor is the shared versioned one ({!Txdesc.vtx}) over a
     lazy write buffer. Read-only transactions need no descriptor at
     all: they run in the engine's read-only mode, where the read
     version is all a read consults. *)
  let engine =
    Txdesc.create global_stats
      {
        fresh = Txdesc.fresh_vtx;
        reset = Txdesc.reset_vtx clock;
        commit;
        (* No commit locks are held at a conflict: every [Conflict]
           raise site in [commit] releases them first. *)
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
      else if Array.length tv.versions = 0 then tv.content <- v
      else begin
        (* A non-transactional store into a multi-version tvar must
           still look like a committed version: overwriting [content]
           in place would let a concurrent snapshot reader at
           [rv >= its version] observe the new value under the old
           timestamp. Take the vlock like a committer, draw a fresh
           write version from the clock, and publish. *)
        lock tv;
        let wv = Global_clock.tick clock in
        publish tv v;
        Atomic.set tv.vlock wv
      end
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
end
