(* Checkpoint / partial-abort state shared by TL2, LSA update mode and
   ETL: ordered watermarks over the read set, the written-id log and the
   undo journal, plus the resume state a re-run closure consults.

   [wlog] records written tvar ids in first-write order, so a rollback
   to a watermark drops exactly the write entries past it (TL2/LSA's
   buffered writes, ETL's encounter-time locks). Next to each id it
   keeps the tvar's version lock and the version that lock was taken
   at, so locking the write set, releasing it and publishing it are
   the same loops whether a substrate locks at commit (TL2, LSA) or at
   the first write (ETL). The undo journal holds
   (target, saved value) pairs in store order and is replayed in
   reverse. It is two parallel [Obj.t] arrays instead of an array of
   existential records, so pushes and growth doublings allocate no
   per-entry box and slots are reused in place. TL2/LSA journal
   overwrites of their lazy write buffer through [save_ref] /
   [restore_ref] below; ETL journals in-place tvar stores through its
   own pair of helpers. The coercions are justified like [Tl2.cast_ref]:
   target and value are captured together from the same ['a] and only
   ever re-paired at the same index, so the hidden types cannot mix.
   [undo_unset] is an immediate, so the arrays are never
   float-specialized and a cleared slot pins no dead value. *)

type t = {
  mutable mark_reads : int array; (* per mark: read-set watermark *)
  mutable mark_wlog : int array; (* per mark: write-log watermark *)
  mutable mark_undo : int array; (* per mark: undo-journal watermark *)
  mutable mark_acc : int array; (* per mark: caller's accumulator *)
  mutable nmarks : int;
  mutable wlog : int array; (* written tvar ids, first-write order *)
  mutable wvlocks : int Atomic.t array; (* their version locks *)
  mutable wfrom : int array; (* version each lock was taken at *)
  mutable nwlog : int;
  mutable undo_targets : Obj.t array; (* parallel with undo_vals *)
  mutable undo_vals : Obj.t array;
  mutable nundo : int;
  mutable ncheckpoints : int; (* checkpoint calls this attempt (stats) *)
  mutable resume_marks : int; (* marks salvaged by the last partial abort *)
  mutable resume_acc : int; (* accumulator saved with the salvaged mark *)
}

let undo_unset : Obj.t = Obj.repr 0

let create () =
  {
    mark_reads = Array.make 16 0;
    mark_wlog = Array.make 16 0;
    mark_undo = Array.make 16 0;
    mark_acc = Array.make 16 0;
    nmarks = 0;
    wlog = Array.make 16 0;
    wvlocks = Array.make 16 Readset.dummy_vlock;
    wfrom = Array.make 16 0;
    nwlog = 0;
    undo_targets = Array.make 16 undo_unset;
    undo_vals = Array.make 16 undo_unset;
    nundo = 0;
    ncheckpoints = 0;
    resume_marks = 0;
    resume_acc = 0;
  }

(* Whether a rollback to a watermark is possible, i.e. overwrites must
   be journalled. *)
let armed ck = ck.nmarks > 0

(* Record a watermark: read-set size, write-log length, undo length,
   and the caller's accumulator. A no-op with partial abort disabled,
   so full-abort runs pay nothing. *)
let mark ck ~reads ~acc =
  if !Stm_intf.partial_abort_enabled then begin
    let n = ck.nmarks in
    if n = Array.length ck.mark_reads then begin
      let grow a = Array.append a (Array.make n 0) in
      ck.mark_reads <- grow ck.mark_reads;
      ck.mark_wlog <- grow ck.mark_wlog;
      ck.mark_undo <- grow ck.mark_undo;
      ck.mark_acc <- grow ck.mark_acc
    end;
    ck.mark_reads.(n) <- reads;
    ck.mark_wlog.(n) <- ck.nwlog;
    ck.mark_undo.(n) <- ck.nundo;
    ck.mark_acc.(n) <- acc;
    ck.nmarks <- n + 1;
    ck.ncheckpoints <- ck.ncheckpoints + 1
  end

let resume ck = (ck.resume_marks, ck.resume_acc)

(* Log a first write to the tvar [id] guarded by [vlock]; [from] is
   the version its lock was taken at, if it is already held. *)
let log_write ck id vlock ~from =
  let n = ck.nwlog in
  if n = Array.length ck.wlog then begin
    let grow a fill =
      let bigger = Array.make (2 * n) fill in
      Array.blit a 0 bigger 0 n;
      bigger
    in
    ck.wlog <- grow ck.wlog 0;
    ck.wvlocks <- grow ck.wvlocks Readset.dummy_vlock;
    ck.wfrom <- grow ck.wfrom 0
  end;
  ck.wlog.(n) <- id;
  ck.wvlocks.(n) <- vlock;
  ck.wfrom.(n) <- from;
  ck.nwlog <- n + 1

(* Give the locks of entries [lo, hi) back at the versions they were
   taken at, newest first. *)
let unlock_range ck lo hi =
  for j = hi - 1 downto lo do
    Atomic.set ck.wvlocks.(j) ck.wfrom.(j)
  done

(* Give back every lock logged at or past entry [from]. *)
let unlock ck ~from = unlock_range ck from ck.nwlog

(* Commit-time locking (TL2, LSA): take every logged lock; a foreign
   lock or a lost CAS race releases those already taken and
   conflicts. *)
let lock_writes ck =
  for j = 0 to ck.nwlog - 1 do
    let vlock = ck.wvlocks.(j) in
    let v = Atomic.get vlock in
    if v land 1 = 1 || not (Atomic.compare_and_set vlock v (v + 1)) then begin
      unlock_range ck 0 j;
      raise Stm_intf.Conflict
    end;
    ck.wfrom.(j) <- v
  done

(* Release every logged lock at the commit's write version. *)
let publish ck wv =
  for j = 0 to ck.nwlog - 1 do
    Atomic.set ck.wvlocks.(j) wv
  done

let push_undo ck target v =
  if ck.nundo = Array.length ck.undo_targets then begin
    let cap = 2 * ck.nundo in
    let targets = Array.make cap undo_unset in
    let vals = Array.make cap undo_unset in
    Array.blit ck.undo_targets 0 targets 0 ck.nundo;
    Array.blit ck.undo_vals 0 vals 0 ck.nundo;
    ck.undo_targets <- targets;
    ck.undo_vals <- vals
  end;
  ck.undo_targets.(ck.nundo) <- target;
  ck.undo_vals.(ck.nundo) <- v;
  ck.nundo <- ck.nundo + 1

(* Journal the current content of a lazy write-buffer slot. *)
let save_ref ck (slot : 'a ref) = push_undo ck (Obj.repr slot) (Obj.repr !slot)

let restore_ref (slot : Obj.t) (v : Obj.t) = (Obj.obj slot : Obj.t ref) := v

(* Replay the journal in reverse down to [from], clearing the slots. *)
let undo_to ck ~from ~restore =
  for j = ck.nundo - 1 downto from do
    restore ck.undo_targets.(j) ck.undo_vals.(j);
    ck.undo_targets.(j) <- undo_unset;
    ck.undo_vals.(j) <- undo_unset
  done;
  ck.nundo <- from

(* Forget the journal without replaying it (the stores are final or
   were never published), dropping its value references. *)
let clear_undo ck =
  Array.fill ck.undo_targets 0 ck.nundo undo_unset;
  Array.fill ck.undo_vals 0 ck.nundo undo_unset;
  ck.nundo <- 0

(* Two bit positions in a 63-bit word, derived from a multiplicative
   hash so the sequential tvar ids spread; membership test is
   [bloom land bits = bits]. Every substrate screens its write set with
   one such word before probing the table in [read]. *)
let bloom_bit id =
  let h = id * 0x9E3779B9 in
  (1 lsl (h land 31)) lor (1 lsl (31 + ((h lsr 5) land 31)))

(* The write bloom of the written ids still logged. *)
let written_bloom ck =
  let bloom = ref 0 in
  for j = 0 to ck.nwlog - 1 do
    bloom := !bloom lor bloom_bit ck.wlog.(j)
  done;
  !bloom

(* Conflict with live checkpoints: find the longest valid read-set
   prefix, roll back to the newest watermark inside it, and return the
   read version the attempt resumes at; [-1] means fall back to a full
   abort. The clock is sampled BEFORE validating (TinySTM's extend
   ordering): a commit that lands after the sample is newer than the
   returned version and will be caught by the per-read rv check later.

   Rolling back restores the journal suffix first — it covers both the
   dropped entries and post-mark overwrites of retained ones — THEN
   releases the locks of the write entries logged past the mark (the
   content must be restored before a vlock goes even) and [drop]s
   their ids, and truncates the read set. [own_locks] is whether the
   substrate holds the locks of its logged writes here (ETL; TL2/LSA
   release theirs before any [Conflict] escapes [commit]); [blind]
   skips the prefix validation and takes the newest mark (a seeded bug,
   see [Tl2.Unsafe]). *)
let salvage ck rs stats ~clock ~writes ~own_locks ~blind ~restore ~drop =
  if ck.nmarks = 0 || not !Stm_intf.partial_abort_enabled then -1
  else begin
    let now = Global_clock.now clock in
    let mark =
      if blind then ck.nmarks - 1
      else begin
        let p = Readset.valid_prefix rs ~own_locks writes in
        let m = ref (ck.nmarks - 1) in
        while !m >= 0 && ck.mark_reads.(!m) > p do
          decr m
        done;
        !m
      end
    in
    if mark < 0 then begin
      Stm_stats.(incr stats resume_failures);
      -1
    end
    else begin
      undo_to ck ~from:ck.mark_undo.(mark) ~restore;
      if own_locks then unlock ck ~from:ck.mark_wlog.(mark);
      for j = ck.nwlog - 1 downto ck.mark_wlog.(mark) do
        drop ck.wlog.(j)
      done;
      ck.nwlog <- ck.mark_wlog.(mark);
      Readset.truncate rs ck.mark_reads.(mark);
      ck.nmarks <- mark + 1;
      ck.resume_marks <- mark + 1;
      ck.resume_acc <- ck.mark_acc.(mark);
      Stm_stats.record_partial_abort stats
        ~reads_salvaged:(Readset.length rs);
      now
    end
  end

let reset ck =
  ck.nmarks <- 0;
  ck.nwlog <- 0;
  clear_undo ck;
  ck.ncheckpoints <- 0;
  ck.resume_marks <- 0;
  ck.resume_acc <- 0
