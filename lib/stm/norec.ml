(* A NOrec-style software transactional memory (Dalessandro, Spear,
   Scott, PPoPP'10 — "NOrec: streamlining STM by abolishing ownership
   records"; see also the Manticore/Chapel NOrec exemplars referenced
   in SNIPPETS.md §1–2).

   The design is the polar opposite of {!Tl2}'s per-tvar metadata:
   - tvars carry NO version word and NO lock — just an id (for the
     write-set hash/bloom) and the mutable content;
   - consistency comes from a single global sequence lock: even =
     stable, odd = a committer is in its write-back window;
   - the read log stores (tvar, observed value) pairs and is
     revalidated BY VALUE whenever the sequence lock is observed to
     have moved — a transaction whose every logged value is still the
     current content may advance its read version instead of aborting
     (value-based validation admits ABA, which is exactly NOrec's
     semantics: if the values match, the new snapshot is
     indistinguishable);
   - commit serializes writers through the sequence lock: CAS rv ->
     rv+1, write back in place, release at rv+2. Read-only
     transactions commit without touching the lock at all.

   The zero-metadata reads make uncontended short transactions and
   read-dominated phases cheaper than TL2 (no vlock sandwich, one
   global load per read), at the price of serialized writers and
   whole-log revalidation on every clock movement — the trade the
   tournament runtime exploits per phase.

   Partial abort is not supported ([partial_abort = false]): a NOrec
   read log has no per-entry version to validate a prefix against —
   value-based prefix validation cannot distinguish "still valid at
   the old snapshot" from "valid again at a newer one", which is fine
   for whole-transaction extension but breaks the checkpoint
   contract's monotonic read-version story. Checkpoints are accepted
   as no-ops and [resume] always reports a fresh attempt.

   Memory-model note: tvar contents are plain mutable fields, read
   concurrently with a committer's in-place write-back. Such races are
   memory-safe in OCaml (no tearing); the acquire/release ordering of
   the [Atomic] sequence-lock operations around write-back and the
   re-check of the lock after every content read ensure a reader
   either observes a value consistent with its read version or
   revalidates. *)

exception Conflict = Stm_intf.Conflict

let name = "norec"

type 'a tvar = {
  id : int; (* unique; identity witness for the typed-log coercion *)
  mutable content : 'a;
}

(* The global sequence lock. Even values are snapshot timestamps; a
   committer holds the lock by CASing rv -> rv+1 and releases it at
   rv+2. Padded: every read samples it and every commit CASes it. *)
let seqlock = Padded_atomic.make 0

let global_stats = Stm_stats.create ()
let tvar_ids = Tvar_id.create ()
let make v = { id = Tvar_id.fresh tvar_ids; content = v }

(* The read log is two parallel [Obj.t] arrays (structure-of-arrays) —
   the tvar and the value observed — instead of an array of existential
   {tv; seen} records: a push writes two slots and allocates nothing,
   and the GC marks two flat arrays per log instead of one record per
   logged read. The coercions carry the same justification the
   existential did: tvar and value are captured together from the same
   ['a] and only ever re-paired at the same index, and validation is a
   physical-equality check that never inspects the payload.
   [read_unset] is an immediate, so the arrays are never
   float-specialized and cleared slots pin nothing. *)
let read_unset : Obj.t = Obj.repr 0

let read_capture_tv : 'a tvar -> Obj.t = fun tv -> Obj.repr tv
let read_capture_val : 'a -> Obj.t = fun v -> Obj.repr v

let read_still_current (tv : Obj.t) (seen : Obj.t) =
  (Obj.obj tv : Obj.t tvar).content == seen

(* A buffered write. The payload type is recovered in [cast_ref],
   justified by the uniqueness of tvar ids: equal ids imply physical
   equality of the tvars and hence equality of the hidden types (same
   argument as {!Tl2.cast_ref}; documented in DESIGN.md §3). *)
type wentry = W : { tv : 'a tvar; value : 'a ref } -> wentry

let cast_ref : type a. a tvar -> wentry -> a ref =
 fun tv (W w) ->
  assert (w.tv.id = tv.id);
  (Obj.magic w.value : a ref)

type tx = {
  mutable rv : int; (* sequence-lock value this snapshot is valid at *)
  mutable read_tvs : Obj.t array; (* parallel with read_seen *)
  mutable read_seen : Obj.t array;
  mutable nreads : int;
  writes : (int, wentry) Hashtbl.t;
  mutable wbloom : int; (* word-sized bloom over buffered tvar ids *)
  mutable validation_steps : int;
  mutable bloom_skips : int;
  mutable extensions : int; (* value revalidations that advanced rv *)
}

let initial_reads = 64

(* Seeded-bug fixture for the sanitizer (docs/SANITIZER.md): when set,
   the value-list revalidation that NOrec owes every observed clock
   change is skipped — the transaction silently adopts the new
   timestamp, so later reads see post-snapshot state next to
   pre-snapshot reads, and commits land on inconsistent read sets.
   The opacity checker must flag the non-repeatable reads this
   produces; never set outside sanitizer fixtures. *)
module Unsafe = struct
  let skip_revalidation = ref false
  let disable_revalidation () = skip_revalidation := true
  let reset () = skip_revalidation := false
end

let rec wait_even () =
  let t = Padded_atomic.get seqlock in
  if t land 1 = 1 then begin
    Domain.cpu_relax ();
    wait_even ()
  end
  else t

(* Value-based validation: wait out any in-flight write-back, check
   every logged value is still the current content, and confirm the
   lock did not move during the pass (a moved lock means a committer
   overlapped the scan — rescan at its timestamp). Returns the
   timestamp the log is valid at; raises [Conflict] on a changed
   value. ABA (a value changed and changed back) passes by design. *)
let rec validate tx =
  let time = wait_even () in
  if !Unsafe.skip_revalidation then time
  else begin
    let ok = ref true in
    let i = ref 0 in
    while !ok && !i < tx.nreads do
      if not (read_still_current tx.read_tvs.(!i) tx.read_seen.(!i)) then
        ok := false;
      incr i
    done;
    tx.validation_steps <- tx.validation_steps + !i;
    if not !ok then raise Conflict
    else if Padded_atomic.get seqlock <> time then validate tx
    else time
  end

let log_value tx tv_r seen_r =
  let n = tx.nreads in
  if n = Array.length tx.read_tvs then begin
    let cap = 2 * n in
    let tvs = Array.make cap read_unset in
    let seen = Array.make cap read_unset in
    Array.blit tx.read_tvs 0 tvs 0 n;
    Array.blit tx.read_seen 0 seen 0 n;
    tx.read_tvs <- tvs;
    tx.read_seen <- seen
  end;
  tx.read_tvs.(n) <- tv_r;
  tx.read_seen.(n) <- seen_r;
  tx.nreads <- n + 1

(* The NOrec read protocol: read the content, and as long as the
   sequence lock has moved since [rv], revalidate the whole log (which
   advances [rv] on success) and re-read. The post-read lock check is
   what makes the (value, timestamp) pair consistent. *)
let tx_read : type a. tx -> a tvar -> a =
 fun tx tv ->
  let v = ref tv.content in
  while Padded_atomic.get seqlock <> tx.rv do
    let time = validate tx in
    tx.rv <- time;
    tx.extensions <- tx.extensions + 1;
    v := tv.content
  done;
  log_value tx (read_capture_tv tv) (read_capture_val !v);
  !v

(* Zero-log read-only read: no log is kept, so a moved sequence lock
   cannot be revalidated — restart the closure at a fresh snapshot
   instead (counted as [ro_inline_revalidations]). Uncontended
   read-only work thus costs ONE global load per read and nothing at
   commit: NOrec's best case. *)
let ro_read : type a. int -> a tvar -> a =
 fun rv tv ->
  let v = tv.content in
  if Padded_atomic.get seqlock <> rv then raise Txdesc.Ro_restart else v

(* Writer commit: acquire the sequence lock at exactly [rv] (so the
   snapshot is known intact), write back in place, release two ticks
   up. A lost CAS means somebody committed since [rv]: revalidate (by
   value) to advance [rv] and try again — the only abort is a changed
   value. Read-only update-mode transactions (empty write set) are
   already serializable at [rv] and commit for free. *)
let commit tx =
  if Hashtbl.length tx.writes = 0 then
    Stm_stats.record_commit global_stats ~read_only:true
  else begin
    while not (Padded_atomic.compare_and_set seqlock tx.rv (tx.rv + 1)) do
      let time = validate tx in
      tx.rv <- time
    done;
    Hashtbl.iter (fun _ (W w) -> w.tv.content <- !(w.value)) tx.writes;
    Padded_atomic.set seqlock (tx.rv + 2);
    Stm_stats.record_commit global_stats ~read_only:false
  end

let reset_tx tx =
  tx.rv <- wait_even ();
  (* Drop value references so the descriptor pins nothing dead. *)
  Array.fill tx.read_tvs 0 tx.nreads read_unset;
  Array.fill tx.read_seen 0 tx.nreads read_unset;
  tx.nreads <- 0;
  Hashtbl.reset tx.writes;
  tx.wbloom <- 0;
  tx.validation_steps <- 0;
  tx.bloom_skips <- 0;
  tx.extensions <- 0;
  (* Shrink a read log that ballooned in a previous long transaction so
     per-op memory stays bounded. *)
  if Array.length tx.read_tvs > 1 lsl 16 then begin
    tx.read_tvs <- Array.make initial_reads read_unset;
    tx.read_seen <- Array.make initial_reads read_unset
  end

(* No partial abort (see the module comment): every conflict restarts
   the attempt, and the write buffer was never published, so there is
   nothing to roll back. *)
let engine =
  Txdesc.create global_stats
    {
      fresh =
        (fun () ->
          {
            rv = 0;
            read_tvs = Array.make initial_reads read_unset;
            read_seen = Array.make initial_reads read_unset;
            nreads = 0;
            writes = Hashtbl.create 64;
            wbloom = 0;
            validation_steps = 0;
            bloom_skips = 0;
            extensions = 0;
          });
      scrub =
        (fun tx ->
          Hashtbl.reset tx.writes;
          Array.fill tx.read_tvs 0 (Array.length tx.read_tvs) read_unset;
          Array.fill tx.read_seen 0 (Array.length tx.read_seen) read_unset;
          tx.nreads <- 0;
          tx.wbloom <- 0);
      reset = reset_tx;
      commit;
      salvage = (fun _ -> false);
      rollback = ignore;
      flush =
        (fun tx ->
          let s = Stm_stats.shard global_stats in
          Stm_stats.(
            bump s validation_steps tx.validation_steps;
            record_read_set s ~size:tx.nreads;
            bump s bloom_skips tx.bloom_skips;
            bump s extensions tx.extensions));
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
    | Some entry -> cast_ref tv entry := v
    | None ->
      tx.wbloom <- tx.wbloom lor Checkpoint.bloom_bit tv.id;
      Hashtbl.add tx.writes tv.id (W { tv; value = ref v }))

(* No partial abort: a value-based read log has no per-entry version,
   so a prefix cannot be revalidated against a monotonic read version
   the way the checkpoint contract requires (see module comment). *)
let partial_abort = false
let checkpoint ~acc:_ = ()
let resume () = (0, 0)

let atomic f = Txdesc.atomic engine f
let atomic_ro f = Txdesc.atomic_ro engine ~snapshot:wait_even f
let record_ro_demotion () = Stm_stats.(incr global_stats ro_demotions)

let stats () = Stm_stats.snapshot global_stats
let reset_stats () = Stm_stats.reset global_stats
