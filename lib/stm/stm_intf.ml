(** Common interface implemented by every STM in this library. *)

(** Raised internally when a transaction detects a conflict and must be
    retried. [atomic] catches it; user code should never see it escape,
    and must not catch it. *)
exception Conflict

(** Raised by [write] when called inside a read-only transaction
    ([atomic_ro]). The dispatch layer in [lib/runtime] catches it,
    records a demotion for the offending operation, and re-runs the
    closure as an update transaction — user code should neither raise
    nor catch it. The closure must be safe to re-run (same requirement
    [atomic]'s conflict retry already imposes). *)
exception Write_in_read_only

(** Master switch for checkpointed partial abort, shared by the
    substrates that implement it (TL2, LSA, ETL). On by default; the
    bench harness flips it off to measure the full-abort baseline on the
    same binary. Read once per conflict, so flipping it mid-transaction is
    harmless (the next conflict sees the new value). *)
let partial_abort_enabled = ref true

(** Master switch for descriptor pooling: when on (the default), a
    domain's first transaction tries to adopt a scrubbed descriptor from
    the substrate's free pool (donated by exited domains) before
    allocating a fresh one, and returns it on domain exit. Off means
    every domain allocates fresh and the pool is bypassed — the bench
    harness flips it to measure the allocation ablation on the same
    binary. Consulted only at descriptor acquisition (a domain's first
    transaction on a substrate), so flipping it mid-run only affects
    domains spawned afterwards. *)
let descriptor_pooling_enabled = ref true

module type S = sig
  val name : string

  (** A transactional variable: the unit of conflict detection. *)
  type 'a tvar

  val make : 'a -> 'a tvar

  (** [read tv] inside a transaction records the read for conflict
      detection. Outside any transaction it is an unsynchronized direct
      read (meant for single-threaded setup and inspection). *)
  val read : 'a tvar -> 'a

  (** [write tv v] inside a transaction buffers or acquires the write.
      Outside any transaction it is an unsynchronized direct store. *)
  val write : 'a tvar -> 'a -> unit

  (** [atomic f] runs [f] as a transaction, retrying on conflict until
      it commits. Exceptions raised by [f] abort the transaction
      (rolling back any writes) and propagate, after the read set has
      been validated — an exception raised from an inconsistent view is
      treated as a conflict and retried instead. Nested calls flatten
      into the enclosing transaction. *)
  val atomic : (unit -> 'a) -> 'a

  (** [atomic_ro f] runs [f] as a read-only transaction. Reads are
      guaranteed a consistent snapshot; [write] raises
      {!Write_in_read_only} (the transaction context stays valid — the
      caller is expected to fall back to [atomic]). Implementations may
      restart [f] internally (TL2 re-snapshots its read version), so
      [f] must tolerate re-execution, exactly as under [atomic]. A
      nested [atomic] call inside [atomic_ro] flattens into the
      read-only transaction: its writes raise too, so a mis-declared
      operation cannot smuggle updates through an inner transaction. *)
  val atomic_ro : (unit -> 'a) -> 'a

  val in_transaction : unit -> bool

  (** Whether this STM supports checkpointed partial abort. When
      [false], [checkpoint] is a no-op and [resume] always returns
      [(0, 0)]: callers keep full-abort semantics unchanged. *)
  val partial_abort : bool

  (** [checkpoint ~acc] records a watermark over the ordered read set
      (and the write log) together with the caller's integer
      accumulator [acc]. On a later conflict the transaction validates
      the read-set prefix, rolls back only past the last valid
      watermark, re-extends its read version and re-runs the closure —
      which must consult {!resume} to skip the salvaged work. A no-op
      outside a transaction, in read-only mode, or when the substrate
      lacks the capability. *)
  val checkpoint : acc:int -> unit

  (** [resume ()] is an idempotent query of the current attempt's
      resume state: [(marks, acc)] where [marks] is the number of
      checkpoints salvaged by a partial abort ([0] on a fresh attempt —
      run from the start) and [acc] the accumulator saved with the last
      salvaged watermark. Closures driven through [checkpoint] must
      call this on entry and skip their first [marks] checkpointed
      units. *)
  val resume : unit -> int * int

  (** Hook for the runtime dispatch layer: account one adaptive
      demotion (a declared-read-only operation that wrote) in this
      STM's [Stm_stats], so [ro_demotions] travels with the rest of
      the counters. *)
  val record_ro_demotion : unit -> unit

  val stats : unit -> Stm_stats.snapshot
  val reset_stats : unit -> unit
end
