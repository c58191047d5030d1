(** A multi-version STM in the style of the Lazy Snapshot Algorithm
    [Riegel–Felber–Fetzer, DISC'06] — reference [11] of the STMBench7
    paper. It is the four-version instance of {!Mvstm}, which it shares
    with {!Tl2}: update transactions are exactly TL2's (read-set dedup,
    write-set bloom filter, low-contention commit clock), and a commit
    pushes the version it replaces into a fixed-size per-tvar ring of
    the three older versions, so transactions run in snapshot mode read
    a consistent past view with no validation and no conflicts — the
    proposed cure for the benchmark's long read-only traversals. *)

include Stm_intf.S

(** Run a read-only transaction against a consistent snapshot: no
    validation work, never aborted by concurrent committers (it can
    only retry if a needed version was evicted from a history). [f]
    must not call {!write} — doing so raises
    {!Stm_intf.Write_in_read_only}, which the runtime dispatch layer
    turns into a demotion to update mode. [atomic_ro] is this same
    mode (multi-version snapshots are LSA's native read-only fast
    path, so its [ro_inline_revalidations] counter stays 0 — an
    unservable snapshot is a ring eviction and counts as an abort). *)
val atomic_snapshot : (unit -> 'a) -> 'a
