(** A TL2-style software transactional memory: global version clock,
    invisible-but-validated reads in O(1) per read (opacity), lazy write
    buffering, commit-time locking with a single O(k) read-set
    validation pass, and TinySTM-style timestamp extension. It is the
    one-version instance of {!Mvstm}, which it shares with {!Lsa}: a
    tvar keeps only its newest value.

    Log management is tuned for STMBench7's long traversals: re-reading
    an already-logged tvar is deduplicated in O(1) (so k counts
    {e distinct} tvars, not raw reads), a word-sized bloom filter
    screens the write-set lookup on every read, and the commit clock
    uses a single CAS attempt with GV4-style value reuse instead of a
    fetch-and-add. See docs/PERF.md for the rationale and the
    {!Stm_stats} counters that expose each path.

    [atomic_ro] is TL2's zero-log read-only mode: no read set, no
    commit validation, no clock CAS — each read is a vlock sandwich
    plus a [version <= rv] check, restarting at a fresh read version
    when the check fails (counted in [ro_inline_revalidations]). A
    [write] inside it raises {!Stm_intf.Write_in_read_only} so the
    runtime layer can demote the operation to an update transaction.

    This is the representative of the "solutions already proposed"
    [Dice–Shalev–Shavit, DISC'06] the STMBench7 paper points to as the
    fix for ASTM's pathologies. See {!Astm} for the contrast. *)

include Stm_intf.S

(** Seeded-bug fixture for the sanitizer: {!disable_validation} skips
    read-set validation both at commit time and during timestamp
    extension, so update transactions can commit on (and observe)
    inconsistent snapshots — exactly the silent corruption the opacity
    checker exists to catch. For sanitizer tests and the
    [sb7_sanitize seeded] CI fixture only — never in benchmarks. *)
module Unsafe : sig
  val disable_validation : unit -> unit

  (** Second seeded bug, for the partial-abort machinery: resume from
      the newest checkpoint {e without} validating that the read-set
      prefix is still current — the classic unsound shortcut a
      partial-abort implementation is tempted by. The salvaged prefix
      may then span a concurrent commit, so the resumed attempt runs
      (and can commit) on an inconsistent snapshot. *)
  val disable_resume_validation : unit -> unit

  val reset : unit -> unit
end
