(** Shared STM statistics: the counters every substrate (and the
    tournament meta-runtime) exports, declared once each below in
    export order — the report, the CSV columns and the quick-bench
    JSON keys all derive from these declarations.

    The counters are a {!Sharded_counter} set: recording is a plain
    store into the calling domain's padded shard, with no cross-core
    RMW on the per-transaction commit/abort flush path. [snapshot]
    folds over all shards; the sums are exact once writing domains
    have been joined and racy-but-non-tearing while they run. *)

module C = Sharded_counter

type t = C.t
type snapshot = C.snapshot

let schema = C.schema ()
let counter ?combine name = C.declare ?combine schema name

(** transactions that committed *)
let commits = counter "commits"

(** transactions that aborted due to a conflict *)
let aborts = counter "aborts"

(** commits with an empty write set *)
let read_only_commits = counter "read_only_commits"

(** total read-set entries checked during validations; under an
    invisible-read STM this grows as O(k^2) per transaction *)
let validation_steps = counter "validation_steps"

(** largest read set observed *)
let max_read_set = counter ~combine:Max "max_read_set"

(** total read entries logged across all transactions; with read-set
    dedup this counts distinct-tvar entries (modulo dedup-cache
    evictions), not raw reads *)
let read_set_entries = counter "read_set_entries"

(** reads that found their tvar already logged and pushed no duplicate
    entry *)
let dedup_hits = counter "dedup_hits"

(** reads that skipped the write-set hash probe because the bloom
    filter proved the tvar was never buffered (only counted while the
    write set is non-empty) *)
let bloom_skips = counter "bloom_skips"

(** successful timestamp (read-version) extensions *)
let extensions = counter "extensions"

(** commits that reused a concurrent committer's clock value instead
    of retrying the tick CAS (GV4-style) *)
let clock_reuses = counter "clock_reuses"

(** commits of zero-log read-only transactions ([atomic_ro] / LSA
    snapshot mode): no read set, no commit validation *)
let ro_zero_log_commits = counter "ro_zero_log_commits"

(** TL2 [atomic_ro] restarts caused by a read finding a version newer
    than the snapshot's read version (the closure is re-run at a fresh
    rv; counted here, not as an abort) *)
let ro_inline_revalidations = counter "ro_inline_revalidations"

(** declared-read-only operations that attempted a write, raised
    [Write_in_read_only] and were demoted to update mode by the
    runtime dispatch layer *)
let ro_demotions = counter "ro_demotions"

(** watermarks recorded by [S.checkpoint] inside update transactions
    (no-op calls outside a transaction or in read-only mode are not
    counted) *)
let checkpoints = counter "checkpoints"

(** conflicts resolved by rolling back to the last valid watermark and
    resuming, instead of restarting the attempt *)
let partial_aborts = counter "partial_aborts"

(** read-set entries kept (prefix-validated) across all partial aborts
    — the work a full abort would have thrown away *)
let reads_salvaged = counter "reads_salvaged"

(** conflicts where checkpoints existed but even the earliest
    watermark's prefix was invalid, forcing a full abort *)
let resume_failures = counter "resume_failures"

(** tournament-runtime epoch boundaries at which the champion policy
    was (re-)evaluated; recorded by the meta-runtime into its own
    set, never by a substrate *)
let epoch_decisions = counter "epoch_decisions"

(** epoch decisions that crowned a new champion substrate through the
    quiesce fence (tvars then convert on their first access) *)
let substrate_switches = counter "substrate_switches"

(** domains whose first transaction adopted a recycled descriptor
    (with its learned log capacities) from the substrate's free pool
    instead of allocating afresh — at most once per domain lifetime *)
let descriptor_pool_hits = counter "descriptor_pool_hits"

(** domains that allocated a fresh descriptor because the pool was
    empty (cold start) or pooling was disabled *)
let descriptor_pool_misses = counter "descriptor_pool_misses"

let create () = C.create schema
let zero = C.zero schema
let add = C.add schema
let to_assoc = C.to_assoc schema
let pp = C.pp schema
let names = List.map fst (to_assoc zero)
let shard = C.shard
let incr = C.incr
let bump = C.bump
let snapshot = C.snapshot
let reset = C.reset
let get = C.get

(* The helpers below move several counters together. *)

let record_commit t ~read_only =
  let s = shard t in
  bump s commits 1;
  if read_only then bump s read_only_commits 1

(** A zero-log read-only commit is still a commit (and trivially a
    read-only one): the three counters move together so [commits]
    stays the total across both transaction modes. *)
let record_ro_commit t =
  let s = shard t in
  bump s commits 1;
  bump s read_only_commits 1;
  bump s ro_zero_log_commits 1

(** One transaction's read set: adds to [read_set_entries] and raises
    [max_read_set]. *)
let record_read_set s ~size =
  bump s read_set_entries size;
  C.bump_max s max_read_set size

(** A partial abort salvages the validated read-set prefix: the
    attempt rolls back to its last valid watermark instead of
    restarting, and [reads_salvaged] counts the read entries it
    kept. *)
let record_partial_abort t ~reads_salvaged:n =
  let s = shard t in
  bump s partial_aborts 1;
  bump s reads_salvaged n
