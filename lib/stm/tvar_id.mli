(** Chunked tvar-id allocation.

    Every TL2/LSA ({!Mvstm}) / fine-grained [make] needs a fresh
    small int for dedup-cache and bloom hashing. A global
    [Atomic.fetch_and_add] per tvar serializes all domains through one
    cache line during setup phases that allocate hundreds of thousands
    of tvars. Here each domain instead claims a contiguous chunk of
    {!chunk_size} ids with a single global fetch-and-add and then hands
    them out from a domain-local cursor ([Domain.DLS]), i.e. at most
    one shared atomic op per chunk.

    Each STM module owns its own allocator instance, preserving the
    invariant that ids are unique {e per module} (the dedup cache and
    bloom filter index on them). Ids remain dense up to chunk
    granularity: a domain that stops allocating strands at most
    [chunk_size - 1] ids, which the direct-mapped dedup cache
    ([id land (size - 1)]) and the multiplicative bloom hash tolerate —
    consecutive ids within a chunk are exactly as well distributed as
    before, and distinct chunks map to disjoint residue runs. *)

type t

val create : unit -> t

(** Allocate a fresh id, unique across all domains for this allocator. *)
val fresh : t -> int

(** Ids handed out per global fetch-and-add; exposed for tests. *)
val chunk_size : int

(** Upper bound (exclusive) on any id allocated so far: total ids
    claimed from the shared counter, counting unconsumed chunk tails.
    Exposed for the allocator gap-bound test. *)
val allocated_bound : t -> int
