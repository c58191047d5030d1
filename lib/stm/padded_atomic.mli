(** Cache-line padded hot atomics.

    A bare [Atomic.make] allocates a one-word block wherever the minor
    heap pointer happens to be, so a hot global (the commit clock, a
    shared counter) routinely lands on the same cache line as unrelated
    data — every commit-time CAS then false-shares with whatever the
    GC placed next to it, and the line ping-pongs between cores even
    when the logical contention is low. This module allocates the word
    inside a padded block so it owns its cache line(s).

    OCaml 5.2 has [Atomic.make_contended] for exactly this; the module
    hand-rolls the padding because the supported compiler floor is
    5.1. *)

type t

val make : int -> t
val get : t -> int
val set : t -> int -> unit

(** Returns the previous value. *)
val fetch_and_add : t -> int -> int

val compare_and_set : t -> int -> int -> bool

(** Trailing padding words that keep a padded block's cache line(s)
    to itself. *)
val padding_words : int

(** [copy_as_padded v] re-allocates the block of [v] with trailing
    padding words and returns the copy; [v] itself should be dropped.
    Used for per-domain records whose mutable fields must not share
    lines with a neighbouring domain's. Call it only on freshly
    allocated plain records (tag-0 blocks) that nothing else aliases
    yet; any other value is returned unchanged. *)
val copy_as_padded : 'a -> 'a
