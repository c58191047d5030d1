(** Runtime lookup by command-line name. *)

type packed = (module Runtime_intf.S)

(** All strategies, in presentation order: seq, coarse, medium, fine,
    tl2, lsa, norec, etl, astm, tournament. The single registration
    point — the CLI listings, the quick bench's strategy sweep and the
    sanitizer's check loop all derive from this list. *)
val all : (string * packed) list

val names : string list

(** The one strategy that provides no synchronization ([seq]): it runs
    on a single domain only. [Benchmark.Make]'s [check] refuses it
    above one domain, the soak leaves it out and the sanitizer's check
    loop runs it at one domain. *)
val single_domain : string

val find : string -> (packed, string) result
