(** The abstract-region lattice of the OO7 structure used by the
    sb7-footprint analysis (see docs/FOOTPRINT.md).

    Every transactional variable of the benchmark belongs to exactly
    one region; an operation's static footprint is a pair of region
    sets (may-read, may-write). The partition is deliberately coarser
    than {!Op_profile.domain} — complex assemblies of all levels share
    one region, because a whole-program analysis cannot separate tree
    levels — and adds a region the lock profiles fold into the global
    structure lock: the Table 1 indexes together with the id pools. *)

type t =
  | Indexes  (** the six Table 1 indexes and the four id pools *)
  | Assemblies  (** base + complex assemblies, all levels *)
  | Composite_parts
  | Atomic_parts  (** atomic parts and their connection graphs *)
  | Documents
  | Manual

(* Codes are the wire format of trace region notes and the generated
   footprint table; keep them dense and stable. *)
let to_int = function
  | Indexes -> 0
  | Assemblies -> 1
  | Composite_parts -> 2
  | Atomic_parts -> 3
  | Documents -> 4
  | Manual -> 5

let of_int = function
  | 0 -> Some Indexes
  | 1 -> Some Assemblies
  | 2 -> Some Composite_parts
  | 3 -> Some Atomic_parts
  | 4 -> Some Documents
  | 5 -> Some Manual
  | _ -> None

let to_string = function
  | Indexes -> "indexes"
  | Assemblies -> "assemblies"
  | Composite_parts -> "composite-parts"
  | Atomic_parts -> "atomic-parts"
  | Documents -> "documents"
  | Manual -> "manual"
