(** The abstract-region lattice of the OO7 structure used by the
    sb7-footprint analysis (docs/FOOTPRINT.md): every tvar belongs to
    exactly one region, an operation's static footprint is a pair of
    region sets. *)

type t =
  | Indexes  (** the six Table 1 indexes and the four id pools *)
  | Assemblies  (** base + complex assemblies, all levels *)
  | Composite_parts
  | Atomic_parts  (** atomic parts and their connection graphs *)
  | Documents
  | Manual

(** Stable dense codes; the wire format of trace region notes and the
    generated [Op_footprint] table. *)
val to_int : t -> int

val of_int : int -> t option
val to_string : t -> string
