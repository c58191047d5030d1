(** Lock-domain footprint of a benchmark operation.

    The medium-grained strategy of the paper (its Figure 5) partitions
    the shared structure into lockable domains: one per assembly level,
    one for all composite parts, one for all atomic parts, one for all
    documents and one for the manual, plus a global "structure" lock
    acquired in write mode by structure-modification operations and in
    read mode by everything else. An operation declares here which
    domains it reads and writes; lock-based runtimes acquire the
    corresponding locks (in a fixed canonical order), STM runtimes
    ignore the profile. *)

type domain =
  | Assembly_level of int  (** 1 = base assemblies … 7 = root *)
  | Composite_parts
  | Atomic_parts
  | Documents
  | Manual

let max_assembly_levels = 7

let domain_to_string = function
  | Assembly_level i -> Printf.sprintf "assembly-level-%d" i
  | Composite_parts -> "composite-parts"
  | Atomic_parts -> "atomic-parts"
  | Documents -> "documents"
  | Manual -> "manual"

(* Canonical acquisition order (deadlock freedom): structure lock first
   (handled by the runtime), then levels top-down, then the leaves. *)
let domain_rank = function
  | Assembly_level i ->
    assert (i >= 1 && i <= max_assembly_levels);
    max_assembly_levels - i
  | Composite_parts -> max_assembly_levels
  | Atomic_parts -> max_assembly_levels + 1
  | Documents -> max_assembly_levels + 2
  | Manual -> max_assembly_levels + 3

let num_domains = max_assembly_levels + 4

type t = {
  op_name : string;
  reads : domain list;  (** domains accessed read-only *)
  writes : domain list;  (** domains updated; takes precedence over reads *)
  structural : bool;  (** structure-modification operation *)
  plan : (domain * [ `Read | `Write ]) list;  (** see {!locking_plan} *)
}

let assembly_levels lo hi =
  assert (lo >= 1 && hi <= max_assembly_levels && lo <= hi);
  List.init (hi - lo + 1) (fun i -> Assembly_level (lo + i))

let all_assembly_levels = assembly_levels 1 max_assembly_levels

(* Domains with the mode they must be locked in, sorted in canonical
   acquisition order. Write mode wins when a domain appears in both
   lists. Structural operations get no domain locks: the exclusive
   structure lock already isolates them (the paper: "indexes, sets and
   bags do not have to be synchronized separately"). *)
let plan_of ~reads ~writes ~structural =
  if structural then []
  else begin
    let tbl = Hashtbl.create 16 in
    List.iter (fun d -> Hashtbl.replace tbl (domain_rank d) (d, `Read)) reads;
    List.iter (fun d -> Hashtbl.replace tbl (domain_rank d) (d, `Write)) writes;
    Hashtbl.fold (fun rank dm acc -> (rank, dm) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map snd
  end

(* The plan is computed here, once per profile, because the medium
   runtime reads it on every operation. *)
let make ~name ?(reads = []) ?(writes = []) ?(structural = false) () =
  {
    op_name = name;
    reads;
    writes;
    structural;
    plan = plan_of ~reads ~writes ~structural;
  }

(* Read-only dispatch is profile-directed: the zero-log / snapshot fast
   paths of the STM runtimes key on the declaration, lint R4 checks it
   statically, and the adaptive demotion in Ro_dispatch is the runtime
   backstop for a wrong one. A [match], not [= []]: the runtimes call
   this on every operation. *)
let read_only t =
  match t.writes with [] -> not t.structural | _ :: _ -> false

let locking_plan t = t.plan
