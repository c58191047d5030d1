(** Benchmark scale parameters.

    The [medium] preset is the paper's configuration: the "medium" size
    of OO7 confined to a single module — six levels of complex
    assemblies with three children each, 500 composite parts, each a
    graph of 200 atomic parts with three connections per part (100,000
    atomic parts in total), 20 kB documents, a 1 MB manual.

    Build dates follow OO7: atomic parts and assemblies are dated in
    [1000, 1999]; a fraction of composite parts is "young" (dated in
    [2000, 2999], i.e. newer than every assembly — these are the
    matches of Q6/ST5) and the rest "old" ([0, 999]). The atomic-part
    date range makes OP2's query window 1% selective and OP3's 10%,
    matching OO7's Q2/Q3. *)

type t = {
  num_atomic_per_comp : int;
  num_conn_per_atomic : int;
  document_size : int;
  manual_size : int;
  num_comp_per_module : int;
  num_assm_per_assm : int;  (** tree branching factor *)
  num_assm_levels : int;  (** base assemblies at level 1, root at top *)
  num_comp_per_assm : int;
  min_atomic_date : int;
  max_atomic_date : int;
  min_assm_date : int;
  max_assm_date : int;
  min_old_comp_date : int;
  max_old_comp_date : int;
  min_young_comp_date : int;
  max_young_comp_date : int;
  young_comp_percent : int;
  num_types : int;  (** distinct "type" attribute strings *)
  growth_slack_percent : int;
      (** extra ID-pool capacity beyond the initial population, bounding
          how far SM1/SM5/SM7 can grow the structure *)
}

let medium =
  {
    num_atomic_per_comp = 200;
    num_conn_per_atomic = 3;
    document_size = 20_000;
    manual_size = 1_000_000;
    num_comp_per_module = 500;
    num_assm_per_assm = 3;
    num_assm_levels = 7;
    num_comp_per_assm = 3;
    min_atomic_date = 1000;
    max_atomic_date = 1999;
    min_assm_date = 1000;
    max_assm_date = 1999;
    min_old_comp_date = 0;
    max_old_comp_date = 999;
    min_young_comp_date = 2000;
    max_young_comp_date = 2999;
    young_comp_percent = 10;
    num_types = 10;
    growth_slack_percent = 10;
  }

(** A reduced structure for fast benchmark points: same shape, ~1/10
    of the objects. *)
let small =
  {
    medium with
    num_atomic_per_comp = 20;
    document_size = 2_000;
    manual_size = 100_000;
    num_comp_per_module = 100;
    num_assm_levels = 5;
  }

(** A minimal structure for unit tests. *)
let tiny =
  {
    medium with
    num_atomic_per_comp = 5;
    num_conn_per_atomic = 2;
    document_size = 200;
    manual_size = 2_000;
    num_comp_per_module = 10;
    num_assm_levels = 3;
    growth_slack_percent = 50;
  }

let presets = [ ("tiny", tiny); ("small", small); ("medium", medium) ]

let of_string s =
  match List.assoc_opt (String.lowercase_ascii s) presets with
  | Some p -> Ok p
  | None ->
    Error
      (Printf.sprintf "unknown scale %S (expected %s)" s
         (String.concat " | " (List.map fst presets)))

(* Derived quantities. *)

let rec pow base e = if e = 0 then 1 else base * pow base (e - 1)

(** Complex assemblies occupy levels 2..levels; one subtree root. *)
let initial_complex_assemblies t =
  let rec total level = if level < 2 then 0 else pow t.num_assm_per_assm (t.num_assm_levels - level) + total (level - 1) in
  total t.num_assm_levels

let initial_base_assemblies t = pow t.num_assm_per_assm (t.num_assm_levels - 1)
let initial_atomic_parts t = t.num_comp_per_module * t.num_atomic_per_comp

let with_slack t n = n + ((n * t.growth_slack_percent + 99) / 100)

let max_composite_parts t = with_slack t t.num_comp_per_module
let max_atomic_parts t = max_composite_parts t * t.num_atomic_per_comp
let max_base_assemblies t = with_slack t (initial_base_assemblies t)
let max_complex_assemblies t = with_slack t (initial_complex_assemblies t)
