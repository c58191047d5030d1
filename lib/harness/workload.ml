(** Workload types and operation-ratio computation (paper §3, Table 2).

    The benchmark assigns execution ratios to operations from two
    user-level knobs: the workload type, which fixes the read-only /
    update split (90/10, 60/40 or 10/90), and the category ratios of
    Table 2 (long traversals 5%, short traversals 40%, short operations
    45%, structure modifications 10%).

    An individual operation's weight is

      category_ratio × kind_ratio / |enabled ops in the same
      (category, read-only?) group|

    normalized over all enabled operations — operations of the same
    category and kind run in equal proportions, as the paper specifies.
    Structure modifications are all updates, so their effective share
    shrinks below Table 2's 10% under read-dominated workloads and
    grows under write-dominated ones. *)

module Category = Sb7_core.Category

type kind =
  | Read_dominated
  | Read_write
  | Write_dominated

let kind_to_string = function
  | Read_dominated -> "r"
  | Read_write -> "rw"
  | Write_dominated -> "w"

let kind_long_name = function
  | Read_dominated -> "read-dominated"
  | Read_write -> "read-write"
  | Write_dominated -> "write-dominated"

let kind_of_string s =
  match String.lowercase_ascii s with
  | "r" | "read" | "read-dominated" -> Ok Read_dominated
  | "rw" | "read-write" -> Ok Read_write
  | "w" | "write" | "write-dominated" -> Ok Write_dominated
  | other -> Error (Printf.sprintf "unknown workload type %S (expected r | rw | w)" other)

let all_kinds = [ Read_dominated; Read_write; Write_dominated ]

(** Read-only percentage of the workload (Table 2, columns). *)
let read_only_percent = function
  | Read_dominated -> 90
  | Read_write -> 60
  | Write_dominated -> 10

(** A category mix: the relative weights of the four operation
    categories. Table 2's defaults are {!default_mix}; the paper's §6
    calls for exploring more ("more workloads need to be explored"),
    which the [--mix] option enables. *)
type mix = {
  long_traversals : int;
  short_traversals : int;
  short_operations : int;
  structure_mods : int;
}

let default_mix =
  {
    long_traversals = 5;
    short_traversals = 40;
    short_operations = 45;
    structure_mods = 10;
  }

let mix_to_string m =
  Printf.sprintf "%d:%d:%d:%d" m.long_traversals m.short_traversals
    m.short_operations m.structure_mods

(** Parse "LT:ST:OP:SM", e.g. "5:40:45:10". Weights are relative and
    must be non-negative with a positive sum. *)
let mix_of_string s =
  match String.split_on_char ':' s |> List.map int_of_string_opt with
  | [ Some lt; Some st; Some op; Some sm ]
    when lt >= 0 && st >= 0 && op >= 0 && sm >= 0 && lt + st + op + sm > 0 ->
    Ok
      {
        long_traversals = lt;
        short_traversals = st;
        short_operations = op;
        structure_mods = sm;
      }
  | _ ->
    Error
      (Printf.sprintf
         "invalid mix %S (expected LT:ST:OP:SM, e.g. \"5:40:45:10\")" s)

let mix_percent mix = function
  | Category.Long_traversal -> mix.long_traversals
  | Category.Short_traversal -> mix.short_traversals
  | Category.Short_operation -> mix.short_operations
  | Category.Structure_modification -> mix.structure_mods

(** Category percentage (Table 2, rows). *)
let category_percent = mix_percent default_mix

(** Metadata the ratio computation needs about one operation. *)
type op_desc = {
  code : string;
  category : Category.t;
  read_only : bool;
}

(** Per-operation probabilities for the enabled operation set; sums
    to 1. *)
let ratios ?(mix = default_mix) (kind : kind) (ops : op_desc array) :
    float array =
  let ro_pct = float_of_int (read_only_percent kind) /. 100. in
  let kind_ratio ro = if ro then ro_pct else 1. -. ro_pct in
  let group_size desc =
    Array.fold_left
      (fun acc o ->
        if Category.equal o.category desc.category && o.read_only = desc.read_only
        then acc + 1
        else acc)
      0 ops
  in
  let weight desc =
    let cat = float_of_int (mix_percent mix desc.category) /. 100. in
    cat *. kind_ratio desc.read_only /. float_of_int (group_size desc)
  in
  let weights = Array.map weight ops in
  let total = Array.fold_left ( +. ) 0. weights in
  assert (total > 0.);
  Array.map (fun w -> w /. total) weights

(** Cumulative distribution over the same array, for sampling: the
    operation to run is the first index whose cumulative value exceeds
    a uniform [0,1) draw. *)
let cdf ratios =
  let acc = ref 0. in
  Array.map
    (fun r ->
      acc := !acc +. r;
      !acc)
    ratios

(* Binary search for the first index with [u < cdf.(i)] — the CDF is
   non-decreasing, so "u < cdf.(i)" is monotone in [i]. Clamped to
   [n - 1] (the last cumulative value is 1.0 only up to rounding, and
   a degenerate all-zero tail must still pick a valid index), matching
   the linear scan's [i >= n - 1] guard. Sampling happens once per
   operation pick on every worker thread, so over 45 operations this
   replaces an average ~23-probe walk with ~6. The annotations make
   [u < cdf.(mid)] a float compare rather than a call to the
   polymorphic one. *)
let sample (cdf : float array) (u : float) =
  let n = Array.length cdf in
  let lo = ref 0 and hi = ref (n - 1) in
  (* invariant: answer is in [lo, hi] *)
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if u < cdf.(mid) then hi := mid else lo := mid + 1
  done;
  !lo
