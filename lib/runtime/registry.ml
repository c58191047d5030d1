(** Runtime lookup by command-line name. *)

type packed = (module Runtime_intf.S)

let all : (string * packed) list =
  [
    ("seq", (module Seq_runtime));
    ("coarse", (module Coarse_runtime));
    ("medium", (module Medium_runtime));
    ("fine", (module Fine_runtime));
    ("tl2", (module Tl2_runtime));
    ("lsa", (module Lsa_runtime));
    ("norec", (module Norec_runtime));
    ("etl", (module Etl_runtime));
    ("astm", (module Astm_runtime));
    ("tournament", (module Tournament_runtime));
  ]

let names = List.map fst all
let single_domain = Seq_runtime.name

let find name : (packed, string) result =
  match List.assoc_opt (String.lowercase_ascii name) all with
  | Some r -> Ok r
  | None ->
    Error
      (Printf.sprintf "unknown synchronization strategy %S (expected %s)" name
         (String.concat " | " names))
