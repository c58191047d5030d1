(** R5 — obj-use.

    [Obj.*] defeats the type system, and in this codebase it also
    defeats the benchmark's correctness story: the runtimes' safety
    arguments (and the sanitizer's trace model) assume tvar payloads are
    ordinary immutable OCaml values. An [Obj.magic] in the wrong place
    can alias, tear or retype shared state in ways none of the dynamic
    or static checkers can see, so every use must be a deliberate,
    reviewed decision.

    The rule reports every [Stdlib.Obj.*] identifier occurrence in
    scope. Sanctioned sites are named per unit in
    {!Lint_config.r5_allowed} — either the whole unit (the padded-atomic
    shim, which is [Obj] by design) or a single top-level binding (the
    [cast_ref] helpers of the word-based STMs). The sanctioned-binding
    granularity is the {e top-level} structure item: a nested [let]
    inside a sanctioned binding is covered, a sibling binding is not. *)

open Typedtree

(* Per-expression hook for the shared engine walk: [current] is the
   name of the enclosing top-level value binding, maintained by the
   caller's structure_item handling. *)
let expr_hook ~current ~allowed_bindings ~unit_name ~emit e =
  let sanctioned () =
    match !current with
    | Some b -> List.mem b allowed_bindings
    | None -> false
  in
  match e.exp_desc with
  | Texp_ident (p, _, _) ->
    let name = Path.name p in
    if String.starts_with ~prefix:"Stdlib.Obj." name && not (sanctioned ())
    then
      emit
        (Lint_finding.make ~rule:"obj-use" ~loc:e.exp_loc ~unit_name
           (Printf.sprintf
              "%s: unsafe Obj primitives are forbidden outside the \
               sanctioned sites (Lint_config.r5_allowed, justified in \
               DESIGN.md); they can alias or retype shared state behind \
               every checker's back"
              name))
  | _ -> ()
