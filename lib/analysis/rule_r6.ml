(** R6 — tvar-escape.

    An atomic block can be re-executed any number of times (aborts,
    retries) and its writes are provisional until commit, so nothing
    computed inside it may outlive it except through the commit itself.
    Two escape shapes are flagged:

    - a {b closure} capturing a binding of the atomic scope (a value
      read from a tvar, or transaction-local mutable state) stored
      through a sink — written to a tvar, or into a mutable cell
      defined outside the block. If the attempt aborts, the closure
      retains values of a transaction that never happened; running it
      later observes a snapshot that was never committed.
    - a {b transaction-local mutable value} (ref, table, buffer, ...)
      written to a tvar: retried attempts then share the cell, so side
      effects of aborted executions leak into committed state.

    The analysis is syntactic and scoped: it only looks inside function
    literals passed directly to a configured atomic entry point
    ([R.atomic ... (fun () -> ...)]). Bindings are collected per atomic
    scope without descending into nested lambdas — a variable bound
    inside a closure is re-created on every call of that closure, so
    referencing it there is not a capture of transactional state.
    Constant closures (capturing nothing from the atomic scope) are
    allowed: they carry no stale data. *)

open Typedtree

let path_name p = Path.name p

(* Bindings and local-mutable bindings of one atomic scope, plus
   closures let-bound in it (so a named lambda flowing to a sink can be
   capture-checked like an inline one). Collection stops at nested
   function literals. *)
type scope = {
  bound : (Ident.t, unit) Hashtbl.t;
  mutlocal : (Ident.t, unit) Hashtbl.t;
  closures : (Ident.t, expression) Hashtbl.t;
}

let collect_scope params body =
  let s =
    {
      bound = Hashtbl.create 32;
      mutlocal = Hashtbl.create 16;
      closures = Hashtbl.create 16;
    }
  in
  List.iter (fun id -> Hashtbl.replace s.bound id ()) params;
  let register_vb vb =
    List.iter
      (fun id -> Hashtbl.replace s.bound id ())
      (pat_bound_idents vb.vb_pat);
    match vb.vb_pat.pat_desc with
    | Tpat_var (id, _) -> (
      if Rule_r1.is_creator vb.vb_expr then Hashtbl.replace s.mutlocal id ();
      match vb.vb_expr.exp_desc with
      | Texp_function _ -> Hashtbl.replace s.closures id vb.vb_expr
      | _ -> ())
    | _ -> ()
  in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun sub e ->
          match e.exp_desc with
          | Texp_function _ -> () (* closure-internal scope: not ours *)
          | _ -> Tast_iterator.default_iterator.expr sub e);
      value_binding =
        (fun sub vb ->
          register_vb vb;
          Tast_iterator.default_iterator.value_binding sub vb);
      case =
        (fun sub c ->
          List.iter
            (fun id -> Hashtbl.replace s.bound id ())
            (pat_bound_idents c.c_lhs);
          Tast_iterator.default_iterator.case sub c);
    }
  in
  it.expr it body;
  s

(* Names of atomic-scope bindings referenced anywhere inside [e]
   (including nested lambdas): the captured transactional state. Ident
   stamps are unique per unit, so a shadowing binder inside the closure
   is a different ident and never a false capture. *)
let captures scope e =
  let found = ref [] in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun sub e ->
          (match e.exp_desc with
          | Texp_ident (Path.Pident id, _, _) when Hashtbl.mem scope.bound id
            ->
            if not (List.mem (Ident.name id) !found) then
              found := Ident.name id :: !found
          | _ -> ());
          Tast_iterator.default_iterator.expr sub e);
    }
  in
  it.expr it e;
  List.rev !found

(* Peel [fun p1 -> fun p2 -> body]: parameter idents + innermost body.
   A non-trivial multi-case [function] is left alone (params []) — the
   harness and runtimes only pass single-case thunks to atomic. *)
let rec peel_function e =
  match e.exp_desc with
  | Texp_function { param; cases = [ { c_lhs; c_rhs; _ } ]; _ } ->
    let params, body = peel_function c_rhs in
    (param :: (pat_bound_idents c_lhs @ params), body)
  | _ -> ([], e)

(* One sink application inside an atomic scope. *)
let check_sink ~add scope ~sink_name ~target ~value =
    let target_is_txn_local =
      match target with
      | Some { exp_desc = Texp_ident (Path.Pident id, _, _); _ } ->
        Hashtbl.mem scope.bound id
      | _ -> false
    in
    if not target_is_txn_local then
      let closure =
        match value.exp_desc with
        | Texp_function _ -> Some value
        | Texp_ident (Path.Pident id, _, _) ->
          Hashtbl.find_opt scope.closures id
        | _ -> None
      in
      match closure with
      | Some fn -> (
        match captures scope fn with
        | [] -> () (* constant closure: carries no transactional state *)
        | captured ->
          add ~loc:value.exp_loc
            (Printf.sprintf
               "closure stored through %s captures transaction-local \
                binding%s %s: it outlives the atomic block and can replay \
                state of an aborted attempt"
               sink_name
               (if List.length captured > 1 then "s" else "")
               (String.concat ", "
                  (List.map (Printf.sprintf "%S") captured))))
      | None -> (
        match value.exp_desc with
        | Texp_ident (Path.Pident id, _, _) when Hashtbl.mem scope.mutlocal id
          ->
          add ~loc:value.exp_loc
            (Printf.sprintf
               "transaction-local mutable value %S escapes the atomic block \
                through %s: retried attempts would share one cell and leak \
                aborted effects into committed state"
               (Ident.name id) sink_name)
        | _ -> ())

(* Walk one atomic body looking for sink applications, nested lambdas
   included (they may run — or be stored — during the attempt). *)
let scan_atomic_body (r6 : Lint_config.r6) ~add scope body =
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun sub e ->
          (match e.exp_desc with
          | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) -> (
            let name = path_name p in
            match
              List.find_opt (fun (s, _, _) -> s = name) r6.Lint_config.r6_sinks
            with
            | None -> ()
            | Some (_, value_arg, target_arg) -> (
              let target =
                Option.bind target_arg (Rule_r1.nth_positional args)
              in
              match Rule_r1.nth_positional args value_arg with
              | Some value ->
                check_sink ~add scope ~sink_name:name ~target ~value
              | None -> ()))
          | _ -> ());
          Tast_iterator.default_iterator.expr sub e);
    }
  in
  it.expr it body

(* Per-expression hook for the shared engine walk: fires on atomic
   entry-point applications and scans the function literals passed to
   them (a self-contained sub-walk — the engine's iterator still visits
   the same subtree, which is harmless: the hook only looks at direct
   atomic applications). *)
let expr_hook (r6 : Lint_config.r6) ~unit_name ~emit e =
  let add ~loc msg =
    emit (Lint_finding.make ~rule:"tvar-escape" ~loc ~unit_name msg)
  in
  match e.exp_desc with
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args)
    when List.mem (path_name p) r6.Lint_config.r6_atomic_idents ->
    List.iter
      (fun (_, arg) ->
        match arg with
        | Some ({ exp_desc = Texp_function _; _ } as fn) ->
          let params, body = peel_function fn in
          let scope = collect_scope params body in
          scan_atomic_body r6 ~add scope body
        | _ -> ())
      args
  | _ -> ()
