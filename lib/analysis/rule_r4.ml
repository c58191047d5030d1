(** R4 — profile honesty.

    The STM runtimes dispatch on [Op_profile.read_only]: an operation
    registered without a [~writes] clause runs through the zero-log /
    snapshot read-only path. A profile that lies costs a runtime
    demotion (one aborted transaction, a sticky registry entry) on
    every run — this rule catches the lie statically instead.

    Detection works on the typed AST at {e value} granularity (module
    granularity would be useless: every core module mixes read-only
    and writing operations, and the shared traversal skeletons take
    their write closures as arguments):

    1. In the configured registry unit(s), find applications of the
       operation builders ({!registrations}, the one registry scan,
       shared with the footprint inference). An operation is declared
       read-only when it is built by a non-structural builder with no
       [~writes] argument or an empty one ([~writes:[]]), as
       [Op_profile.read_only] reads it; the last positional identifier
       argument is its run function.
    2. For every unit in the configured universe, build a reference
       graph over top-level value bindings (including bindings inside
       functor bodies, which is where the sync-free core lives). Local
       module aliases — [module LT = Traversals.Make (R)] — are
       resolved to their compilation units so [LT.t1] becomes an edge
       to [Sb7_core__Traversals.t1].
    3. A value {e writes} when it mentions a configured write
       identifier (the runtime functor's [R.write]) or projects a
       configured mutator field of the first-class index record
       ([.put] / [.remove]). A declared-read-only operation whose run
       function reaches a writing value is a finding, reported at the
       registration site (so a suppression comment sits next to the
       profile it vouches for).

    Approximations, all on the strict side: referencing a writing
    closure counts as writing even if the reference is never called;
    bindings of the same name in sibling nested modules of one unit
    are merged. A false positive is suppressible per site; a write
    reached only through a closure parameter (not a named value) is
    the one shape this analysis cannot see — the runtime demotion
    path remains the backstop for those. *)

open Typedtree

let last_component = Escape_graph.last_component

(* --- Registry extraction, shared with the footprint inference --- *)

type registration = {
  reg_code : string;
  reg_structural : bool;  (** built by one of [r4_structural_builders] *)
  reg_has_writes : bool;
      (** a [~writes] argument other than [None] or [[]] was passed *)
  reg_run : Path.t;  (** the run function as written; unresolved *)
  reg_loc : Location.t;
}

let const_string e =
  match e.exp_desc with
  | Texp_constant (Const_string (s, _, _)) -> Some s
  | _ -> None

let is_construct name e =
  match e.exp_desc with
  | Texp_construct (_, cd, _) -> cd.Types.cstr_name = name
  | _ -> false

(* Unwrap the [Some e] the typechecker inserts when an optional
   argument is passed with [~label:e]. *)
let unwrap_option_arg e =
  match e.exp_desc with
  | Texp_construct (_, { Types.cstr_name = "Some"; _ }, [ inner ]) -> inner
  | _ -> e

(* Every application of a profiled or structural builder in a registry
   unit: the first positional string literal is the operation code,
   the last positional identifier its run function. This rule and the
   footprint inference both read the registry through this one scan;
   each resolves [reg_run] with its own resolver. *)
let registrations (config : Lint_config.r4) (u : Cmt_unit.t) =
  let ops = ref [] in
  let handle_apply fn args loc =
    match fn.exp_desc with
    | Texp_ident (p, _, _) ->
      let builder = last_component p in
      let structural = List.mem builder config.r4_structural_builders in
      if structural || List.mem builder config.r4_profiled_builders then begin
        let code =
          List.find_map
            (fun (label, arg) ->
              match (label, arg) with
              | Asttypes.Nolabel, Some a -> const_string a
              | _ -> None)
            args
        in
        let has_writes =
          List.exists
            (fun (label, arg) ->
              (match label with
              | Asttypes.Labelled s | Asttypes.Optional s -> s = "writes"
              | Asttypes.Nolabel -> false)
              &&
              match arg with
              | Some a ->
                not
                  (is_construct "None" a
                  || is_construct "[]" (unwrap_option_arg a))
              | None -> false)
            args
        in
        let run =
          List.fold_left
            (fun acc (label, arg) ->
              match (label, arg) with
              | Asttypes.Nolabel, Some a -> (
                match (unwrap_option_arg a).exp_desc with
                | Texp_ident (rp, _, _) -> Some rp
                | _ -> acc)
              | _ -> acc)
            None args
        in
        match (code, run) with
        | Some code, Some rp ->
          ops :=
            {
              reg_code = code;
              reg_structural = structural;
              reg_has_writes = has_writes;
              reg_run = rp;
              reg_loc = loc;
            }
            :: !ops
        | _ -> ()
      end
    | _ -> ()
  in
  let iter =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun sub e ->
          (match e.exp_desc with
          | Texp_apply (fn, args) -> handle_apply fn args e.exp_loc
          | _ -> ());
          Tast_iterator.default_iterator.expr sub e);
    }
  in
  iter.structure iter u.Cmt_unit.structure;
  List.rev !ops

(* A run function as a (unit, value) reference: a unit reference
   directly, or through one level of local module alias
   ([LT.t1] with [module LT = Traversals.Make (R)]). *)
let resolve_run ~units ~aliases ~unit_name rp =
  match Cmt_unit.resolve_ref ~units rp with
  | Some target -> Some (target, last_component rp)
  | None -> (
    match rp with
    | Path.Pdot (Path.Pident m, field) ->
      Option.map (fun target -> (target, field))
        (Hashtbl.find_opt aliases (Ident.name m))
    | Path.Pident id -> Some (unit_name, Ident.name id)
    | _ -> None)

(* --- Reachability over the shared escape-graph summaries --- *)

let find_write (summaries : (string, Escape_graph.summary) Hashtbl.t)
    (start_unit, start_value) =
  let visited = Hashtbl.create 64 in
  let rec go unit_name value =
    if Hashtbl.mem visited (unit_name, value) then None
    else begin
      Hashtbl.add visited (unit_name, value) ();
      match Hashtbl.find_opt summaries unit_name with
      | None -> None
      | Some s -> (
        match Hashtbl.find_opt s.Escape_graph.s_bindings value with
        | None -> None
        | Some b -> (
          match List.rev b.Escape_graph.b_r4_writes with
          | (what, loc) :: _ -> Some (unit_name, value, what, loc)
          | [] ->
            List.find_map
              (fun (u', v') -> go u' v')
              (List.rev b.Escape_graph.b_refs)))
    end
  in
  go start_unit start_value

let in_universe (config : Lint_config.r4) unit_name =
  List.exists
    (fun p -> String.starts_with ~prefix:p unit_name)
    config.r4_universe_prefixes

let pos_of loc =
  let p = loc.Location.loc_start in
  (p.Lexing.pos_fname, p.Lexing.pos_lnum)

(* [summaries] is the engine's shared escape graph (built once, used by
   both this rule and R7); it covers at least every unit in the R4
   universe. Every profiled registration without [~writes] is checked. *)
let check (config : Lint_config.r4) ~units
    ~(summaries : (string, Escape_graph.summary) Hashtbl.t)
    (all_units : Cmt_unit.t list) =
  List.concat_map
    (fun u ->
      let unit_name = u.Cmt_unit.name in
      if not (List.mem unit_name config.r4_registry_units) then []
      else
        let aliases =
          Escape_graph.collect_aliases ~units u.Cmt_unit.structure
        in
        List.filter_map
          (fun reg ->
            if reg.reg_structural || reg.reg_has_writes then None
            else
              match resolve_run ~units ~aliases ~unit_name reg.reg_run with
              | None -> None
              | Some target -> (
                match find_write summaries target with
                | None -> None
                | Some (w_unit, w_value, what, w_loc) ->
                  let file, line = pos_of w_loc in
                  Some
                    (Lint_finding.make ~rule:"profile-honesty"
                       ~loc:reg.reg_loc ~unit_name
                       (Printf.sprintf
                          "operation %S: profile declares read-only (no \
                           ~writes) but its run function %s reaches %s in \
                           %s.%s (%s:%d) — fix the profile or the operation"
                          reg.reg_code (Path.name reg.reg_run) what w_unit
                          w_value file line))))
          (registrations config u))
    all_units
