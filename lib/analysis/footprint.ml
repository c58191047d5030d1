(** sb7-footprint — static may-read / may-write footprint inference,
    and the one analysis of what an operation writes.

    For every registered operation this pass answers two questions.
    The boolean one — can a declared-read-only operation reach a write
    at all? — is {!profile_violations}, the verdict lint rule R4
    reports and [sb7-footprint gen] / [matrix] refuse on. The
    quantitative one: {e which parts of the OO7 structure} can each of
    the 45 registered operations read and write. Footprints are
    computed over a six-element abstract-region lattice — indexes (the
    Table 1 indexes plus the id pools), assemblies (base and complex,
    every level), composite parts, atomic-part graphs, documents and
    the manual — deliberately coarser than [Op_profile.domain] (which
    splits assemblies per level) so that a region can be attributed to
    every tvar at creation time by [Region_ctx] and cross-checked
    dynamically by the sanitizer's footprint replay.

    The inference works on a value-granular reference graph over the
    core's top-level bindings (functor bodies and nested structures
    included), resolving chains of local module aliases across units:

    1. Every binding gets a local footprint: a field projection whose
       label is region-mapped ([ap_build_date], [cp_used_in], ...) is
       evidence of reading that region; an application of the runtime
       write primitive ([R.write]) whose tvar argument contains a
       region-mapped projection writes that region; projecting an
       index-record mutator ([.put] / [.remove]) writes the Indexes
       region, an accessor ([.get] / [.range] / [.iter] / [.size])
       reads it. Each binding also records its first {e write site}:
       an [R.write], applied or merely mentioned, or an index-mutator
       projection.
    2. An [R.write] whose tvar argument carries no mapped projection
       writes {e some caller-supplied} tvar — the binding is a
       {e generic writer} ([Bag.add], [update_build_date_tvar]). A
       fixpoint pushes the attribution to call sites: a call of a
       generic writer with region-mapped projections among its
       arguments writes those regions; a call forwarding a bare
       identifier makes the caller a generic writer in turn.
    3. An operation's footprint is the union over every binding
       reachable from its run function in the reference graph, and its
       witness the first write site reached.

    Approximations are on the strict (over-approximating) side: any
    mapped projection counts as a read even if the field is immutable;
    all projected regions of a generic-writer call count as written;
    referencing a writing closure counts as writing even if the
    reference is never called; bindings of the same name in sibling
    nested modules of one unit are merged. An operation left with an
    unattributable residual write is reported [fp_unresolved] — the
    generator refuses to emit a table containing one. A write reached
    only through a closure parameter (not a named value) is the one
    shape the graph cannot see; the runtime demotion in [Ro_dispatch]
    is the backstop for it. *)

open Typedtree

(* Mirrors Sb7_runtime.Region (lib/analysis stays free of repo
   dependencies so the lint tests can load it standalone); codes must
   stay equal to Region.to_int. *)
type region =
  | Indexes
  | Assemblies
  | Composite_parts
  | Atomic_parts
  | Documents
  | Manual

let all_regions =
  [ Indexes; Assemblies; Composite_parts; Atomic_parts; Documents; Manual ]

let region_to_int = function
  | Indexes -> 0
  | Assemblies -> 1
  | Composite_parts -> 2
  | Atomic_parts -> 3
  | Documents -> 4
  | Manual -> 5

let region_to_string = function
  | Indexes -> "indexes"
  | Assemblies -> "assemblies"
  | Composite_parts -> "composite-parts"
  | Atomic_parts -> "atomic-parts"
  | Documents -> "documents"
  | Manual -> "manual"

(* Region constructor name in Sb7_runtime.Region, for code emission. *)
let region_constructor = function
  | Indexes -> "Indexes"
  | Assemblies -> "Assemblies"
  | Composite_parts -> "Composite_parts"
  | Atomic_parts -> "Atomic_parts"
  | Documents -> "Documents"
  | Manual -> "Manual"

(* Region sets as 6-bit masks. *)
let bit r = 1 lsl region_to_int r
let mask_mem m r = m land bit r <> 0
let mask_regions m = List.filter (mask_mem m) all_regions

type config = {
  fp_registry : Lint_config.r4;
      (** registry units, builders, universe and write primitive: the
          scope lint rule R4 reports on *)
  fp_field_regions : (string * region) list;
      (** object-field label -> region of the containing object *)
  fp_read_fields : (string * region) list;
      (** container-accessor field -> region read when projected *)
  fp_write_fields : (string * region) list;
      (** container-mutator field -> region written when projected: the
          one list of index mutators *)
}

(** The repository configuration: R4's registry scope, and region
    attribution for every field of {!Types}, the index records of
    {!Index_intf} and the id pools. Connections belong to the
    atomic-part graphs they link; id pools share the Indexes region
    with the Table 1 indexes (both are global lookup structure, not
    OO7 objects). *)
let default =
  let ap = Atomic_parts and cp = Composite_parts in
  {
    fp_registry = Lint_config.default.r4;
    fp_field_regions =
      [
        ("ap_id", ap); ("ap_type", ap); ("ap_build_date", ap);
        ("ap_x", ap); ("ap_y", ap); ("ap_to", ap); ("ap_from", ap);
        ("ap_part_of", ap);
        ("conn_type", ap); ("conn_length", ap); ("conn_from", ap);
        ("conn_to", ap);
        ("cp_id", cp); ("cp_type", cp); ("cp_build_date", cp);
        ("cp_document", cp); ("cp_used_in", cp); ("cp_root_part", cp);
        ("cp_parts", cp);
        ("doc_id", Documents); ("doc_title", Documents);
        ("doc_text", Documents); ("doc_part", Documents);
        ("ba_id", Assemblies); ("ba_type", Assemblies);
        ("ba_build_date", Assemblies); ("ba_components", Assemblies);
        ("ba_super", Assemblies);
        ("ca_id", Assemblies); ("ca_type", Assemblies);
        ("ca_build_date", Assemblies); ("ca_level", Assemblies);
        ("ca_sub", Assemblies); ("ca_super", Assemblies);
        ("man_id", Manual); ("man_title", Manual); ("man_text", Manual);
        ("free", Indexes); ("free_count", Indexes);
      ];
    fp_read_fields =
      [
        ("get", Indexes); ("range", Indexes); ("iter", Indexes);
        ("size", Indexes);
      ];
    fp_write_fields = [ ("put", Indexes); ("remove", Indexes) ];
  }

(* --- The registry scan --- *)

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
   the last positional identifier its run function. An operation is
   declared read-only when a non-structural builder gets no [~writes]
   argument or an empty one ([~writes:[]]), as [Op_profile.read_only]
   reads it. *)
let registrations (config : Lint_config.r4) (u : Cmt_unit.t) =
  let ops = ref [] in
  let handle_apply fn args loc =
    match fn.exp_desc with
    | Texp_ident (p, _, _) ->
      let builder = Escape_graph.last_component p in
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

let in_universe (config : Lint_config.r4) unit_name =
  List.exists
    (fun p -> String.starts_with ~prefix:p unit_name)
    config.r4_universe_prefixes

(* --- Per-binding footprint info --- *)

type finfo = {
  mutable f_refs : (string * string) list;
  mutable f_reads : int;  (** region mask *)
  mutable f_writes : int;  (** region mask *)
  mutable f_generic : bool;
      (** performs an [R.write] whose target could not be attributed
          (writes a caller-supplied tvar) *)
  mutable f_calls : ((string * string) * int * bool) list;
      (** (callee, region mask of projected args, forwards a bare
          identifier) — for generic-writer attribution *)
  mutable f_site : (string * Location.t) option;
      (** (description, site) of the first write site: an [R.write],
          applied or merely mentioned, or an index-mutator projection *)
}

let find_info infos (unit_name, value) =
  match Hashtbl.find_opt infos unit_name with
  | None -> None
  | Some bindings -> Hashtbl.find_opt bindings value

(* Region mask of every mapped field projection syntactically inside
   [e] (object fields only: container accessors are handled at the
   projection site itself, not as write-target evidence). *)
let projection_mask config e =
  let m = ref 0 in
  let iter =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun sub e ->
          (match e.exp_desc with
          | Texp_field (_, _, lbl) -> (
            match List.assoc_opt lbl.Types.lbl_name config.fp_field_regions with
            | Some r -> m := !m lor bit r
            | None -> ())
          | _ -> ());
          Tast_iterator.default_iterator.expr sub e);
    }
  in
  iter.expr iter e;
  !m

let is_bare_ident e =
  match e.exp_desc with Texp_ident (Path.Pident _, _, _) -> true | _ -> false

let path_components p =
  let rec parts acc = function
    | Path.Pident id -> Ident.name id :: acc
    | Path.Pdot (p, s) -> parts (s :: acc) p
    | Path.Papply (p, _) -> parts acc p
    | Path.Pextra_ty (p, _) -> parts acc p
  in
  parts [] p

(* A unit's local module aliases, plus each of its own structure
   submodules mapped to the unit itself: their bindings are flattened
   into the unit's table, so [M.f] resolves to the unit's [f]. *)
let alias_table ~units (u : Cmt_unit.t) =
  let tbl = Escape_graph.collect_aliases ~units u.Cmt_unit.structure in
  Escape_graph.walk_structure
    ~on_item:(fun _ -> ())
    ~on_module:(fun name m ->
      match m.mod_desc with
      | Tmod_structure _
      | Tmod_constraint ({ mod_desc = Tmod_structure _; _ }, _, _, _)
        when not (Hashtbl.mem tbl name) ->
        Hashtbl.replace tbl name u.Cmt_unit.name
      | _ -> ())
    u.Cmt_unit.structure;
  tbl

(* Resolve an expression path to a (unit, value) reference, chasing
   {e chains} of module aliases across units ([S.B.add] where
   [module S = Setup.Make (R)] locally and [module B = Bag.Make (R)]
   inside setup.ml resolves to [Sb7_core__Bag.add]) — without it the
   bag writes of SM3/SM4 would silently vanish from their footprints.
   [alias_tables] maps each universe unit to its {!alias_table}. *)
let resolve_value ~units ~alias_tables ~unit_name p =
  let rec chase current_unit = function
    | [] -> None
    | [ v ] -> Some (current_unit, v)
    | m :: rest -> (
      match Hashtbl.find_opt alias_tables current_unit with
      | None -> None
      | Some tbl -> (
        match Hashtbl.find_opt tbl m with
        | Some target -> chase target rest
        | None -> None))
  in
  match path_components p with
  | [] -> None
  | [ v ] when not (Ident.persistent (Path.head p)) -> Some (unit_name, v)
  | head :: rest when Ident.persistent (Path.head p) -> (
    if Hashtbl.mem units head then chase head rest
    else
      (* dune wrapper alias: [Sb7_core.Bag.f] -> [Sb7_core__Bag.f]. *)
      match rest with
      | second :: rest' when Hashtbl.mem units (head ^ "__" ^ second) ->
        chase (head ^ "__" ^ second) rest'
      | _ -> None)
  | head :: rest -> (
    (* Local module path: the head is an alias in this unit. *)
    match Hashtbl.find_opt alias_tables unit_name with
    | None -> None
    | Some tbl -> (
      match Hashtbl.find_opt tbl head with
      | Some target -> chase target rest
      | None -> None))

let analyze_binding config ~units ~alias_tables ~unit_name expr (v : finfo) =
  let is_write_ident p =
    List.mem (Path.name p) config.fp_registry.Lint_config.r4_write_idents
  in
  let note_ref p =
    if not (is_write_ident p) then
      match resolve_value ~units ~alias_tables ~unit_name p with
      | Some edge -> v.f_refs <- edge :: v.f_refs
      | None -> ()
  in
  let note_site what loc =
    if v.f_site = None then v.f_site <- Some (what, loc)
  in
  let positional_args args =
    List.filter_map
      (fun (label, arg) ->
        match (label, arg) with Asttypes.Nolabel, Some a -> Some a | _ -> None)
      args
  in
  let iter =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun sub e ->
          match e.exp_desc with
          | Texp_apply (({ exp_desc = Texp_ident (p, _, _); _ } as fn), args)
            when is_write_ident p ->
            (* The write target is the first positional argument; skip
               the head identifier so the bare-mention case below does
               not also fire. *)
            note_site (Path.name p) fn.exp_loc;
            (match positional_args args with
            | target :: _ ->
              let m = projection_mask config target in
              if m <> 0 then v.f_writes <- v.f_writes lor m
              else v.f_generic <- true
            | [] -> v.f_generic <- true);
            List.iter
              (fun (_, arg) -> Option.iter (sub.Tast_iterator.expr sub) arg)
              args
          | Texp_apply (({ exp_desc = Texp_ident (p, _, _); _ } as fn), args)
            ->
            (match resolve_value ~units ~alias_tables ~unit_name p with
            | Some callee when not (is_write_ident p) ->
              let pos = positional_args args in
              let m =
                List.fold_left
                  (fun acc a -> acc lor projection_mask config a)
                  0 pos
              in
              let raw = List.exists is_bare_ident pos in
              v.f_calls <- (callee, m, raw) :: v.f_calls
            | _ -> ());
            sub.Tast_iterator.expr sub fn;
            List.iter
              (fun (_, arg) -> Option.iter (sub.Tast_iterator.expr sub) arg)
              args
          | Texp_ident (p, _, _) ->
            if is_write_ident p then begin
              (* [R.write] mentioned but not applied (partial
                 application, passed as a value): target unknowable. *)
              note_site (Path.name p) e.exp_loc;
              v.f_generic <- true
            end
            else note_ref p
          | Texp_field (inner, _, lbl) ->
            let name = lbl.Types.lbl_name in
            (match List.assoc_opt name config.fp_field_regions with
            | Some r -> v.f_reads <- v.f_reads lor bit r
            | None -> ());
            (match List.assoc_opt name config.fp_read_fields with
            | Some r -> v.f_reads <- v.f_reads lor bit r
            | None -> ());
            (match List.assoc_opt name config.fp_write_fields with
            | Some r ->
              note_site ("index mutation ." ^ name) e.exp_loc;
              v.f_writes <- v.f_writes lor bit r
            | None -> ());
            sub.Tast_iterator.expr sub inner
          | _ -> Tast_iterator.default_iterator.expr sub e);
    }
  in
  iter.expr iter expr

let unit_info config ~units ~alias_tables (u : Cmt_unit.t) =
  let bindings : (string, finfo) Hashtbl.t = Hashtbl.create 32 in
  Escape_graph.walk_structure
    ~on_module:(fun _ _ -> ())
    ~on_item:(fun item ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
        List.iter
          (fun vb ->
            match vb.vb_pat.pat_desc with
            | Tpat_var (id, _) ->
              let name = Ident.name id in
              let v =
                match Hashtbl.find_opt bindings name with
                | Some v -> v (* same name in sibling scope: merge *)
                | None ->
                  let v =
                    {
                      f_refs = [];
                      f_reads = 0;
                      f_writes = 0;
                      f_generic = false;
                      f_calls = [];
                      f_site = None;
                    }
                  in
                  Hashtbl.add bindings name v;
                  v
              in
              analyze_binding config ~units ~alias_tables
                ~unit_name:u.Cmt_unit.name vb.vb_expr v
            | _ -> ())
          vbs
      | _ -> ())
    u.Cmt_unit.structure;
  bindings

(* --- Generic-writer fixpoint ---

   Attribute caller-side regions to calls of generic writers, and
   propagate the generic flag through bare-identifier forwarding,
   until stable. *)
let resolve_generics infos =
  let changed = ref true in
  while !changed do
    changed := false;
    Hashtbl.iter
      (fun _ bindings ->
        Hashtbl.iter
          (fun _ (v : finfo) ->
            List.iter
              (fun (callee, m, raw) ->
                match find_info infos callee with
                | Some c when c.f_generic ->
                  if m <> 0 && v.f_writes lor m <> v.f_writes then begin
                    v.f_writes <- v.f_writes lor m;
                    changed := true
                  end;
                  if raw && m = 0 && not v.f_generic then begin
                    (* Nothing attributable forwarded: the caller
                       passes the tvar along untranslated. *)
                    v.f_generic <- true;
                    changed := true
                  end
                | _ -> ())
              v.f_calls)
          bindings)
      infos
  done

(* --- Reachability closure --- *)

(** The first write site reachable from a run function, for messages. *)
type witness = {
  w_unit : string;
  w_value : string;  (** the binding holding the site *)
  w_what : string;  (** ["R.write"] or ["index mutation .put"] *)
  w_loc : Location.t;
}

type op_footprint = {
  fp_code : string;
  fp_unit : string;  (** the registry unit *)
  fp_structural : bool;
  fp_declared_ro : bool;
  fp_run_name : string;
  fp_reads : region list;  (** may-read regions, writes excluded *)
  fp_writes : region list;
  fp_unresolved : bool;
      (** a reachable residual generic write survived the fixpoint *)
  fp_witness : witness option;
      (** first write site reachable from the run function, attributed
          to a region or not *)
  fp_loc : Location.t;
}

(* Union of the local footprints of every binding reachable from
   [start], and the first write site in depth-first preorder. A
   reachable generic-writer {e leaf} ([Bag.add]) is fine for the
   footprint — the fixpoint attributed its write at the call sites
   above it; only the flag on the root itself (checked by the caller)
   means a write escaped attribution. *)
let closure infos start =
  let visited = Hashtbl.create 64 in
  let reads = ref 0 and writes = ref 0 and witness = ref None in
  let rec go ((unit_name, value) as key) =
    if not (Hashtbl.mem visited key) then begin
      Hashtbl.add visited key ();
      match find_info infos key with
      | None -> ()
      | Some (v : finfo) ->
        reads := !reads lor v.f_reads;
        writes := !writes lor v.f_writes;
        (match (!witness, v.f_site) with
        | None, Some (w_what, w_loc) ->
          witness := Some { w_unit = unit_name; w_value = value; w_what; w_loc }
        | _ -> ());
        List.iter go (List.rev v.f_refs)
    end
  in
  go start;
  (!reads, !writes, !witness)

(** Infer the footprint of every operation registered in the
    configured registry units. [fp_unresolved] is set when the
    operation's own run-function closure root is a generic writer —
    i.e. some write could not be attributed to any region. *)
let infer ?(config = default) (all_units : Cmt_unit.t list) =
  let units = Hashtbl.create 64 in
  List.iter (fun u -> Hashtbl.replace units u.Cmt_unit.name ()) all_units;
  let registry = config.fp_registry in
  let in_universe = in_universe registry in
  let is_registry name = List.mem name registry.Lint_config.r4_registry_units in
  let relevant name = in_universe name || is_registry name in
  (* Alias tables first, for all relevant units, so the resolver can
     chase alias chains that cross units. *)
  let alias_tables = Hashtbl.create 32 in
  List.iter
    (fun u ->
      if relevant u.Cmt_unit.name then
        Hashtbl.replace alias_tables u.Cmt_unit.name (alias_table ~units u))
    all_units;
  let infos = Hashtbl.create 32 in
  List.iter
    (fun u ->
      if in_universe u.Cmt_unit.name then
        Hashtbl.replace infos u.Cmt_unit.name
          (unit_info config ~units ~alias_tables u))
    all_units;
  resolve_generics infos;
  List.concat_map
    (fun u ->
      let unit_name = u.Cmt_unit.name in
      if not (is_registry unit_name) then []
      else
        List.map
          (fun reg ->
            let run =
              resolve_value ~units ~alias_tables ~unit_name reg.reg_run
            in
            let reads, writes, witness =
              match run with
              | Some target -> closure infos target
              | None -> (0, 0, None)
            in
            {
              fp_code = reg.reg_code;
              fp_unit = unit_name;
              fp_structural = reg.reg_structural;
              fp_declared_ro =
                (not reg.reg_has_writes) && not reg.reg_structural;
              fp_run_name = Path.name reg.reg_run;
              fp_reads = mask_regions (reads land lnot writes);
              fp_writes = mask_regions writes;
              fp_unresolved =
                (match run with
                | None -> true
                | Some target -> (
                  match find_info infos target with
                  | Some v -> v.f_generic
                  | None -> false));
              fp_witness = witness;
              fp_loc = reg.reg_loc;
            })
          (registrations registry u))
    all_units

(* --- The profile verdict --- *)

(** Every operation whose declared profile the inference contradicts,
    with its message: a declared-read-only operation that reaches any
    write site, attributed to a region or not, would run a writer down
    the read-only path; a declared-update operation that reaches no
    write site and leaves no unresolved write should drop its
    [~writes] clause and take that path. Lint R4 reports each at its
    registration site; [sb7-footprint gen] and [matrix] refuse on
    them. *)
let profile_violations fps =
  List.filter_map
    (fun fp ->
      match fp.fp_witness with
      | Some w when fp.fp_declared_ro ->
        let pos = w.w_loc.Location.loc_start in
        Some
          ( fp,
            Printf.sprintf
              "operation %S: profile declares read-only (no ~writes) but its \
               run function %s reaches %s in %s.%s (%s:%d) — fix the profile \
               or the operation"
              fp.fp_code fp.fp_run_name w.w_what w.w_unit w.w_value
              pos.Lexing.pos_fname pos.Lexing.pos_lnum )
      | None
        when not (fp.fp_declared_ro || fp.fp_structural || fp.fp_unresolved) ->
        Some
          ( fp,
            Printf.sprintf
              "operation %S: profile declares writes but its run function %s \
               reaches no write — drop the ~writes clause so it takes the \
               read-only path"
              fp.fp_code fp.fp_run_name )
      | _ -> None)
    fps

(* --- Conflict classification --- *)

let may_read fp = fp.fp_reads @ fp.fp_writes

let classify a b =
  let inter xs ys = List.exists (fun x -> List.mem x ys) xs in
  if inter a.fp_writes b.fp_writes then `Write_write
  else if inter a.fp_writes (may_read b) || inter b.fp_writes (may_read a)
  then `Read_write
  else if inter a.fp_reads b.fp_reads then `Read_read
  else `Disjoint

let class_to_string = function
  | `Write_write -> "write-write"
  | `Read_write -> "read-write"
  | `Read_read -> "read-read"
  | `Disjoint -> "disjoint"

let pure_read fp = fp.fp_writes = [] && not fp.fp_structural
