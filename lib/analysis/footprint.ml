(** sb7-footprint — static may-read / may-write footprint inference.

    Where rule R4 answers the boolean question "can this declared
    read-only operation reach a write at all?", this pass answers the
    quantitative one: {e which parts of the OO7 structure} can each of
    the 45 registered operations read and write. Footprints are
    computed over a six-element abstract-region lattice — indexes (the
    Table 1 indexes plus the id pools), assemblies (base and complex,
    every level), composite parts, atomic-part graphs, documents and
    the manual — deliberately coarser than [Op_profile.domain] (which
    splits assemblies per level) so that a region can be attributed to
    every tvar at creation time by [Region_ctx] and cross-checked
    dynamically by the sanitizer's footprint replay.

    The inference extends R4's value-granular reference graph:

    1. Every top-level binding of the core universe (functor bodies
       included) gets a local footprint: a field projection whose label
       is region-mapped ([ap_build_date], [cp_used_in], ...) is
       evidence of reading that region; an application of the runtime
       write primitive ([R.write]) whose tvar argument contains a
       region-mapped projection writes that region; projecting an
       index-record mutator ([.put] / [.remove]) writes the Indexes
       region, an accessor ([.get] / [.range] / [.iter] / [.size])
       reads it.
    2. An [R.write] whose tvar argument carries no mapped projection
       writes {e some caller-supplied} tvar — the binding is a
       {e generic writer} ([Bag.add], [update_build_date_tvar]). A
       fixpoint pushes the attribution to call sites: a call of a
       generic writer with region-mapped projections among its
       arguments writes those regions; a call forwarding a bare
       identifier makes the caller a generic writer in turn.
    3. An operation's footprint is the union over every binding
       reachable from its run function in the reference graph.

    Approximations are on the strict (over-approximating) side: any
    mapped projection counts as a read even if the field is immutable;
    all projected regions of a generic-writer call count as written.
    An operation left with an unattributable residual write is
    reported [fp_unresolved] — the generator refuses to emit a table
    containing one. *)

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
  fp_registry_units : string list;
  fp_builders : (string * bool) list;
      (** operation-registering builder -> is-structural *)
  fp_universe_prefixes : string list;
  fp_write_idents : string list;  (** the runtime write primitive *)
  fp_field_regions : (string * region) list;
      (** object-field label -> region of the containing object *)
  fp_read_fields : (string * region) list;
      (** container-accessor field -> region read when projected *)
  fp_write_fields : (string * region) list;
      (** container-mutator field -> region written when projected *)
}

(** The repository configuration: region attribution for every field
    of {!Types}, the index records of {!Index_intf} and the id pools.
    Connections belong to the atomic-part graphs they link; id pools
    share the Indexes region with the Table 1 indexes (both are global
    lookup structure, not OO7 objects). *)
let default =
  let ap = Atomic_parts and cp = Composite_parts in
  {
    fp_registry_units = [ "Sb7_core__Operation" ];
    fp_builders =
      [
        ("long_traversal", false);
        ("short_traversal", false);
        ("short_operation", false);
        ("structure_mod", true);
      ];
    fp_universe_prefixes = [ "Sb7_core__" ];
    fp_write_idents = [ "R.write" ];
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
}

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

(* Resolve an expression path to a (unit, value) reference. Unlike
   R4's single-level scheme this chases {e chains} of module aliases
   across units ([S.B.add] where [module S = Setup.Make (R)] locally
   and [module B = Bag.Make (R)] inside setup.ml resolves to
   [Sb7_core__Bag.add]) — without it the bag writes of SM3/SM4 would
   silently vanish from their footprints. [alias_tables] maps each
   universe unit to its local-module-alias table. *)
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
  let is_write_ident p = List.mem (Path.name p) config.fp_write_idents in
  let note_ref p =
    if not (is_write_ident p) then
      match resolve_value ~units ~alias_tables ~unit_name p with
      | Some edge -> v.f_refs <- edge :: v.f_refs
      | None -> ()
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
          | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args)
            when is_write_ident p ->
            (* The write target is the first positional argument; skip
               the head identifier so the bare-mention case below does
               not also fire. *)
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
            if is_write_ident p then
              (* [R.write] mentioned but not applied (partial
                 application, passed as a value): target unknowable. *)
              v.f_generic <- true
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
            | Some r -> v.f_writes <- v.f_writes lor bit r
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
  let lookup (unit_name, value) =
    match Hashtbl.find_opt infos unit_name with
    | None -> None
    | Some bindings -> Hashtbl.find_opt bindings value
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Hashtbl.iter
      (fun _ bindings ->
        Hashtbl.iter
          (fun _ (v : finfo) ->
            List.iter
              (fun (callee, m, raw) ->
                match lookup callee with
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

(* --- Registry extraction: all registered operations --- *)

type registered = {
  reg_code : string;
  reg_structural : bool;
  reg_declared_ro : bool;
  reg_run : (string * string) option;
  reg_run_name : string;
  reg_loc : Location.t;
}

let registered_ops config ~units ~alias_tables (u : Cmt_unit.t) =
  let ops = ref [] in
  let handle_apply fn args loc =
    match fn.exp_desc with
    | Texp_ident (p, _, _) -> (
      match
        List.assoc_opt (Rule_r4.last_component p) config.fp_builders
      with
      | None -> ()
      | Some structural -> (
        let code =
          List.find_map
            (fun (label, arg) ->
              match (label, arg) with
              | Asttypes.Nolabel, Some a -> Rule_r4.const_string a
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
              | Some a -> not (Rule_r4.is_none_construct a)
              | None -> false)
            args
        in
        let run =
          List.fold_left
            (fun acc (label, arg) ->
              match (label, arg) with
              | Asttypes.Nolabel, Some a -> (
                match (Rule_r4.unwrap_option_arg a).exp_desc with
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
              reg_declared_ro = (not has_writes) && not structural;
              reg_run =
                resolve_value ~units ~alias_tables
                  ~unit_name:u.Cmt_unit.name rp;
              reg_run_name = Path.name rp;
              reg_loc = loc;
            }
            :: !ops
        | _ -> ()))
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

(* --- Reachability closure --- *)

type op_footprint = {
  fp_code : string;
  fp_structural : bool;
  fp_declared_ro : bool;
  fp_run_name : string;
  fp_reads : region list;  (** may-read regions, writes excluded *)
  fp_writes : region list;
  fp_unresolved : bool;
      (** a reachable residual generic write survived the fixpoint *)
  fp_loc : Location.t;
}

(* Union of the local footprints of every binding reachable from
   [start]. A reachable generic-writer {e leaf} ([Bag.add]) is fine —
   the fixpoint attributed its write at the call sites above it; only
   the flag on the root itself (checked by the caller) means a write
   escaped attribution. *)
let closure infos start =
  let visited = Hashtbl.create 64 in
  let reads = ref 0 and writes = ref 0 in
  let rec go (unit_name, value) =
    if not (Hashtbl.mem visited (unit_name, value)) then begin
      Hashtbl.add visited (unit_name, value) ();
      match Hashtbl.find_opt infos unit_name with
      | None -> ()
      | Some bindings -> (
        match Hashtbl.find_opt bindings value with
        | None -> ()
        | Some (v : finfo) ->
          reads := !reads lor v.f_reads;
          writes := !writes lor v.f_writes;
          List.iter go (List.rev v.f_refs))
    end
  in
  go start;
  (!reads, !writes)

let in_universe config unit_name =
  List.exists
    (fun p -> String.starts_with ~prefix:p unit_name)
    config.fp_universe_prefixes

(** Infer the footprint of every operation registered in the
    configured registry units. [fp_unresolved] is set when the
    operation's own run-function closure root is a generic writer —
    i.e. some write could not be attributed to any region. *)
let infer ?(config = default) (all_units : Cmt_unit.t list) =
  let units = Hashtbl.create 64 in
  List.iter (fun u -> Hashtbl.replace units u.Cmt_unit.name ()) all_units;
  let relevant name =
    in_universe config name || List.mem name config.fp_registry_units
  in
  (* Alias tables first, for all relevant units, so the resolver can
     chase alias chains that cross units. *)
  let alias_tables = Hashtbl.create 32 in
  List.iter
    (fun u ->
      if relevant u.Cmt_unit.name then
        Hashtbl.replace alias_tables u.Cmt_unit.name
          (Escape_graph.collect_aliases ~units u.Cmt_unit.structure))
    all_units;
  let infos = Hashtbl.create 32 in
  List.iter
    (fun u ->
      if in_universe config u.Cmt_unit.name then
        Hashtbl.replace infos u.Cmt_unit.name
          (unit_info config ~units ~alias_tables u))
    all_units;
  resolve_generics infos;
  let root_generic (unit_name, value) =
    match Hashtbl.find_opt infos unit_name with
    | None -> false
    | Some bindings -> (
      match Hashtbl.find_opt bindings value with
      | None -> false
      | Some v -> v.f_generic)
  in
  List.concat_map
    (fun u ->
      if not (List.mem u.Cmt_unit.name config.fp_registry_units) then []
      else
        List.map
          (fun reg ->
            let reads, writes =
              match reg.reg_run with
              | Some target -> closure infos target
              | None -> (0, 0)
            in
            {
              fp_code = reg.reg_code;
              fp_structural = reg.reg_structural;
              fp_declared_ro = reg.reg_declared_ro;
              fp_run_name = reg.reg_run_name;
              fp_reads = mask_regions (reads land lnot writes);
              fp_writes = mask_regions writes;
              fp_unresolved =
                (match reg.reg_run with
                | None -> true
                | Some target -> root_generic target);
              fp_loc = reg.reg_loc;
            })
          (registered_ops config ~units ~alias_tables u))
    all_units

(* --- Conflict classification (mirrors Sb7_core.Op_footprint) --- *)

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
