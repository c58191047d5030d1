(** Whole-program value-granular escape graph, the substrate of rule
    R7 (domain-escape). Its structure-flattening and module-alias
    helpers are shared with the footprint inference ({!Footprint}).

    One walk per compilation unit produces a {!summary}: for every
    structure-level binding (functor bodies and nested modules
    flattened), the set of value references it makes to other
    bindings, the mutable-state accesses it performs, and the
    [Domain.spawn] sites it contains. Each closure passed to
    [Domain.spawn] becomes a pseudo-binding — a {e spawn root} — whose
    body is analyzed in a child environment where an identifier bound in
    the enclosing frame resolves to [Captured]: state of the spawning
    domain now visible to another domain.

    Accesses record the guard context the walk can prove:

    - targets bound to a fresh creator application ([ref], [Array.make],
      a record literal — {!Rule_r1.creators}) are local and dropped;
    - targets bound to a [Domain.DLS.get] result are domain-confined
      and dropped;
    - [Atomic.*] operations are never accesses (that tier is safe by
      construction);
    - the multiset of locks held at the access site is recorded: the
      walk tracks [Mutex.lock]/[unlock], [Mutex.protect],
      [Rwlock.acquire*]/[release*]/[with_lock] and the per-unit R3
      acquire/release helper table in traversal order (which is source
      order for sequences and let-chains). Held locks deliberately
      propagate into function literals: closures passed to [iter]/[map]
      run under the caller's locks, and a stored closure that is later
      run unlocked is a shape this analysis accepts as guarded — the
      dynamic sanitizer is the backstop there.
    - a write after a [Domain.spawn] in the same body to state the
      spawned closure captures (or to module-level state) is flagged
      [a_post_spawn]: it races with the running domain instead of being
      published by the spawn happens-before edge. [Domain.join] clears
      the flag — spawn/join/aggregate is the benign pattern.

    Reads are collected only when the target resolves to a module-level
    binding or a captured local: a read through an opaque parameter is
    invisible (documented approximation — the write side of any shared
    location is always resolvable, so a real race still surfaces at its
    write, and the seeded-race sanitize check is the dynamic backstop
    for read-only consumers). *)

open Typedtree

(* --- Structure flattening, shared with the footprint inference --- *)

let rec last_component = function
  | Path.Pident id -> Ident.name id
  | Path.Pdot (_, s) -> s
  | Path.Papply (p, _) -> last_component p
  | Path.Pextra_ty (p, _) -> last_component p

(* Walk a structure, flattening nested modules and functor bodies:
   [on_item] receives every structure item, [on_module] every local
   module binding name with its module expression. The sync-free core
   defines its operations inside [Make (R : Runtime_intf.S)], so
   descending into functor bodies is the common case, not the
   exception. *)
let rec walk_structure ~on_item ~on_module str =
  List.iter (walk_item ~on_item ~on_module) str.str_items

and walk_item ~on_item ~on_module item =
  on_item item;
  match item.str_desc with
  | Tstr_module mb ->
    (match mb.mb_id with
    | Some id -> on_module (Ident.name id) mb.mb_expr
    | None -> ());
    walk_module ~on_item ~on_module mb.mb_expr
  | Tstr_recmodule mbs ->
    List.iter
      (fun mb ->
        (match mb.mb_id with
        | Some id -> on_module (Ident.name id) mb.mb_expr
        | None -> ());
        walk_module ~on_item ~on_module mb.mb_expr)
      mbs
  | _ -> ()

and walk_module ~on_item ~on_module m =
  match m.mod_desc with
  | Tmod_structure str -> walk_structure ~on_item ~on_module str
  | Tmod_functor (_, body) -> walk_module ~on_item ~on_module body
  | Tmod_constraint (m, _, _, _) -> walk_module ~on_item ~on_module m
  | _ -> ()

(* [module X = Unit] or [module X = Unit.Make (R)] — the unit behind a
   local module alias, if it is one of the loaded units. *)
let rec alias_target ~units m =
  match m.mod_desc with
  | Tmod_ident (p, _) -> Cmt_unit.resolve_ref ~units p
  | Tmod_apply (f, _, _) -> alias_target ~units f
  | Tmod_constraint (m, _, _, _) -> alias_target ~units m
  | _ -> None

let collect_aliases ~units structure =
  let aliases = Hashtbl.create 8 in
  walk_structure
    ~on_item:(fun _ -> ())
    ~on_module:(fun name m ->
      match alias_target ~units m with
      | Some target -> Hashtbl.replace aliases name target
      | None -> ())
    structure;
  aliases

(* --- The graph --- *)

type access_kind = Read | Write

type target =
  | Global of string * string
      (** (unit, binding): a module-level mutable cell with a stable
          identity — the only targets the pre-spawn-frozen tier can
          reason about *)
  | Captured of string
      (** local of the spawning frame, seen from (or published to) a
          spawned closure *)
  | Opaque of string
      (** parameter or complex expression: classified by type only *)

type access = {
  a_kind : access_kind;
  a_what : string;  (** mutating/reading primitive or [.field], for messages *)
  a_target : target;
  a_type : string option;
      (** type-constructor key of the target (of the record base for
          field accesses), e.g. ["Sb7_stm__Txdesc.vtx"] — matched against
          the configured confined/tvar-managed type tiers *)
  a_locks : string list;  (** lock names held at the access site *)
  a_in_spawn : bool;
  a_post_spawn : bool;  (** follows a [Domain.spawn] in the same body *)
  a_spawn_loc : Location.t option;  (** the spawn a post-spawn write races *)
  a_loc : Location.t;
}

type binding = {
  b_unit : string;
  b_name : string;
      (** binding name; spawn pseudo-bindings are ["f@spawn:<line>"] *)
  b_loc : Location.t;
  mutable b_refs : (string * string) list;  (** (unit, binding) edges *)
  mutable b_accesses : access list;
  mutable b_spawns : Location.t list;
}

type summary = {
  s_unit : string;
  s_source : string option;
  s_bindings : (string, binding) Hashtbl.t;
  s_spawn_roots : string list;  (** keys of spawn pseudo-bindings *)
}

type build_config = {
  bc_units : (string, unit) Hashtbl.t;  (** loaded unit names *)
  bc_acquire_helpers : (string * string) list;
      (** module-local acquire helper -> lock-class name (from the R3
          spec of the unit being built, when it has one) *)
  bc_release_helpers : (string * string) list;
}

(* Shared references readers: (identifier, index of the read target). *)
let readers =
  [
    ("Stdlib.!", 0);
    ("Stdlib.Array.get", 0);
    ("Stdlib.Array.unsafe_get", 0);
    ("Stdlib.Array.length", 0);
    ("Stdlib.Array.iter", 1);
    ("Stdlib.Array.to_list", 0);
    ("Stdlib.Bytes.get", 0);
    ("Stdlib.Bytes.unsafe_get", 0);
    ("Stdlib.Hashtbl.find", 0);
    ("Stdlib.Hashtbl.find_opt", 0);
    ("Stdlib.Hashtbl.find_all", 0);
    ("Stdlib.Hashtbl.mem", 0);
    ("Stdlib.Hashtbl.length", 0);
    ("Stdlib.Hashtbl.iter", 1);
    ("Stdlib.Hashtbl.fold", 1);
    ("Stdlib.Queue.peek", 0);
    ("Stdlib.Queue.length", 0);
    ("Stdlib.Queue.is_empty", 0);
    ("Stdlib.Buffer.contents", 0);
    ("Stdlib.Buffer.length", 0);
  ]

type state = {
  cfg : build_config;
  unit_name : string;
  aliases : (string, string) Hashtbl.t;
  toplevel : (Ident.t, string) Hashtbl.t;  (** structure-level binding idents *)
  bindings : (string, binding) Hashtbl.t;
  mutable spawn_roots : string list;
}

type env = {
  e_binding : binding;  (** where refs/accesses of this walk accumulate *)
  e_fresh : (Ident.t, unit) Hashtbl.t;
  e_confined : (Ident.t, unit) Hashtbl.t;
  e_bound : (Ident.t, unit) Hashtbl.t;
  e_in_spawn : bool;
  mutable e_held : string list;
  mutable e_spawned : Location.t option;
      (** a spawn site traversed earlier in this body, not yet joined *)
  e_published : (Ident.t, unit) Hashtbl.t;
      (** enclosing locals captured by an already-traversed spawn *)
}

let binding_for st name loc =
  match Hashtbl.find_opt st.bindings name with
  | Some b -> b (* same name in sibling scope: merge *)
  | None ->
    let b =
      {
        b_unit = st.unit_name;
        b_name = name;
        b_loc = loc;
        b_refs = [];
        b_accesses = [];
        b_spawns = [];
      }
    in
    Hashtbl.add st.bindings name b;
    b

let is_dls_get e =
  match e.exp_desc with
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _) ->
    Path.name p = "Stdlib.Domain.DLS.get"
  | _ -> false

(* Type attribution follows the innermost record base: the access
   [tx.log_vals.(i) <- v] is an access to the transaction descriptor
   [tx], and [Sb7_stm__Txdesc.vtx] — not [array] — is the brand the
   confined/tvar-managed tiers match on. *)
let rec type_base (e : expression) =
  match e.exp_desc with Texp_field (b, _, _) -> type_base b | _ -> e

let type_key st (e : expression) =
  let e = type_base e in
  match Types.get_desc e.exp_type with
  | Types.Tconstr (p, _, _) -> (
    match Cmt_unit.resolve_ref ~units:st.cfg.bc_units p with
    | Some u -> Some (u ^ "." ^ last_component p)
    | None -> (
      match p with
      | Path.Pident id when not (Ident.is_predef id) ->
        Some (st.unit_name ^ "." ^ Ident.name id)
      | _ -> Some (Path.name p)))
  | _ -> None

(* Resolution of an access-target expression to an identity and guard
   tier. [`Local]/[`Confined] are proven-safe and dropped by the
   caller. *)
let rec resolve st env (e : expression) =
  match e.exp_desc with
  | Texp_ident (Path.Pident id, _, _) ->
    if Hashtbl.mem env.e_fresh id then `Local
    else if Hashtbl.mem env.e_confined id then `Confined
    else if Hashtbl.mem env.e_bound id then
      `Target (Opaque ("local " ^ Ident.name id))
    else (
      match Hashtbl.find_opt st.toplevel id with
      | Some key -> `Target (Global (st.unit_name, key))
      | None ->
        if env.e_in_spawn then `Target (Captured (Ident.name id))
        else `Target (Opaque (Ident.name id)))
  | Texp_ident (p, _, _) -> (
    match Cmt_unit.resolve_ref ~units:st.cfg.bc_units p with
    | Some u -> `Target (Global (u, last_component p))
    | None -> (
      match p with
      | Path.Pdot (Path.Pident m, field) -> (
        match Hashtbl.find_opt st.aliases (Ident.name m) with
        | Some u -> `Target (Global (u, field))
        | None ->
          (* a local submodule member: the flattening pre-scan indexed
             it under its field name *)
          if Hashtbl.mem st.bindings field then
            `Target (Global (st.unit_name, field))
          else `Target (Opaque (Path.name p)))
      | _ -> `Target (Opaque (Path.name p))))
  | Texp_field (base, _, _) -> resolve st env base
  | Texp_apply _ when is_dls_get e -> `Confined
  | Texp_apply _ when Rule_r1.is_creator e -> `Local
  | _ -> `Target (Opaque "<expr>")

let add_access st env ~kind ~what ~loc target_expr =
  let record ?spawn_loc ?(post_spawn = false) target =
    env.e_binding.b_accesses <-
      {
        a_kind = kind;
        a_what = what;
        a_target = target;
        a_type = type_key st target_expr;
        a_locks = env.e_held;
        a_in_spawn = env.e_in_spawn;
        a_post_spawn = post_spawn;
        a_spawn_loc = spawn_loc;
        a_loc = loc;
      }
      :: env.e_binding.b_accesses
  in
  (* A write racing a domain spawned earlier in this body: to a local
     the closure captured (publication after the happens-before edge),
     or to module-level state. *)
  let published_base e =
    match e.exp_desc with
    | Texp_ident (Path.Pident id, _, _) -> Hashtbl.mem env.e_published id
    | Texp_field (base, _, _) -> (
      match base.exp_desc with
      | Texp_ident (Path.Pident id, _, _) -> Hashtbl.mem env.e_published id
      | _ -> false)
    | _ -> false
  in
  match (kind, env.e_spawned) with
  | Write, Some spawn_loc when published_base target_expr ->
    let name =
      match target_expr.exp_desc with
      | Texp_ident (Path.Pident id, _, _) -> Ident.name id
      | Texp_field ({ exp_desc = Texp_ident (Path.Pident id, _, _); _ }, _, _)
        ->
        Ident.name id
      | _ -> "<local>"
    in
    record ~spawn_loc ~post_spawn:true (Captured name)
  | _ -> (
    match resolve st env target_expr with
    | `Local | `Confined -> ()
    | `Target target -> (
      match (kind, env.e_spawned, target) with
      | Write, Some spawn_loc, Global _ ->
        record ~spawn_loc ~post_spawn:true target
      | _ -> record target))

let note_ref st env p =
  match Cmt_unit.resolve_ref ~units:st.cfg.bc_units p with
  | Some target ->
    env.e_binding.b_refs <- (target, last_component p) :: env.e_binding.b_refs
  | None -> (
    match p with
    | Path.Pdot (Path.Pident m, field) -> (
      match Hashtbl.find_opt st.aliases (Ident.name m) with
      | Some target ->
        env.e_binding.b_refs <- (target, field) :: env.e_binding.b_refs
      | None ->
        if Hashtbl.mem st.bindings field then
          env.e_binding.b_refs <- (st.unit_name, field) :: env.e_binding.b_refs)
    | Path.Pident id -> (
      match Hashtbl.find_opt st.toplevel id with
      | Some key ->
        env.e_binding.b_refs <- (st.unit_name, key) :: env.e_binding.b_refs
      | None -> ())
    | _ -> ())

(* Name of the lock denoted by a lock-operation argument. *)
let lock_name (e : expression) =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> last_component p
  | Texp_field (_, _, lbl) -> lbl.Types.lbl_name
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _) -> last_component p
  | _ -> "<lock>"

let release held name =
  let rec drop = function
    | [] -> []
    | h :: t -> if h = name then t else h :: drop t
  in
  drop held

let line_of (loc : Location.t) = loc.Location.loc_start.Lexing.pos_lnum

let rec walk st env (e : expression) =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> note_ref st env p
  | Texp_field (base, _, lbl) ->
    (if lbl.Types.lbl_mut = Asttypes.Mutable then
       match resolve st env base with
       | `Target ((Global _ | Captured _) as target) ->
         env.e_binding.b_accesses <-
           {
             a_kind = Read;
             a_what = "." ^ lbl.Types.lbl_name;
             a_target = target;
             a_type = type_key st base;
             a_locks = env.e_held;
             a_in_spawn = env.e_in_spawn;
             a_post_spawn = false;
             a_spawn_loc = None;
             a_loc = e.exp_loc;
           }
           :: env.e_binding.b_accesses
       | _ -> ());
    walk st env base
  | Texp_setfield (base, _, lbl, v) ->
    add_access st env ~kind:Write ~what:("." ^ lbl.Types.lbl_name)
      ~loc:e.exp_loc base;
    walk st env base;
    walk st env v
  | Texp_apply (({ exp_desc = Texp_ident (p, _, _); _ } as fn), args) ->
    handle_apply st env fn p args e
  | _ ->
    let it = iterator st env in
    Tast_iterator.default_iterator.expr it e

and handle_apply st env fn p args e =
  let name = Path.name p in
  let walk_all () =
    walk st env fn;
    List.iter (fun (_, arg) -> Option.iter (walk st env) arg) args
  in
  let bracket lock_arg =
    (* protect/with_lock wrappers: args run under the lock *)
    let l = lock_name lock_arg in
    walk st env fn;
    env.e_held <- l :: env.e_held;
    List.iter (fun (_, arg) -> Option.iter (walk st env) arg) args;
    env.e_held <- release env.e_held l
  in
  if name = "Stdlib.Domain.spawn" then begin
    (match Rule_r1.nth_positional args 0 with
    | Some closure -> spawn_site st env closure e.exp_loc
    | None -> ());
    walk st env fn
  end
  else if name = "Stdlib.Domain.join" then begin
    (* spawn / join / aggregate: after a join the spawned domains are
       gone and writes stop racing them *)
    env.e_spawned <- None;
    Hashtbl.reset env.e_published;
    walk_all ()
  end
  else if name = "Stdlib.Mutex.lock" || name = "Stdlib.Mutex.try_lock" then begin
    walk_all ();
    match Rule_r1.nth_positional args 0 with
    | Some l -> env.e_held <- lock_name l :: env.e_held
    | None -> ()
  end
  else if name = "Stdlib.Mutex.unlock" then begin
    walk_all ();
    match Rule_r1.nth_positional args 0 with
    | Some l -> env.e_held <- release env.e_held (lock_name l)
    | None -> ()
  end
  else if name = "Stdlib.Mutex.protect" then
    match Rule_r1.nth_positional args 0 with
    | Some l -> bracket l
    | None -> walk_all ()
  else begin
    (match Rule_r3.rwlock_op p with
    | Some op when List.mem op Rule_r3.acquire_ops -> (
      walk_all ();
      match Rule_r1.nth_positional args 0 with
      | Some l -> env.e_held <- lock_name l :: env.e_held
      | None -> ())
    | Some op when List.mem op Rule_r3.release_ops -> (
      walk_all ();
      match Rule_r1.nth_positional args 0 with
      | Some l -> env.e_held <- release env.e_held (lock_name l)
      | None -> ())
    | Some "with_lock" -> (
      match Rule_r1.nth_positional args 0 with
      | Some l -> bracket l
      | None -> walk_all ())
    | _ ->
      let last = last_component p in
      (match List.assoc_opt last st.cfg.bc_acquire_helpers with
      | Some cls ->
        walk_all ();
        env.e_held <- cls :: env.e_held
      | None -> (
        match List.assoc_opt last st.cfg.bc_release_helpers with
        | Some cls ->
          walk_all ();
          env.e_held <- release env.e_held cls
        | None ->
          if String.starts_with ~prefix:"Stdlib.Atomic." name then walk_all ()
          else begin
            (match List.assoc_opt name readers with
            | Some idx -> (
              match Rule_r1.nth_positional args idx with
              | Some target -> (
                match resolve st env target with
                | `Target ((Global _ | Captured _) as tgt) ->
                  env.e_binding.b_accesses <-
                    {
                      a_kind = Read;
                      a_what = name;
                      a_target = tgt;
                      a_type = type_key st target;
                      a_locks = env.e_held;
                      a_in_spawn = env.e_in_spawn;
                      a_post_spawn = false;
                      a_spawn_loc = None;
                      a_loc = e.exp_loc;
                    }
                    :: env.e_binding.b_accesses
                | _ -> ())
              | None -> ())
            | None -> (
              match List.assoc_opt name Rule_r1.mutators with
              | Some idx -> (
                match Rule_r1.nth_positional args idx with
                | Some target ->
                  add_access st env ~kind:Write ~what:name ~loc:e.exp_loc
                    target
                | None -> ())
              | None -> ()));
            walk_all ()
          end)))
  end

and spawn_site st env closure spawn_loc =
  let parent = env.e_binding in
  parent.b_spawns <- spawn_loc :: parent.b_spawns;
  let key =
    Printf.sprintf "%s@spawn:%d" parent.b_name (line_of spawn_loc)
  in
  let b = binding_for st key spawn_loc in
  st.spawn_roots <- key :: st.spawn_roots;
  let child =
    {
      e_binding = b;
      e_fresh = Hashtbl.create 16;
      e_confined = Hashtbl.create 4;
      e_bound = Hashtbl.create 16;
      e_in_spawn = true;
      e_held = [];
      e_spawned = None;
      e_published = Hashtbl.create 4;
    }
  in
  walk st child closure;
  (* Everything the closure references from the enclosing frame is now
     visible to the spawned domain: a later write to it in this body
     races the domain instead of being published by the spawn edge. *)
  let capture_scan =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun sub e ->
          (match e.exp_desc with
          | Texp_ident (Path.Pident id, _, _)
            when (not (Hashtbl.mem child.e_bound id))
                 && (not (Hashtbl.mem child.e_fresh id))
                 && (not (Hashtbl.mem child.e_confined id))
                 && not (Hashtbl.mem st.toplevel id) ->
            Hashtbl.replace env.e_published id ()
          | _ -> ());
          Tast_iterator.default_iterator.expr sub e);
    }
  in
  capture_scan.expr capture_scan closure;
  env.e_spawned <- Some spawn_loc

and register_vb env vb =
  List.iter
    (fun id -> Hashtbl.replace env.e_bound id ())
    (pat_bound_idents vb.vb_pat);
  match vb.vb_pat.pat_desc with
  | Tpat_var (id, _) | Tpat_alias (_, id, _) ->
    if Rule_r1.is_creator vb.vb_expr then Hashtbl.replace env.e_fresh id ()
    else if is_dls_get vb.vb_expr then Hashtbl.replace env.e_confined id ()
  | _ -> ()

and iterator st env =
  {
    Tast_iterator.default_iterator with
    expr = (fun _ e -> walk st env e);
    value_binding =
      (fun sub vb ->
        register_vb env vb;
        Tast_iterator.default_iterator.value_binding sub vb);
    case =
      (fun sub c ->
        List.iter
          (fun id -> Hashtbl.replace env.e_bound id ())
          (pat_bound_idents c.c_lhs);
        Tast_iterator.default_iterator.case sub c);
  }

let build (cfg : build_config) (u : Cmt_unit.t) =
  let st =
    {
      cfg;
      unit_name = u.Cmt_unit.name;
      aliases = collect_aliases ~units:cfg.bc_units u.Cmt_unit.structure;
      toplevel = Hashtbl.create 32;
      bindings = Hashtbl.create 32;
      spawn_roots = [];
    }
  in
  (* Pre-scan: index every structure-level binding (so same-unit
     references resolve by ident, and local-submodule members resolve
     by name) before any body is analyzed — bodies reference bindings
     defined later in the file through [let rec] and functors. *)
  walk_structure
    ~on_module:(fun _ _ -> ())
    ~on_item:(fun item ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
        List.iter
          (fun vb ->
            match vb.vb_pat.pat_desc with
            | Tpat_var (id, _) | Tpat_alias (_, id, _) ->
              let name = Ident.name id in
              Hashtbl.replace st.toplevel id name;
              ignore (binding_for st name vb.vb_pat.pat_loc)
            | _ -> ())
          vbs
      | _ -> ())
    u.Cmt_unit.structure;
  walk_structure
    ~on_module:(fun _ _ -> ())
    ~on_item:(fun item ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
        List.iter
          (fun vb ->
            match vb.vb_pat.pat_desc with
            | Tpat_var (id, _) | Tpat_alias (_, id, _) ->
              let b = binding_for st (Ident.name id) vb.vb_pat.pat_loc in
              let env =
                {
                  e_binding = b;
                  e_fresh = Hashtbl.create 16;
                  e_confined = Hashtbl.create 4;
                  e_bound = Hashtbl.create 16;
                  e_in_spawn = false;
                  e_held = [];
                  e_spawned = None;
                  e_published = Hashtbl.create 4;
                }
              in
              walk st env vb.vb_expr
            | _ -> ())
          vbs
      | _ -> ())
    u.Cmt_unit.structure;
  {
    s_unit = u.Cmt_unit.name;
    s_source = u.Cmt_unit.source;
    s_bindings = st.bindings;
    s_spawn_roots = List.rev st.spawn_roots;
  }
