(** R7 — domain-escape.

    Eraser for the typed AST: every mutable location reachable from a
    domain root (a closure passed to [Domain.spawn], or a configured
    cross-domain entry point such as a runtime's [atomic]) is shared
    state, and must be classifiable against the guard lattice:

    - {b Atomic}: [Atomic.*] operations, safe by construction (never
      even collected as accesses);
    - {b tvar-managed}: accesses whose target type is a configured
      tvar type — the substrate's own versioned-lock protocol guards
      them (that protocol is what R1–R6 and the sanitizer audit);
    - {b DLS-confined}: targets bound to a [Domain.DLS.get] result, or
      whose type is a configured per-domain context type (transaction
      descriptors, per-worker stats);
    - {b lock-guarded}: at least one Mutex/Rwlock (or declared R3
      helper class) is held at the access site;
    - {b pre-spawn-frozen}: a read of a module-level cell that no
      domain-reachable code writes — every write happens in
      initialization code that runs before the spawns, so the spawn
      happens-before edge publishes it.

    Anything else is a [domain-escape] error carrying the full escape
    path (spawn root → reference chain → access site) as related
    locations. Deliberate benign cases get binding-granular
    {!Lint_config.r7_allowed} entries, each with a written
    justification — the R5 Obj-allowlist policy applied to races. *)

let rule = "domain-escape"

type root_reason = Spawn | Configured

let target_desc (a : Escape_graph.access) =
  match a.Escape_graph.a_target with
  | Escape_graph.Global (u, n) -> Printf.sprintf "%s.%s" u n
  | Escape_graph.Captured n -> Printf.sprintf "captured local %S" n
  | Escape_graph.Opaque d -> (
    match a.Escape_graph.a_type with
    | Some ty -> Printf.sprintf "%s (type %s)" d ty
    | None -> d)

let matches_type keyed = function
  | None -> false
  | Some ty -> List.mem_assoc ty keyed

(* An allowlist entry (unit, binding, _) covers the binding and the
   spawn pseudo-bindings rooted in it. *)
let allowlisted (cfg : Lint_config.r7) ~unit_name ~binding =
  List.exists
    (fun (u, b, _) ->
      String.equal u unit_name
      &&
      match b with
      | None -> true
      | Some b ->
        String.equal b binding
        || String.starts_with ~prefix:(b ^ "@spawn:") binding)
    cfg.Lint_config.r7_allowed

(* [summaries] is the engine's escape graph over exactly R7's scope. *)
let check (cfg : Lint_config.r7)
    (summaries : (string, Escape_graph.summary) Hashtbl.t) =
  let binding_of u b =
    match Hashtbl.find_opt summaries u with
    | None -> None
    | Some s -> Hashtbl.find_opt s.Escape_graph.s_bindings b
  in
  (* Roots: every spawn closure, plus the configured entry points that
     run on worker domains but are only called through functor
     parameters (invisible to the value graph). *)
  let parent :
      (string * string, (string * string) option * root_reason) Hashtbl.t =
    Hashtbl.create 256
  in
  let q = Queue.create () in
  let add_root u b reason =
    if (not (Hashtbl.mem parent (u, b))) && binding_of u b <> None then begin
      Hashtbl.add parent (u, b) (None, reason);
      Queue.add (u, b) q
    end
  in
  Hashtbl.iter
    (fun uname s ->
      List.iter
        (fun k -> add_root uname k Spawn)
        s.Escape_graph.s_spawn_roots)
    summaries;
  List.iter
    (fun (u, b) ->
      match b with
      | Some b -> add_root u b Configured
      | None -> (
        match Hashtbl.find_opt summaries u with
        | None -> ()
        | Some s ->
          Hashtbl.iter
            (fun k _ -> add_root u k Configured)
            s.Escape_graph.s_bindings))
    cfg.Lint_config.r7_roots;
  while not (Queue.is_empty q) do
    let u, b = Queue.pop q in
    match binding_of u b with
    | None -> ()
    | Some bd ->
      List.iter
        (fun (u', b') ->
          if binding_of u' b' <> None && not (Hashtbl.mem parent (u', b'))
          then begin
            Hashtbl.add parent (u', b') (Some (u, b), Spawn);
            Queue.add (u', b') q
          end)
        (List.rev bd.Escape_graph.b_refs)
  done;
  (* Accesses the spawned domains can perform — plus post-spawn writes,
     which race a spawned domain from the spawning body itself. *)
  let considered = ref [] in
  Hashtbl.iter
    (fun _ s ->
      Hashtbl.iter
        (fun bname (bd : Escape_graph.binding) ->
          let reachable = Hashtbl.mem parent (s.Escape_graph.s_unit, bname) in
          List.iter
            (fun (a : Escape_graph.access) ->
              if reachable || a.Escape_graph.a_post_spawn then
                considered := (bd, a) :: !considered)
            bd.Escape_graph.b_accesses)
        s.Escape_graph.s_bindings)
    summaries;
  (* Module-level cells with a domain-era write: their readers are not
     pre-spawn-frozen. Allowlisted writers don't disqualify — their
     justification covers the publication story. *)
  let hot_writes = Hashtbl.create 64 in
  List.iter
    (fun ((bd : Escape_graph.binding), (a : Escape_graph.access)) ->
      match (a.Escape_graph.a_kind, a.Escape_graph.a_target) with
      | Escape_graph.Write, Escape_graph.Global (u, n) ->
        if
          not
            (allowlisted cfg ~unit_name:bd.Escape_graph.b_unit
               ~binding:bd.Escape_graph.b_name)
        then Hashtbl.replace hot_writes (u, n) ()
      | _ -> ())
    !considered;
  let chain_to_root u b =
    let rec go acc u b =
      match Hashtbl.find_opt parent (u, b) with
      | None -> acc
      | Some (None, reason) -> ((u, b), reason) :: acc
      | Some (Some (pu, pb), _) -> go (((u, b), Spawn) :: acc) pu pb
    in
    go [] u b
  in
  let findings = ref [] in
  let report (bd : Escape_graph.binding) (a : Escape_graph.access) =
    let u = bd.Escape_graph.b_unit in
    let desc = target_desc a in
    let kind_str =
      match a.Escape_graph.a_kind with
      | Escape_graph.Read -> "read"
      | Escape_graph.Write -> "write"
    in
    let related =
      if a.Escape_graph.a_post_spawn then
        match a.Escape_graph.a_spawn_loc with
        | Some sl ->
          [ Lint_finding.related_of_loc "the racing Domain.spawn" sl ]
        | None -> []
      else
        (* root-first escape path; the finding location is the access *)
        List.filter_map
          (fun (((cu, cb), reason) : (string * string) * root_reason) ->
            match binding_of cu cb with
            | None -> None
            | Some hop ->
              let label =
                match reason with
                | Spawn when Hashtbl.find_opt parent (cu, cb) = Some (None, Spawn)
                  ->
                  Printf.sprintf "spawn root %s" cb
                | Spawn -> Printf.sprintf "reached via %s.%s" cu cb
                | Configured ->
                  Printf.sprintf "configured domain entry point %s.%s" cu cb
              in
              Some
                (Lint_finding.related_of_loc label hop.Escape_graph.b_loc))
          (chain_to_root u bd.Escape_graph.b_name)
    in
    let message =
      if a.Escape_graph.a_post_spawn then
        Printf.sprintf
          "%s of %s (%s) after Domain.spawn: the spawned closure sees this \
           location, so the write races the running domain instead of being \
           published by the spawn happens-before edge; move it before the \
           spawn, guard both sides, or add a justified Lint_config.r7_allowed \
           entry"
          kind_str desc a.Escape_graph.a_what
      else
        Printf.sprintf
          "unguarded cross-domain %s of %s (%s): reachable from a domain \
           root but not Atomic, tvar-managed, DLS-confined, lock-guarded or \
           pre-spawn-frozen; guard it or add a justified \
           Lint_config.r7_allowed entry"
          kind_str desc a.Escape_graph.a_what
    in
    findings :=
      Lint_finding.make ~rule ~loc:a.Escape_graph.a_loc ~unit_name:u ~related
        message
      :: !findings
  in
  List.iter
    (fun ((bd : Escape_graph.binding), (a : Escape_graph.access)) ->
      if
        not
          (allowlisted cfg ~unit_name:bd.Escape_graph.b_unit
             ~binding:bd.Escape_graph.b_name)
        && a.Escape_graph.a_locks = []
        && (not (matches_type cfg.Lint_config.r7_confined_types a.Escape_graph.a_type))
        && not (matches_type cfg.Lint_config.r7_tvar_types a.Escape_graph.a_type)
      then
        match a.Escape_graph.a_target with
        | Escape_graph.Global (gu, gn)
          when a.Escape_graph.a_kind = Escape_graph.Read
               && (not a.Escape_graph.a_post_spawn)
               && not (Hashtbl.mem hot_writes (gu, gn)) ->
          () (* pre-spawn-frozen *)
        | _ -> report bd a)
    !considered;
  List.rev !findings
