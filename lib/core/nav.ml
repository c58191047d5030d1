(** Shared traversal helpers over the object graph. *)

(* Visited sets keyed by object id: [Hashtbl.Make (Int)] compares and
   hashes ids monomorphically, where the generic [Hashtbl] calls the
   polymorphic compare on every probe. *)
module Id_set = Hashtbl.Make (Int)

module Make (R : Sb7_runtime.Runtime_intf.S) = struct
  module T = Types.Make (R)
  module S = Setup.Make (R)

  (** Depth-first search over a composite part's atomic-part graph,
      following outgoing connections from the root part; [f] is applied
      to each part exactly once. Returns the number of parts visited
      (always the whole graph: construction guarantees connectivity). *)
  let dfs_atomic_graph (root : T.atomic_part) f =
    let visited = Id_set.create 64 in
    let rec go (part : T.atomic_part) =
      if not (Id_set.mem visited part.T.ap_id) then begin
        Id_set.add visited part.T.ap_id ();
        f part;
        List.iter (fun (c : T.connection) -> go c.T.conn_to) (R.read part.T.ap_to)
      end
    in
    go root;
    Id_set.length visited

  (** Depth-first walk of the assembly tree from [root]. *)
  let rec iter_assemblies (root : T.complex_assembly) ~on_complex ~on_base =
    on_complex root;
    List.iter
      (function
        | T.Complex c -> iter_assemblies c ~on_complex ~on_base
        | T.Base b -> on_base b)
      (R.read root.T.ca_sub)

  (** Apply [visit_cp] to every composite part of every base assembly,
      depth-first from the design root — once per (assembly, part)
      reference, as composite parts are shared. Returns the summed
      results.

      Checkpointed: each (base assembly, composite part) visit is one
      resumable unit, and a watermark is recorded with [R.checkpoint]
      at unit ENTRY — mark [k] stands for "k units completed" and its
      read-set prefix excludes unit [k]'s own graph reads. That
      placement matters: concurrent writers mostly invalidate the unit
      currently being traversed, and an entry mark lets the rollback
      salvage every completed unit while re-running only the
      invalidated one (an exit mark would force the rollback past the
      whole current unit's prefix). On a conflict the runtime rolls
      back to the newest still-valid watermark and re-runs this
      function, which consults [R.resume], skips the salvaged units
      and does NOT re-record the live mark for the unit it resumes
      at — re-checkpointing it would shift the mark/unit alignment.
      Skeleton re-reads during the skip phase hit the retained
      read-set prefix (dedup), so resuming costs the tree walk but
      none of the per-part graph work. On runtimes without the
      capability both calls are no-ops and this is the plain full
      traversal. *)
  let traverse_composite_parts setup visit_cp =
    let salvaged, saved = R.resume () in
    (* [salvaged] marks mean marks 0..salvaged-1 are live; the newest,
       mark salvaged-1, stands for salvaged-1 completed units. *)
    let skip = if salvaged = 0 then 0 else salvaged - 1 in
    let total = ref saved in
    let unit_no = ref 0 in
    iter_assemblies setup.S.module_.T.mod_design_root
      ~on_complex:(fun _ -> ())
      ~on_base:(fun ba ->
        List.iter
          (fun cp ->
            if !unit_no >= skip then begin
              if !unit_no > skip || salvaged = 0 then R.checkpoint ~acc:!total;
              total := !total + visit_cp cp
            end;
            incr unit_no)
          (R.read ba.T.ba_components));
    !total

  (** Random root-to-base-assembly descent (the ST1/ST2 path). *)
  let rec descend_random rng (a : T.assembly) : T.base_assembly =
    match a with
    | T.Base ba -> ba
    | T.Complex ca -> (
      match R.read ca.T.ca_sub with
      | [] -> Common.fail "descent reached a childless complex assembly"
      | children -> descend_random rng (Sb_random.element rng children))

  let random_base_assembly rng setup =
    descend_random rng (T.Complex setup.S.module_.T.mod_design_root)

  (** The base assembly's random composite part, or operation failure if
      it has none (the specified ST1/ST2 failure mode). *)
  let random_component rng (ba : T.base_assembly) =
    match R.read ba.T.ba_components with
    | [] -> Common.fail "base assembly has no composite parts"
    | components -> Sb_random.element rng components

  (** Walk from [start] up through ascendant complex assemblies to the
      root, visiting each at most once (the ST3 bottom-up traversal);
      [f] is applied per first visit. Returns the visit count. *)
  let ascend_complex_assemblies (bas : T.base_assembly list) f =
    let visited = Id_set.create 16 in
    let rec up (ca : T.complex_assembly option) =
      match ca with
      | None -> ()
      | Some c ->
        if not (Id_set.mem visited c.T.ca_id) then begin
          Id_set.add visited c.T.ca_id ();
          f c;
          up c.T.ca_super
        end
    in
    List.iter (fun (ba : T.base_assembly) -> up ba.T.ba_super) bas;
    Id_set.length visited

  (* Random existing-or-not IDs, drawn over each pool's full capacity:
     lookups miss when the ID is currently unused — the specified
     failure mode of the index-based operations. *)

  let random_atomic_part_id rng setup =
    Sb_random.in_range rng 1 (S.Pool.capacity setup.S.ap_pool)

  let random_composite_part_id rng setup =
    Sb_random.in_range rng 1 (S.Pool.capacity setup.S.cp_pool)

  let random_base_assembly_id rng setup =
    Sb_random.in_range rng 1 (S.Pool.capacity setup.S.ba_pool)

  let random_complex_assembly_id rng setup =
    Sb_random.in_range rng 1 (S.Pool.capacity setup.S.ca_pool)

  let lookup_atomic_part rng setup =
    let id = random_atomic_part_id rng setup in
    match setup.S.ap_id_index.get id with
    | Some p -> p
    | None -> Common.fail "no atomic part with the drawn id"

  let lookup_composite_part rng setup =
    let id = random_composite_part_id rng setup in
    match setup.S.cp_id_index.get id with
    | Some p -> p
    | None -> Common.fail "no composite part with the drawn id"

  let lookup_base_assembly rng setup =
    let id = random_base_assembly_id rng setup in
    match setup.S.ba_id_index.get id with
    | Some b -> b
    | None -> Common.fail "no base assembly with the drawn id"

  let lookup_complex_assembly rng setup =
    let id = random_complex_assembly_id rng setup in
    match setup.S.ca_id_index.get id with
    | Some c -> c
    | None -> Common.fail "no complex assembly with the drawn id"
end
