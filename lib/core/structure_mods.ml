(** The eight structure-modification operations SM1–SM8 (paper Appendix
    B.2.4).

    Every operation validates its preconditions — index lookups, ID-pool
    capacity, "not the only child" constraints — before mutating
    anything, so a failure never leaves a partial update behind. This
    matters for the lock-based runtimes, which cannot roll back. *)

module Make (R : Sb7_runtime.Runtime_intf.S) = struct
  module T = Types.Make (R)
  module S = Setup.Make (R)
  module Nav = Nav.Make (R)

  (** SM1: create a composite part (document + atomic-part graph) in the
      design library, not linked to any base assembly. Fails when the
      maximum number of composite parts is reached. *)
  let sm1 rng setup =
    let cp = S.create_composite_part setup rng in
    cp.T.cp_id

  (** SM2: delete the composite part with a random ID, with its document
      and atomic parts. *)
  let sm2 rng setup =
    let cp = Nav.lookup_composite_part rng setup in
    S.delete_composite_part setup cp;
    cp.T.cp_id

  (** SM3: create a link between a random base assembly and a random
      composite part (bag semantics: duplicates allowed). *)
  let sm3 rng setup =
    let ba = Nav.lookup_base_assembly rng setup in
    let cp = Nav.lookup_composite_part rng setup in
    S.B.add ba.T.ba_components cp;
    S.B.add cp.T.cp_used_in ba;
    1

  (** SM4: delete a random link between a random base assembly and one
      of its composite parts. *)
  let sm4 rng setup =
    let ba = Nav.lookup_base_assembly rng setup in
    match R.read ba.T.ba_components with
    | [] -> Common.fail "SM4: base assembly has no links"
    | components ->
      let cp = Sb_random.element rng components in
      ignore (S.B.remove_one ~eq:S.eq_cp ba.T.ba_components cp);
      ignore (S.B.remove_one ~eq:S.eq_ba cp.T.cp_used_in ba);
      1

  (** SM5: create a new base assembly as a sibling of a random one.
      The new assembly starts with no composite parts (links are SM3's
      job). *)
  let sm5 rng setup =
    let ba = Nav.lookup_base_assembly rng setup in
    let parent =
      match ba.T.ba_super with
      | Some p -> p
      | None -> assert false
    in
    let id = S.Pool.get setup.S.ba_pool in
    let ba' = S.new_base_assembly setup rng ~id ~parent ~components:[] in
    ba'.T.ba_id

  (** SM6: delete a random base assembly; fails if it is its parent's
      only child. *)
  let sm6 rng setup =
    let ba = Nav.lookup_base_assembly rng setup in
    let parent =
      match ba.T.ba_super with
      | Some p -> p
      | None -> assert false
    in
    if List.length (R.read parent.T.ca_sub) <= 1 then
      Common.fail "SM6: base assembly is an only child";
    S.detach_assembly parent (T.Base ba);
    S.dispose_base_assembly setup ba;
    ba.T.ba_id

  (* Number of complex / base assemblies in an SM7 subtree hung under a
     complex assembly at [level]: the subtree root sits at [level - 1],
     base assemblies at level 1, fanout [branch]. *)
  let sm7_subtree_demand ~branch ~level =
    let rec geom j = if j < 0 then 0 else Parameters.pow branch j + geom (j - 1) in
    let complex = geom (level - 3) in
    let base = Parameters.pow branch (level - 2) in
    (complex, base)

  (** SM7: add an assembly subtree of full height under a random complex
      assembly. Fails if ID capacity would be exceeded (checked up
      front, so a failure mutates nothing). *)
  let sm7 rng setup =
    let ca = Nav.lookup_complex_assembly rng setup in
    let branch = setup.S.params.Parameters.num_assm_per_assm in
    let complex_needed, base_needed =
      sm7_subtree_demand ~branch ~level:ca.T.ca_level
    in
    if S.Pool.available setup.S.ca_pool < complex_needed then
      Common.fail "SM7: complex-assembly id pool exhausted";
    if S.Pool.available setup.S.ba_pool < base_needed then
      Common.fail "SM7: base-assembly id pool exhausted";
    let created = ref 0 in
    let rec grow (parent : T.complex_assembly) level =
      incr created;
      if level = 1 then
        ignore
          (S.new_base_assembly setup rng
             ~id:(S.Pool.get setup.S.ba_pool)
             ~parent ~components:[])
      else begin
        let node =
          S.new_complex_assembly setup rng
            ~id:(S.Pool.get setup.S.ca_pool)
            ~parent:(Some parent) ~level
        in
        for _ = 1 to branch do
          grow node (level - 1)
        done
      end
    in
    grow ca (ca.T.ca_level - 1);
    !created

  (** SM8: delete the whole subtree under (and including) a random
      complex assembly; fails on the root or an only child. *)
  let sm8 rng setup =
    let ca = Nav.lookup_complex_assembly rng setup in
    let parent =
      match ca.T.ca_super with
      | None -> Common.fail "SM8: cannot delete the root assembly"
      | Some p -> p
    in
    if List.length (R.read parent.T.ca_sub) <= 1 then
      Common.fail "SM8: complex assembly is an only child";
    S.detach_assembly parent (T.Complex ca);
    let deleted = ref 0 in
    let rec dispose = function
      | T.Base ba ->
        S.dispose_base_assembly setup ba;
        incr deleted
      | T.Complex c ->
        List.iter dispose (R.read c.T.ca_sub);
        S.dispose_complex_assembly setup c;
        incr deleted
    in
    dispose (T.Complex ca);
    !deleted
end
