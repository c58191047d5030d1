(** The ten short traversals ST1–ST10 (paper Appendix B.2.2). *)

module Make (R : Sb7_runtime.Runtime_intf.S) = struct
  module T = Types.Make (R)
  module S = Setup.Make (R)
  module Nav = Nav.Make (R)

  (* ST1/ST6 skeleton: random path from the module down to one atomic
     part of one composite part. *)
  let st1_like rng setup update =
    let ba = Nav.random_base_assembly rng setup in
    let cp = Nav.random_component rng ba in
    let part = Sb_random.element rng (R.read cp.T.cp_parts) in
    let result = R.read part.T.ap_x + R.read part.T.ap_y in
    update part;
    result

  (** ST1: random path down to an atomic part; returns its x + y.
      Fails on a base assembly without composite parts. *)
  let st1 rng setup = st1_like rng setup (fun _ -> ())

  (** ST6: ST1 + non-indexed update (x/y swap) on the visited part. *)
  let st6 rng setup = st1_like rng setup T.swap_xy

  (* ST2/ST7 skeleton: random path down to a document. *)
  let st2_like rng setup visit_doc =
    let ba = Nav.random_base_assembly rng setup in
    let cp = Nav.random_component rng ba in
    visit_doc cp.T.cp_document

  (** ST2: count 'I' characters in a document reached by a random path. *)
  let st2 rng setup =
    st2_like rng setup (fun (d : T.document) ->
        Text.count_char (R.read d.T.doc_text) 'I')

  (** ST7: ST2 + toggle "I am"/"This is"; returns replacements. *)
  let st7 rng setup =
    st2_like rng setup (fun (d : T.document) ->
        let text, count = Text.toggle_i_am (R.read d.T.doc_text) in
        R.write d.T.doc_text text;
        count)

  (* ST3/ST8 skeleton: bottom-up from a random atomic part. *)
  let st3_like rng setup visit_ca =
    let part = Nav.lookup_atomic_part rng setup in
    let cp =
      match part.T.ap_part_of with
      | Some cp -> cp
      | None -> assert false
    in
    match R.read cp.T.cp_used_in with
    | [] ->
      Common.fail "composite part not used in any base assembly"
    | bas -> Nav.ascend_complex_assemblies bas visit_ca

  (** ST3 (T7 in OO7): bottom-up traversal to the root; counts complex
      assemblies visited (each at most once). *)
  let st3 rng setup =
    st3_like rng setup (fun ca -> ignore (T.touch_complex_assembly ca))

  (** ST8: ST3 + non-indexed build-date update on each visited
      assembly. *)
  let st8 rng setup =
    st3_like rng setup (fun (ca : T.complex_assembly) ->
        T.update_build_date_tvar ca.T.ca_build_date)

  (** ST4 (Q4 in OO7): look up 100 random document titles; for each
      document found, a read on every base assembly using its composite
      part. Returns base assemblies visited. *)
  let st4 rng setup =
    let visited = ref 0 in
    for _ = 1 to 100 do
      let title =
        Text.document_title ~part_id:(Nav.random_composite_part_id rng setup)
      in
      match setup.S.doc_title_index.get title with
      | None -> ()
      | Some doc ->
        let cp =
          match doc.T.doc_part with
          | Some cp -> cp
          | None -> assert false
        in
        List.iter
          (fun (ba : T.base_assembly) ->
            ignore (T.touch_base_assembly ba);
            incr visited)
          (R.read cp.T.cp_used_in)
    done;
    !visited

  (** ST5 (Q5 in OO7): scan the base-assembly index for assemblies older
      than one of their composite parts. *)
  let st5 _rng setup =
    let count = ref 0 in
    setup.S.ba_id_index.iter (fun _ (ba : T.base_assembly) ->
        let ba_date = R.read ba.T.ba_build_date in
        let matches =
          List.exists
            (fun (cp : T.composite_part) ->
              R.read cp.T.cp_build_date > ba_date)
            (R.read ba.T.ba_components)
        in
        if matches then begin
          ignore (T.touch_base_assembly ba);
          incr count
        end);
    !count

  (* ST9/ST10 skeleton: ST1's random path, then a full DFS of the
     chosen composite part's atomic-part graph. *)
  let st9_like rng setup on_part =
    let ba = Nav.random_base_assembly rng setup in
    let cp = Nav.random_component rng ba in
    Nav.dfs_atomic_graph (R.read cp.T.cp_root_part) on_part

  (** ST9: counts the atomic parts of one randomly-reached composite
      part. *)
  let st9 rng setup =
    st9_like rng setup (fun p -> ignore (T.touch_atomic_part p))

  (** ST10: ST9 + non-indexed update on every visited part. *)
  let st10 rng setup = st9_like rng setup T.swap_xy
end
