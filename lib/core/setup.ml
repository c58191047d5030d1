(** Benchmark state: the object graph of {!Types}, the six indexes of
    the paper's Table 1, and the ID pools bounding structure growth —
    plus the factory and deletion helpers shared between the initial
    builder and the structure-modification operations. *)

module Make (R : Sb7_runtime.Runtime_intf.S) = struct
  module T = Types.Make (R)
  module Idx = Index.Make (R)
  module Pool = Id_pool.Make (R)
  module B = Bag.Make (R)

  let eq_cp (a : T.composite_part) b = a.T.cp_id = b.T.cp_id
  let eq_ba (a : T.base_assembly) b = a.T.ba_id = b.T.ba_id

  (* Every constructor below brackets its tvar allocations with the
     abstract region the object belongs to, so the sanitizer's
     instrumented runtime can record a region per tvar and its
     footprint replay can cross-check accesses against
     the static footprint table. See Sb7_runtime.Region_ctx. *)
  let in_region r f = Sb7_runtime.Region_ctx.with_region r f

  type t = {
    params : Parameters.t;
    index_kind : Index_intf.kind;
    module_ : T.module_t;
    (* Table 1 indexes. *)
    ap_id_index : (int, T.atomic_part) Index_intf.t;
    ap_date_index : (int, T.atomic_part list) Index_intf.t; (* multimap *)
    cp_id_index : (int, T.composite_part) Index_intf.t;
    doc_title_index : (string, T.document) Index_intf.t;
    ba_id_index : (int, T.base_assembly) Index_intf.t;
    ca_id_index : (int, T.complex_assembly) Index_intf.t;
    (* ID pools; capacity = maximum object count of each kind. *)
    ap_pool : Pool.t;
    cp_pool : Pool.t;
    ba_pool : Pool.t;
    ca_pool : Pool.t;
  }

  let random_type rng params =
    Text.type_name (Sb_random.int rng params.Parameters.num_types)

  (* Remove the first occurrence of an element from a plain list (used
     for the date-index buckets); returns the list unchanged if
     absent. The tvar-level equivalent is {!Bag.remove_one}. *)
  let remove_one ~eq x l =
    let rec go acc = function
      | [] -> l
      | y :: rest ->
        if eq x y then List.rev_append acc rest else go (y :: acc) rest
    in
    go [] l

  (* --- Build-date index (a multimap: date -> parts bucket) --- *)

  let date_index_add setup (part : T.atomic_part) date =
    let bucket =
      Option.value (setup.ap_date_index.get date) ~default:[]
    in
    setup.ap_date_index.put date (part :: bucket)

  let date_index_remove setup (part : T.atomic_part) date =
    match setup.ap_date_index.get date with
    | None -> ()
    | Some bucket -> (
      match remove_one ~eq:(fun a (b : T.atomic_part) -> a.T.ap_id = b.T.ap_id) part bucket with
      | [] -> ignore (setup.ap_date_index.remove date)
      | rest -> setup.ap_date_index.put date rest)

  (* The T3/OP15 update: change the (indexed) build date and keep the
     date index consistent. *)
  let update_atomic_part_date setup (part : T.atomic_part) =
    let old_date = R.read part.T.ap_build_date in
    let new_date = T.nudge_date old_date in
    date_index_remove setup part old_date;
    R.write part.T.ap_build_date new_date;
    date_index_add setup part new_date

  (* --- Atomic parts and their connection graphs --- *)

  let new_atomic_part setup rng ~id =
    let params = setup.params in
    let part : T.atomic_part =
      in_region Sb7_runtime.Region.Atomic_parts (fun () ->
          {
            T.ap_id = id;
            ap_type = random_type rng params;
            ap_build_date =
              R.make
                (Sb_random.in_range rng params.min_atomic_date
                   params.max_atomic_date);
            ap_x = R.make (Sb_random.in_range rng 0 99_999);
            ap_y = R.make (Sb_random.in_range rng 0 99_999);
            ap_to = R.make [];
            ap_from = R.make [];
            ap_part_of = None;
          })
    in
    setup.ap_id_index.put id part;
    date_index_add setup part (R.read part.T.ap_build_date);
    part

  let connect setup rng (from_part : T.atomic_part) (to_part : T.atomic_part) =
    let conn : T.connection =
      {
        conn_type = random_type rng setup.params;
        conn_length = Sb_random.in_range rng 1 1_000;
        conn_from = from_part;
        conn_to = to_part;
      }
    in
    R.write from_part.T.ap_to (conn :: R.read from_part.T.ap_to);
    R.write to_part.T.ap_from (conn :: R.read to_part.T.ap_from)

  (* Build the atomic-part graph of a composite part: a ring guarantees
     the graph is connected (so a DFS from the root visits every part),
     then each part gets [num_conn_per_atomic - 1] extra connections to
     random parts — OO7's construction. *)
  let build_part_graph setup rng (ids : int array) =
    let parts = Array.map (fun id -> new_atomic_part setup rng ~id) ids in
    let n = Array.length parts in
    for i = 0 to n - 1 do
      connect setup rng parts.(i) parts.((i + 1) mod n)
    done;
    for i = 0 to n - 1 do
      for _ = 2 to setup.params.num_conn_per_atomic do
        connect setup rng parts.(i) parts.(Sb_random.int rng n)
      done
    done;
    parts

  let delete_atomic_part setup (part : T.atomic_part) =
    ignore (setup.ap_id_index.remove part.T.ap_id);
    date_index_remove setup part (R.read part.T.ap_build_date);
    Pool.put_back setup.ap_pool part.T.ap_id

  (* --- Composite parts and documents --- *)

  let composite_build_date rng (params : Parameters.t) =
    if Sb_random.percent rng params.young_comp_percent then
      Sb_random.in_range rng params.min_young_comp_date
        params.max_young_comp_date
    else
      Sb_random.in_range rng params.min_old_comp_date params.max_old_comp_date

  (* Create a composite part with its document and atomic-part graph.
     The caller must have reserved [cp_id] and the atomic-part ids. *)
  let new_composite_part setup rng ~cp_id ~part_ids =
    let params = setup.params in
    let document : T.document =
      in_region Sb7_runtime.Region.Documents (fun () ->
          {
            T.doc_id = cp_id;
            doc_title = Text.document_title ~part_id:cp_id;
            doc_text =
              R.make
                (Text.generate
                   ~phrase:(Text.document_phrase ~part_id:cp_id)
                   ~size:params.document_size);
            doc_part = None;
          })
    in
    let parts = build_part_graph setup rng part_ids in
    let cp : T.composite_part =
      in_region Sb7_runtime.Region.Composite_parts (fun () ->
          {
            T.cp_id;
            cp_type = random_type rng params;
            cp_build_date = R.make (composite_build_date rng params);
            cp_document = document;
            cp_used_in = R.make [];
            cp_root_part = R.make parts.(0);
            cp_parts = R.make (Array.to_list parts);
          })
    in
    (* sb7-lint: allow raw-mut -- set-once back-pointer closing the
       document/part cycle while the objects are still thread-private
       (published only by the index puts below, under the runtime). *)
    document.doc_part <- Some cp;
    (* sb7-lint: allow raw-mut -- same: pre-publication back-pointer. *)
    Array.iter (fun (p : T.atomic_part) -> p.T.ap_part_of <- Some cp) parts;
    setup.cp_id_index.put cp_id cp;
    setup.doc_title_index.put document.doc_title document;
    cp

  (* SM1 body: reserve IDs (failing cleanly before any mutation is
     visible under lock-based runtimes), then build. *)
  let create_composite_part setup rng =
    let n = setup.params.num_atomic_per_comp in
    if Pool.available setup.ap_pool < n then
      Common.fail "SM1: atomic-part id pool exhausted";
    let cp_id = Pool.get setup.cp_pool in
    let part_ids = Array.init n (fun _ -> Pool.get setup.ap_pool) in
    new_composite_part setup rng ~cp_id ~part_ids

  (* SM2 body: unlink from every owning base assembly, drop the
     document and all atomic parts from the indexes, recycle IDs. *)
  let delete_composite_part setup (cp : T.composite_part) =
    B.iter
      (fun (ba : T.base_assembly) ->
        ignore (B.remove_one ~eq:eq_cp ba.T.ba_components cp))
      cp.T.cp_used_in;
    B.clear cp.T.cp_used_in;
    List.iter (delete_atomic_part setup) (R.read cp.T.cp_parts);
    ignore (setup.doc_title_index.remove cp.T.cp_document.T.doc_title);
    ignore (setup.cp_id_index.remove cp.T.cp_id);
    Pool.put_back setup.cp_pool cp.T.cp_id

  (* --- Assemblies --- *)

  let assembly_build_date rng (params : Parameters.t) =
    Sb_random.in_range rng params.min_assm_date params.max_assm_date

  let new_base_assembly setup rng ~id ~(parent : T.complex_assembly)
      ~components =
    let ba : T.base_assembly =
      in_region Sb7_runtime.Region.Assemblies (fun () ->
          {
            T.ba_id = id;
            ba_type = random_type rng setup.params;
            ba_build_date = R.make (assembly_build_date rng setup.params);
            ba_components = R.make components;
            ba_super = Some parent;
          })
    in
    List.iter
      (fun (cp : T.composite_part) -> B.add cp.T.cp_used_in ba)
      components;
    R.write parent.T.ca_sub (T.Base ba :: R.read parent.T.ca_sub);
    setup.ba_id_index.put id ba;
    ba

  let unlink_base_assembly_components setup (ba : T.base_assembly) =
    ignore setup;
    B.iter
      (fun (cp : T.composite_part) ->
        ignore (B.remove_one ~eq:eq_ba cp.T.cp_used_in ba))
      ba.T.ba_components;
    B.clear ba.T.ba_components

  (* Delete a base assembly already detached from its parent's child
     list (the caller handles the parent side). *)
  let dispose_base_assembly setup (ba : T.base_assembly) =
    unlink_base_assembly_components setup ba;
    ignore (setup.ba_id_index.remove ba.T.ba_id);
    Pool.put_back setup.ba_pool ba.T.ba_id

  let new_complex_assembly setup rng ~id ~(parent : T.complex_assembly option)
      ~level =
    let ca : T.complex_assembly =
      in_region Sb7_runtime.Region.Assemblies (fun () ->
          {
            T.ca_id = id;
            ca_type = random_type rng setup.params;
            ca_build_date = R.make (assembly_build_date rng setup.params);
            ca_level = level;
            ca_sub = R.make [];
            ca_super = parent;
          })
    in
    (match parent with
    | Some p -> R.write p.T.ca_sub (T.Complex ca :: R.read p.T.ca_sub)
    | None -> ());
    setup.ca_id_index.put id ca;
    ca

  let dispose_complex_assembly setup (ca : T.complex_assembly) =
    ignore (setup.ca_id_index.remove ca.T.ca_id);
    Pool.put_back setup.ca_pool ca.T.ca_id

  (* Detach [child] from [parent]'s child list. *)
  let detach_assembly (parent : T.complex_assembly) (child : T.assembly) =
    let eq a b = T.assembly_id a = T.assembly_id b in
    ignore (B.remove_one ~eq parent.T.ca_sub child)

  (* --- Initial structure construction (single-threaded) --- *)

  let create ?(index_kind = Index_intf.Avl) ?(seed = 42)
      (params : Parameters.t) : t =
    let rng = Sb_random.create ~seed in
    let module_manual : T.manual =
      in_region Sb7_runtime.Region.Manual (fun () ->
          {
            T.man_id = 1;
            man_title = "Manual #1";
            man_text =
              R.make
                (Text.generate
                   ~phrase:(Text.manual_phrase ~module_id:1)
                   ~size:params.manual_size);
          })
    in
    let icmp = Int.compare and scmp = String.compare in
    let mk name cmp = Idx.create index_kind ~name ~cmp in
    (* The module record needs the design root, which needs the setup
       record (for indexes): build the root separately and stitch. *)
    let root : T.complex_assembly =
      in_region Sb7_runtime.Region.Assemblies (fun () ->
          {
            T.ca_id = 0 (* replaced below: ids come from the pool *);
            ca_type = "type #0";
            ca_build_date = R.make (assembly_build_date rng params);
            ca_level = params.num_assm_levels;
            ca_sub = R.make [];
            ca_super = None;
          })
    in
    let module_ : T.module_t =
      { mod_id = 1; mod_manual = module_manual; mod_design_root = root }
    in
    let setup =
      {
        params;
        index_kind;
        module_;
        ap_id_index = mk "atomic-part-id" icmp;
        ap_date_index = mk "atomic-part-build-date" icmp;
        cp_id_index = mk "composite-part-id" icmp;
        doc_title_index = mk "document-title" scmp;
        ba_id_index = mk "base-assembly-id" icmp;
        ca_id_index = mk "complex-assembly-id" icmp;
        ap_pool =
          Pool.create ~name:"atomic-parts"
            ~capacity:(Parameters.max_atomic_parts params);
        cp_pool =
          Pool.create ~name:"composite-parts"
            ~capacity:(Parameters.max_composite_parts params);
        ba_pool =
          Pool.create ~name:"base-assemblies"
            ~capacity:(Parameters.max_base_assemblies params);
        ca_pool =
          Pool.create ~name:"complex-assemblies"
            ~capacity:(Parameters.max_complex_assemblies params);
      }
    in
    (* Design library: the shared composite parts. *)
    let library =
      Array.init params.num_comp_per_module (fun _ ->
          let cp_id = Pool.get setup.cp_pool in
          let part_ids =
            Array.init params.num_atomic_per_comp (fun _ ->
                Pool.get setup.ap_pool)
          in
          new_composite_part setup rng ~cp_id ~part_ids)
    in
    let random_components () =
      List.init params.num_comp_per_assm (fun _ ->
          library.(Sb_random.int rng (Array.length library)))
    in
    (* Assembly tree, root included. *)
    let root_id = Pool.get setup.ca_pool in
    let root = { root with ca_id = root_id } in
    let module_ = { module_ with mod_design_root = root } in
    let setup = { setup with module_ } in
    setup.ca_id_index.put root_id root;
    let rec populate (parent : T.complex_assembly) level =
      for _ = 1 to params.num_assm_per_assm do
        if level = 1 then
          ignore
            (new_base_assembly setup rng
               ~id:(Pool.get setup.ba_pool)
               ~parent ~components:(random_components ()))
        else begin
          let ca =
            new_complex_assembly setup rng
              ~id:(Pool.get setup.ca_pool)
              ~parent:(Some parent) ~level
          in
          populate ca (level - 1)
        end
      done
    in
    populate root (params.num_assm_levels - 1);
    setup
end
