(** Transactional pool of object IDs.

    The structure-modification operations create and delete objects at a
    high rate; IDs are recycled through this pool, and its fixed
    capacity is what bounds the growth of the structure ("the maximum
    size of the structure is confined", paper §3). The free list lives
    in a transactional variable so ID allocation participates in
    whatever synchronization strategy is active. *)

module Make (R : Sb7_runtime.Runtime_intf.S) = struct
  type t = {
    exhausted : string; (* the failure message of [get] *)
    capacity : int;
    free : int list R.tvar; (* IDs not currently in use *)
    free_count : int R.tvar;
  }

  (** All IDs [1..capacity] initially free. *)
  let create ~name ~capacity =
    assert (capacity > 0);
    Sb7_runtime.Region_ctx.with_region Sb7_runtime.Region.Indexes (fun () ->
        {
          exhausted = "id pool " ^ name ^ " exhausted";
          capacity;
          free = R.make (List.init capacity (fun i -> i + 1));
          free_count = R.make capacity;
        })

  let capacity t = t.capacity
  let available t = R.read t.free_count

  (** Take one free ID; fails (as an operation failure) when the pool is
      exhausted, i.e. the structure reached its maximum size. *)
  let get t =
    match R.read t.free with
    | [] -> Common.fail t.exhausted
    | id :: rest ->
      R.write t.free rest;
      R.write t.free_count (R.read t.free_count - 1);
      id

  (** Return an ID to the pool (after deleting the object). *)
  let put_back t id =
    assert (id >= 1 && id <= t.capacity);
    R.write t.free (id :: R.read t.free);
    R.write t.free_count (R.read t.free_count + 1)
end
