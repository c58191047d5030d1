(** Bags — lists with multiplicity in a transactional variable.

    OO7's many-to-many association between base assemblies and
    composite parts is implemented "with two bags each" (paper §2.1):
    one bag of composite parts per base assembly and one bag of owning
    base assemblies per composite part. SM3 may link the same pair
    twice, so multiplicity matters.

    A bag is just a ['a list R.tvar]; these helpers keep the
    multiplicity discipline in one place. *)

module Make (R : Sb7_runtime.Runtime_intf.S) = struct
  type 'a t = 'a list R.tvar

  let create () : 'a t = R.make []
  let of_list l : 'a t = R.make l
  let contents (t : 'a t) = R.read t
  let size t = List.length (R.read t)
  let is_empty t = R.read t = []
  let add t x = R.write t (x :: R.read t)
  let iter f t = List.iter f (R.read t)
  let exists p t = List.exists p (R.read t)

  (** Occurrences of [x] (per [eq]). *)
  let count ~eq t x = List.length (List.filter (eq x) (R.read t))

  let mem ~eq t x = List.exists (eq x) (R.read t)

  (** Remove one occurrence of [x]; no-op when absent. Returns whether
      an occurrence was removed. *)
  let remove_one ~eq t x =
    let rec go acc = function
      | [] -> None
      | y :: rest ->
        if eq x y then Some (List.rev_append acc rest) else go (y :: acc) rest
    in
    match go [] (R.read t) with
    | None -> false
    | Some rest ->
      R.write t rest;
      true

  (** Remove every occurrence of [x]; returns how many were removed. *)
  let remove_all ~eq t x =
    let l = R.read t in
    let kept = List.filter (fun y -> not (eq x y)) l in
    let removed = List.length l - List.length kept in
    if removed > 0 then R.write t kept;
    removed

  let clear t = R.write t []

  (** A uniformly random element, or operation failure with message
      [what] on an empty bag (the specified ST1/ST2/SM4 failure
      mode). *)
  let random_element rng t ~what =
    match R.read t with
    | [] -> Common.fail what
    | l -> Sb_random.element rng l
end
