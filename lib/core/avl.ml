(** Immutable AVL map with an explicit comparison function, the value
    stored inside a single transactional variable by {!Avl_index} — the
    OCaml analogue of the original benchmark's [TreeMap] indexes.

    The comparison function must be consistent across all calls on a
    given tree; {!Avl_index} guarantees this by capturing it once. *)

type ('k, 'v) t =
  | Leaf
  | Node of {
      left : ('k, 'v) t;
      key : 'k;
      value : 'v;
      right : ('k, 'v) t;
      height : int;
    }

let empty = Leaf

let height = function
  | Leaf -> 0
  | Node { height; _ } -> height

let node left key value right =
  Node { left; key; value; right; height = 1 + Int.max (height left) (height right) }

let balance_factor = function
  | Leaf -> 0
  | Node { left; right; _ } -> height left - height right

let rotate_right = function
  | Node { left = Node l; key; value; right; _ } ->
    node l.left l.key l.value (node l.right key value right)
  | t -> t

let rotate_left = function
  | Node { left; key; value; right = Node r; _ } ->
    node (node left key value r.left) r.key r.value r.right
  | t -> t

let rebalance t =
  let bf = balance_factor t in
  if bf > 1 then
    match t with
    | Node ({ left; _ } as n) ->
      if balance_factor left < 0 then
        rotate_right (node (rotate_left left) n.key n.value n.right)
      else rotate_right t
    | Leaf -> t
  else if bf < -1 then
    match t with
    | Node ({ right; _ } as n) ->
      if balance_factor right > 0 then
        rotate_left (node n.left n.key n.value (rotate_right right))
      else rotate_left t
    | Leaf -> t
  else t

let rec add cmp k v = function
  | Leaf -> node Leaf k v Leaf
  | Node n ->
    let c = cmp k n.key in
    if c = 0 then node n.left k v n.right
    else if c < 0 then rebalance (node (add cmp k v n.left) n.key n.value n.right)
    else rebalance (node n.left n.key n.value (add cmp k v n.right))

let rec find cmp k = function
  | Leaf -> None
  | Node n ->
    let c = cmp k n.key in
    if c = 0 then Some n.value
    else if c < 0 then find cmp k n.left
    else find cmp k n.right

let rec min_binding = function
  | Leaf -> None
  | Node { left = Leaf; key; value; _ } -> Some (key, value)
  | Node { left; _ } -> min_binding left

let rec remove_min = function
  | Leaf -> Leaf
  | Node { left = Leaf; right; _ } -> right
  | Node n -> rebalance (node (remove_min n.left) n.key n.value n.right)

let rec remove cmp k = function
  | Leaf -> Leaf
  | Node n ->
    let c = cmp k n.key in
    if c < 0 then rebalance (node (remove cmp k n.left) n.key n.value n.right)
    else if c > 0 then rebalance (node n.left n.key n.value (remove cmp k n.right))
    else begin
      match (n.left, n.right) with
      | Leaf, r -> r
      | l, Leaf -> l
      | l, r -> (
        match min_binding r with
        | None -> assert false
        | Some (sk, sv) -> rebalance (node l sk sv (remove_min r)))
    end

let mem cmp k t = Option.is_some (find cmp k t)

let rec iter f = function
  | Leaf -> ()
  | Node n ->
    iter f n.left;
    f n.key n.value;
    iter f n.right

let rec fold f t acc =
  match t with
  | Leaf -> acc
  | Node n -> fold f n.right (f n.key n.value (fold f n.left acc))

let rec cardinal = function
  | Leaf -> 0
  | Node n -> 1 + cardinal n.left + cardinal n.right

(** Bindings with [lo <= key <= hi], in ascending key order. *)
let range cmp lo hi t =
  let rec collect t acc =
    match t with
    | Leaf -> acc
    | Node n ->
      let c_lo = cmp n.key lo and c_hi = cmp n.key hi in
      let acc = if c_hi < 0 then collect n.right acc else acc in
      let acc = if c_lo >= 0 && c_hi <= 0 then (n.key, n.value) :: acc else acc in
      if c_lo > 0 then collect n.left acc else acc
  in
  collect t []

(** Structural invariants, for property tests. *)
let rec well_formed cmp = function
  | Leaf -> true
  | Node n ->
    let keys_ok =
      (match n.left with
      | Leaf -> true
      | Node l -> cmp l.key n.key < 0 && max_key_lt cmp n.left n.key)
      &&
      match n.right with
      | Leaf -> true
      | Node r -> cmp n.key r.key < 0 && min_key_gt cmp n.right n.key
    in
    keys_ok
    && abs (height n.left - height n.right) <= 1
    && n.height = 1 + Int.max (height n.left) (height n.right)
    && well_formed cmp n.left
    && well_formed cmp n.right

and max_key_lt cmp t k =
  match t with
  | Leaf -> true
  | Node n -> cmp n.key k < 0 && max_key_lt cmp n.left k && max_key_lt cmp n.right k

and min_key_gt cmp t k =
  match t with
  | Leaf -> true
  | Node n -> cmp n.key k > 0 && min_key_gt cmp n.left k && min_key_gt cmp n.right k
