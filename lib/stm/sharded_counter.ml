type combine = Sum | Max

(* Declarations in export order, written during module initialisation
   and sealed by the first [create] or [zero]: shards and snapshots are
   sized from them, so a later declaration would index past a shard.
   [lock] orders declaring and sealing, which any domain may do. *)
type schema = {
  lock : Mutex.t;
  mutable decls : (string * combine) array;
  mutable sealed : bool;
}

type counter = int

let schema () = { lock = Mutex.create (); decls = [||]; sealed = false }

let declare ?(combine = Sum) s name =
  Mutex.lock s.lock;
  let index = Array.length s.decls in
  let taken = Array.exists (fun (n, _) -> n = name) s.decls in
  let ok = not (s.sealed || taken) in
  if ok then s.decls <- Array.append s.decls [| (name, combine) |];
  Mutex.unlock s.lock;
  if not ok then invalid_arg ("Sharded_counter.declare: " ^ name);
  index

let seal s =
  Mutex.lock s.lock;
  s.sealed <- true;
  let decls = s.decls in
  Mutex.unlock s.lock;
  decls

type shard = int array

type t = {
  combines : combine array;
  key : shard Domain.DLS.key;
  registry_lock : Mutex.t;
  mutable shards : shard list;
  mutable free : shard list;
}

(* A domain's first record claims a shard: recycled from the free list
   if an earlier domain exited, freshly registered otherwise. The
   trailing padding keeps neighbouring shards off its cache lines. The
   exit hook hands the shard back unzeroed (see the .mli). *)
let attach t =
  Mutex.lock t.registry_lock;
  let shard =
    match t.free with
    | s :: rest ->
      t.free <- rest;
      s
    | [] ->
      let width = Array.length t.combines + Padded_atomic.padding_words in
      let s = Array.make width 0 in
      t.shards <- s :: t.shards;
      s
  in
  Mutex.unlock t.registry_lock;
  Domain.at_exit (fun () ->
      Mutex.lock t.registry_lock;
      t.free <- shard :: t.free;
      Mutex.unlock t.registry_lock);
  shard

let create schema =
  (* The DLS initializer needs the record it is a field of; tie the
     knot through a ref since the RHS is a function application. *)
  let holder = ref None in
  let key = Domain.DLS.new_key (fun () -> attach (Option.get !holder)) in
  let combines = Array.map snd (seal schema) in
  let registry_lock = Mutex.create () in
  let t = { combines; key; registry_lock; shards = []; free = [] } in
  holder := Some t;
  t

let shard t = Domain.DLS.get t.key

(* Inlined: these are the per-commit and per-attempt stores. *)
let[@inline] incr t c =
  let s = Domain.DLS.get t.key in
  s.(c) <- s.(c) + 1

let[@inline] bump (s : shard) c n = s.(c) <- s.(c) + n
let[@inline] bump_max (s : shard) c n = if n > s.(c) then s.(c) <- n

(* One value per declared counter, in declaration order. *)
type snapshot = int array

let combine c a b = match c with Sum -> a + b | Max -> max a b

(* Plain reads of another domain's shard are racy but non-tearing
   (ints) under the OCaml memory model; once the writing domains are
   joined the totals are exact. *)
let snapshot t =
  Mutex.lock t.registry_lock;
  let shards = t.shards in
  Mutex.unlock t.registry_lock;
  let total i c =
    List.fold_left (fun acc (s : shard) -> combine c acc s.(i)) 0 shards
  in
  Array.mapi total t.combines

let reset t =
  Mutex.lock t.registry_lock;
  List.iter (fun s -> Array.fill s 0 (Array.length s) 0) t.shards;
  Mutex.unlock t.registry_lock

let zero schema = Array.make (Array.length (seal schema)) 0
let get (s : snapshot) c = s.(c)

let add schema (a : snapshot) (b : snapshot) =
  Array.mapi (fun i (_, c) -> combine c a.(i) b.(i)) schema.decls

let to_assoc schema (s : snapshot) =
  Array.to_list (Array.mapi (fun i (name, _) -> (name, s.(i))) schema.decls)

let pp schema ppf s =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ' ')
    (fun ppf (name, v) -> Format.fprintf ppf "%s=%d" name v)
    ppf (to_assoc schema s)
