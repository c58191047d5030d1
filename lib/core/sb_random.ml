(** Deterministic, splittable pseudo-random generator (SplitMix64).

    Each benchmark thread owns one generator split off a master seed, so
    runs are reproducible for a given seed and thread count without any
    synchronization on the generator state. *)

(* The SplitMix state lives in an 8-byte buffer read and written with
   [Bytes.get_int64_le]/[set_int64_le], which native code keeps unboxed:
   with [mix64] and [next_int64] inlined into their callers a draw
   allocates nothing (an [int64] record field would box on every
   store). *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 s;
  t

let[@inline] next_int64 t =
  let s = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  (* sb7-lint: allow raw-mut -- generator state is thread-private by
     construction (one generator per benchmark thread, split off the
     master seed); advancing it on an aborted attempt is harmless. *)
  Bytes.set_int64_le t 0 s;
  mix64 s

let create ~seed = of_state (Int64.of_int seed)

(** A generator statistically independent of [t] (SplitMix split). *)
let split t = of_state (next_int64 t)

let copy t = Bytes.copy t

(** Uniform integer in [0, bound); [bound] must be positive. *)
let int t bound =
  assert (bound > 0);
  let r = Int64.to_int (next_int64 t) land max_int in
  r mod bound

(** Uniform integer in [lo, hi] inclusive. *)
let in_range t lo hi =
  assert (lo <= hi);
  lo + int t (hi - lo + 1)

let bool t = Int64.logand (next_int64 t) 1L = 1L

(** True with probability [percent]/100. *)
let percent t percent = int t 100 < percent

(** A random element of a non-empty list. *)
let element t = function
  | [] -> invalid_arg "Sb_random.element: empty list"
  | l -> List.nth l (int t (List.length l))
