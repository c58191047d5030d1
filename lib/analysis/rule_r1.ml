(** R1 — runtime-bypass.

    In the sync-free core, every piece of shared mutable state must be
    a [Runtime.tvar] accessed through [R.read]/[R.write]; the benchmark
    claim that concurrency control is woven in separately is only true
    if nothing mutates behind the runtime's back.

    The rule distinguishes three tiers:

    - {b module-level mutable state} (a [ref], [Hashtbl.t], array, ...
      created by a structure-level binding — including bindings in a
      functor body, which are shared by every operation using that
      instantiation) is always an error ([raw-mut-global]);
    - {b mutation or dereference of non-local mutable values}
      (function parameters, values from other modules) is an error
      ([raw-mut]) unless suppressed: the analysis cannot prove the
      target is transaction-local;
    - {b locally created mutable state} ([let visited = Hashtbl.create
      64 in ...]) is provably transaction-local — each execution (and
      each retry of an aborted transaction) allocates a fresh one — and
      is allowed. With [strict_local] these sites are still reported as
      notices, which is how the fully-pure modules are audited.

    [Atomic] is forbidden outright in R1 scope: atomics exist to share
    state across threads, which is precisely what the core must not do
    on its own. *)

open Typedtree

(* Functions creating fresh, unshared mutable values: binding their
   direct application result registers the bound name as
   transaction-local. *)
let creators =
  [
    "Stdlib.ref";
    "Stdlib.Array.make";
    "Stdlib.Array.create_float";
    "Stdlib.Array.init";
    "Stdlib.Array.copy";
    "Stdlib.Array.sub";
    "Stdlib.Array.append";
    "Stdlib.Array.concat";
    "Stdlib.Array.of_list";
    "Stdlib.Array.of_seq";
    "Stdlib.Array.map";
    "Stdlib.Array.mapi";
    "Stdlib.Array.make_matrix";
    "Stdlib.Bytes.create";
    "Stdlib.Bytes.make";
    "Stdlib.Bytes.init";
    "Stdlib.Bytes.copy";
    "Stdlib.Bytes.sub";
    "Stdlib.Bytes.of_string";
    "Stdlib.Hashtbl.create";
    "Stdlib.Hashtbl.copy";
    "Stdlib.Hashtbl.of_seq";
    "Stdlib.Buffer.create";
    "Stdlib.Queue.create";
    "Stdlib.Queue.copy";
    "Stdlib.Queue.of_seq";
    "Stdlib.Stack.create";
    "Stdlib.Stack.copy";
  ]

(* Mutating primitives, with the index of the argument that designates
   the mutated value. *)
let mutators =
  [
    ("Stdlib.:=", 0);
    ("Stdlib.incr", 0);
    ("Stdlib.decr", 0);
    ("Stdlib.Array.set", 0);
    ("Stdlib.Array.unsafe_set", 0);
    ("Stdlib.Array.fill", 0);
    ("Stdlib.Array.blit", 2);
    ("Stdlib.Array.sort", 1);
    ("Stdlib.Array.fast_sort", 1);
    ("Stdlib.Array.stable_sort", 1);
    ("Stdlib.Bytes.set", 0);
    ("Stdlib.Bytes.unsafe_set", 0);
    ("Stdlib.Bytes.fill", 0);
    ("Stdlib.Bytes.blit", 2);
    ("Stdlib.Bytes.blit_string", 2);
    ("Stdlib.Hashtbl.add", 0);
    ("Stdlib.Hashtbl.replace", 0);
    ("Stdlib.Hashtbl.remove", 0);
    ("Stdlib.Hashtbl.reset", 0);
    ("Stdlib.Hashtbl.clear", 0);
    ("Stdlib.Hashtbl.filter_map_inplace", 1);
    ("Stdlib.Buffer.add_string", 0);
    ("Stdlib.Buffer.add_char", 0);
    ("Stdlib.Buffer.add_bytes", 0);
    ("Stdlib.Buffer.add_substring", 0);
    ("Stdlib.Buffer.add_buffer", 0);
    ("Stdlib.Buffer.clear", 0);
    ("Stdlib.Buffer.reset", 0);
    ("Stdlib.Buffer.truncate", 0);
    ("Stdlib.Queue.add", 1);
    ("Stdlib.Queue.push", 1);
    ("Stdlib.Queue.pop", 0);
    ("Stdlib.Queue.take", 0);
    ("Stdlib.Queue.clear", 0);
    ("Stdlib.Stack.push", 1);
    ("Stdlib.Stack.pop", 0);
    ("Stdlib.Stack.clear", 0);
  ]

let path_name p = Path.name p

let is_creator e =
  match e.exp_desc with
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _) ->
    List.mem (path_name p) creators
  | Texp_array _ -> true
  | Texp_record _ -> true (* a fresh record; mutable fields start local *)
  | _ -> false

(* The ident a mutation targets, when the target is a plain variable. *)
let target_ident e =
  match e.exp_desc with
  | Texp_ident (Path.Pident id, _, _) -> Some id
  | _ -> None

let nth_positional args n =
  let rec go i = function
    | [] -> None
    | (Asttypes.Nolabel, Some e) :: rest ->
      if i = n then Some e else go (i + 1) rest
    | _ :: rest -> go i rest
  in
  go 0 args

(* Register a transaction-local binding (pass 1 of the rule): binding
   the direct result of a creator application. Ident stamps are unique
   within a compilation unit, so one flat set per unit suffices — the
   shared engine walk collects it once and feeds it back to
   {!expr_hook}. *)
let register_local locals vb =
  match (vb.vb_pat.pat_desc, is_creator vb.vb_expr) with
  | Tpat_var (id, _), true -> Hashtbl.replace locals id ()
  | _ -> ()

(* Pass 2, per expression: mutations, dereferences, Atomic. *)
let expr_hook ~locals ~strict_local
    ~(add :
        ?severity:Lint_finding.severity ->
        rule:string ->
        loc:Location.t ->
        string ->
        unit) e =
  let is_local e =
    match target_ident e with
    | Some id -> Hashtbl.mem locals id
    | None -> false
  in
  match e.exp_desc with
    | Texp_setfield (target, _, label, _) ->
      if is_local target then begin
        if strict_local then
          add ~severity:Lint_finding.Notice ~rule:"raw-mut" ~loc:e.exp_loc
            (Printf.sprintf
               "mutation of local mutable field %S (strict-local mode)"
               label.Types.lbl_name)
      end
      else
        add ~rule:"raw-mut" ~loc:e.exp_loc
          (Printf.sprintf
             "mutable field %S set outside the runtime: shared state must \
              flow through Runtime.tvar (R.write)"
             label.Types.lbl_name)
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) -> (
      let name = path_name p in
      if String.starts_with ~prefix:"Stdlib.Atomic." name then
        add ~rule:"raw-mut" ~loc:e.exp_loc
          (Printf.sprintf
             "%s: Atomic is cross-thread shared state by construction and \
              is forbidden in the sync-free core"
             name)
      else if name = "Stdlib.!" then begin
        match nth_positional args 0 with
        | Some target when not (is_local target) ->
          add ~rule:"raw-mut" ~loc:e.exp_loc
            "dereference (!) of a ref the analysis cannot prove \
             transaction-local: shared reads must use R.read"
        | Some _ when strict_local ->
          add ~severity:Lint_finding.Notice ~rule:"raw-mut" ~loc:e.exp_loc
            "dereference of local ref (strict-local mode)"
        | _ -> ()
      end
      else
        match List.assoc_opt name mutators with
        | None -> ()
        | Some idx -> (
          match nth_positional args idx with
          | Some target when not (is_local target) ->
            add ~rule:"raw-mut" ~loc:e.exp_loc
              (Printf.sprintf
                 "%s on a value the analysis cannot prove \
                  transaction-local: shared state must flow through \
                  Runtime.tvar (R.write)"
                 name)
          | Some _ when strict_local ->
            add ~severity:Lint_finding.Notice ~rule:"raw-mut" ~loc:e.exp_loc
              (Printf.sprintf "%s on local mutable value (strict-local mode)"
                 name)
          | _ -> ()))
    | _ -> ()

(* Structure-level bindings that allocate mutable state create values
   shared by every caller of the module (or functor instance). *)
let item_hook
    ~(add :
        ?severity:Lint_finding.severity ->
        rule:string ->
        loc:Location.t ->
        string ->
        unit) item =
  match item.str_desc with
    | Tstr_value (_, vbs) ->
      List.iter
        (fun vb ->
          let mutable_at_module_level =
            match vb.vb_expr.exp_desc with
            | Texp_array (_ :: _) -> true
            | Texp_array [] -> false (* [||] is a shared empty, harmless *)
            | Texp_record { fields; _ } ->
              Array.exists
                (fun (label, _) -> label.Types.lbl_mut = Asttypes.Mutable)
                fields
            | _ -> is_creator vb.vb_expr
          in
          if mutable_at_module_level then
            add ~rule:"raw-mut-global" ~loc:vb.vb_pat.pat_loc
              "module-level mutable state: this cell is shared by every \
               thread and bypasses the runtime; use Runtime.tvar (R.make) \
               instead")
        vbs
    | _ -> ()

(* Domain-local storage audit ([raw-dls], run over a wider scope than
   plain R1 — see Lint_config.r1_dls_prefixes): [Domain.DLS] is shared
   mutable state with per-domain visibility, legitimate only for the
   blessed sharded-statistics / id-allocator / per-domain-context
   modules. Any other unit reaching for it must be added to the
   allowlist deliberately, so new cross-domain state never slips in as
   "just a DLS key". Every [Stdlib.Domain.DLS.*] identifier occurrence
   is a finding, [new_key] included: the key creation site is where the
   reviewer decides the state is legitimately per-domain. *)
let dls_hook ~unit_name ~emit e =
  match e.exp_desc with
  | Texp_ident (p, _, _) ->
    let name = path_name p in
    if String.starts_with ~prefix:"Stdlib.Domain.DLS." name then
      emit
        (Lint_finding.make ~rule:"raw-dls" ~loc:e.exp_loc ~unit_name
           (Printf.sprintf
              "%s: Domain.DLS is per-domain shared state; only the \
               allowlisted sharding modules may use it (see \
               Lint_config.r1_dls_allowed_units)"
              name))
  | _ -> ()
