(** Orchestrates a lint run: load every [.cmt] under the given paths
    once, run R1–R7 over shared typed-tree walks, apply suppression
    comments, and split the results.

    The engine makes exactly three passes over each unit's typed AST:

    1. a {b collect} walk gathering R1's transaction-local binders and
       the module-reference edges R2's reachability needs;
    2. a {b check} walk running the per-expression hooks of every rule
       in scope for the unit (R1, R1-dls, R2, R5, R6) plus R3's
       per-spec check for the three lock runtimes;
    3. an {b escape-graph} build ({!Escape_graph.build}) for units in
       R7's scope, the value-granular summaries R7 checks.

    R4 reports the footprint inference's profile verdict
    ({!Footprint.profile_violations}), which reads the typed ASTs on
    its own.

    With [?clock] (the [--timing] flag) each stage's wall-clock is
    accumulated into [result.timings]. *)

type result = {
  findings : Lint_finding.t list;  (** unsuppressed errors, sorted *)
  notices : Lint_finding.t list;  (** strict-local notices, sorted *)
  suppressed : Lint_finding.t list;
  stale_suppressions : (string * int * string) list;
      (** (file, line, rule) suppression entries that matched nothing *)
  stale_sanctions : (string * string * string option) list;
      (** (list, unit, binding) entries of [r5_allowed], [r7_roots] or
          [r7_allowed] naming a unit or top-level binding the scanned
          tree lacks *)
  units_checked : string list;
  timings : (string * float) list;
      (** (stage, seconds) per engine stage; empty unless the caller
          passed [?clock] *)
}

(* The units reachable from [seeds] (inclusive) over the module
   reference [edges] the collect walk gathered: R2's scope. The
   approximation is module-granular, so a false edge can only make
   the lint stricter, never miss a real one. *)
let closure ~(edges : (string, string list) Hashtbl.t) ~seeds =
  let reached = Hashtbl.create 64 in
  let rec visit name =
    if not (Hashtbl.mem reached name) then begin
      Hashtbl.replace reached name ();
      List.iter visit (try Hashtbl.find edges name with Not_found -> [])
    end
  in
  List.iter visit seeds;
  reached

(* Configured sanctions whose unit or top-level binding (nested
   modules and functor bodies flattened, as R5 and R7 see them) is
   absent: a leftover entry would silently bless any later binding of
   that name. Only the rules in scope are checked. *)
let stale_sanctions (config : Lint_config.t) units =
  let bindings = Hashtbl.create 64 in
  List.iter
    (fun u ->
      let names = Hashtbl.create 32 in
      Escape_graph.walk_structure
        ~on_module:(fun _ _ -> ())
        ~on_item:(fun item ->
          match item.Typedtree.str_desc with
          | Typedtree.Tstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                match vb.Typedtree.vb_pat.Typedtree.pat_desc with
                | Typedtree.Tpat_var (id, _) | Typedtree.Tpat_alias (_, id, _)
                  ->
                  Hashtbl.replace names (Ident.name id) ()
                | _ -> ())
              vbs
          | _ -> ())
        u.Cmt_unit.structure;
      Hashtbl.replace bindings u.Cmt_unit.name names)
    units;
  let stale list entries =
    List.filter_map
      (fun (u, b) ->
        let present =
          match (Hashtbl.find_opt bindings u, b) with
          | None, _ -> false
          | Some _, None -> true
          | Some names, Some b -> Hashtbl.mem names b
        in
        if present then None else Some (list, u, b))
      entries
  in
  let r5 = config.Lint_config.r5 and r7 = config.Lint_config.r7 in
  (if r5.Lint_config.r5_prefixes = [] then []
   else stale "r5_allowed" r5.Lint_config.r5_allowed)
  @
  if r7.Lint_config.r7_prefixes = [] then []
  else
    stale "r7_roots" r7.Lint_config.r7_roots
    @ stale "r7_allowed"
        (List.map (fun (u, b, _) -> (u, b)) r7.Lint_config.r7_allowed)

let run ~(config : Lint_config.t) ?clock ~source_root ~paths () =
  let tacc : (string, float ref) Hashtbl.t = Hashtbl.create 16 in
  let note key dt =
    match Hashtbl.find_opt tacc key with
    | Some r -> r := !r +. dt
    | None -> Hashtbl.add tacc key (ref dt)
  in
  let timed key f =
    match clock with
    | None -> f ()
    | Some now ->
      let t0 = now () in
      let r = f () in
      note key (now () -. t0);
      r
  in
  (* Per-expression hooks are wrapped only when timing is on, so the
     default path pays zero clock calls. *)
  let hook key f =
    match clock with
    | None -> f
    | Some now ->
      fun x ->
        let t0 = now () in
        f x;
        note key (now () -. t0)
  in
  let units = timed "load" (fun () -> Cmt_unit.scan paths) in
  let unit_names = Hashtbl.create 64 in
  List.iter (fun u -> Hashtbl.replace unit_names u.Cmt_unit.name ()) units;
  (* Pass 1: collect — R1 local binders + module-reference edges. *)
  let locals_tbl = Hashtbl.create 64 in
  let edges = Hashtbl.create 64 in
  timed "collect" (fun () ->
      List.iter
        (fun u ->
          let name = u.Cmt_unit.name in
          let locals = Hashtbl.create 64 in
          let refs = Hashtbl.create 16 in
          let note_path p =
            match Cmt_unit.resolve_ref ~units:unit_names p with
            | Some t when t <> name -> Hashtbl.replace refs t ()
            | _ -> ()
          in
          let it =
            {
              Tast_iterator.default_iterator with
              value_binding =
                (fun sub vb ->
                  Rule_r1.register_local locals vb;
                  Tast_iterator.default_iterator.value_binding sub vb);
              expr =
                (fun sub e ->
                  (match e.Typedtree.exp_desc with
                  | Typedtree.Texp_ident (p, _, _) -> note_path p
                  | _ -> ());
                  Tast_iterator.default_iterator.expr sub e);
              module_expr =
                (fun sub m ->
                  (match m.Typedtree.mod_desc with
                  | Typedtree.Tmod_ident (p, _) -> note_path p
                  | _ -> ());
                  Tast_iterator.default_iterator.module_expr sub m);
            }
          in
          it.structure it u.Cmt_unit.structure;
          Hashtbl.replace locals_tbl name locals;
          Hashtbl.replace edges name
            (Hashtbl.fold (fun k () acc -> k :: acc) refs []))
        units);
  let reachable = closure ~edges ~seeds:config.Lint_config.r2.r2_seeds in
  let raw = ref [] in
  let emit f = raw := f :: !raw in
  (* Pass 2: check — every per-expression rule in one walk per unit. *)
  List.iter
    (fun u ->
      let name = u.Cmt_unit.name in
      let strict_local = config.Lint_config.strict_local in
      let r1 = Lint_config.in_r1_scope config name in
      let dls = Lint_config.in_r1_dls_scope config name in
      let r2 =
        Lint_config.in_r2_universe config name && Hashtbl.mem reachable name
      in
      let r5 =
        match Lint_config.r5_scope config name with
        | `Skip -> None
        | `Check allowed -> Some allowed
      in
      let r6 = Lint_config.in_r6_scope config name in
      if r1 || dls || r2 || r5 <> None || r6 then begin
        let locals =
          match Hashtbl.find_opt locals_tbl name with
          | Some t -> t
          | None -> Hashtbl.create 1
        in
        let current = ref None in
        let add ?severity ~rule ~loc msg =
          emit (Lint_finding.make ?severity ~rule ~loc ~unit_name:name msg)
        in
        let expr_hooks =
          List.concat
            [
              (if r1 then
                 [ hook "R1" (Rule_r1.expr_hook ~locals ~strict_local ~add) ]
               else []);
              (if dls then
                 [ hook "R1" (Rule_r1.dls_hook ~unit_name:name ~emit) ]
               else []);
              (if r2 then [ hook "R2" (Rule_r2.expr_hook ~unit_name:name ~emit) ]
               else []);
              (match r5 with
              | Some allowed ->
                [
                  hook "R5"
                    (Rule_r5.expr_hook ~current ~allowed_bindings:allowed
                       ~unit_name:name ~emit);
                ]
              | None -> []);
              (if r6 then
                 [
                   hook "R6"
                     (Rule_r6.expr_hook config.Lint_config.r6 ~unit_name:name
                        ~emit);
                 ]
               else []);
            ]
        in
        let item_hooks =
          if r1 then [ hook "R1" (Rule_r1.item_hook ~add) ] else []
        in
        let it =
          {
            Tast_iterator.default_iterator with
            expr =
              (fun sub e ->
                List.iter (fun h -> h e) expr_hooks;
                Tast_iterator.default_iterator.expr sub e);
            structure_item =
              (fun sub item ->
                List.iter (fun h -> h item) item_hooks;
                (* Maintain the enclosing top-level binding name (R5's
                   sanctioned-binding granularity). *)
                match item.Typedtree.str_desc with
                | Typedtree.Tstr_value (_, vbs) ->
                  List.iter
                    (fun vb ->
                      let saved = !current in
                      (match vb.Typedtree.vb_pat.Typedtree.pat_desc with
                      | Typedtree.Tpat_var (id, _)
                      | Typedtree.Tpat_alias (_, id, _) ->
                        current := Some (Ident.name id)
                      | _ -> current := None);
                      sub.Tast_iterator.value_binding sub vb;
                      current := saved)
                    vbs
                | _ -> Tast_iterator.default_iterator.structure_item sub item);
          }
        in
        it.structure it u.Cmt_unit.structure
      end;
      match Lint_config.spec_for config name with
      | Some spec -> timed "R3" (fun () -> raw := Rule_r3.check spec u @ !raw)
      | None -> ())
    units;
  (* R4: the footprint inference's profile verdict. *)
  if config.Lint_config.r4.Lint_config.r4_registry_units <> [] then
    timed "R4" (fun () ->
        raw := Rule_r4.check config.Lint_config.r4 units @ !raw);
  (* Pass 3: R7's escape graph. *)
  if config.Lint_config.r7.Lint_config.r7_prefixes <> [] then begin
    let summaries = Hashtbl.create 32 in
    timed "escape-graph" (fun () ->
        List.iter
          (fun u ->
            let name = u.Cmt_unit.name in
            if Lint_config.in_r7_scope config name then begin
              let spec = Lint_config.spec_for config name in
              let bc =
                {
                  Escape_graph.bc_units = unit_names;
                  bc_acquire_helpers =
                    (match spec with
                    | Some s -> s.Lint_config.r3_acquire_helpers
                    | None -> []);
                  bc_release_helpers =
                    (match spec with
                    | Some s -> s.Lint_config.r3_release_helpers
                    | None -> []);
                }
              in
              Hashtbl.replace summaries name (Escape_graph.build bc u)
            end)
          units);
    timed "R7" (fun () ->
        raw := Rule_r7.check config.Lint_config.r7 summaries @ !raw)
  end;
  let raw = List.sort Lint_finding.compare !raw in
  (* Apply suppression comments, reading each source file once. *)
  let tables = Hashtbl.create 16 in
  let table_for file =
    match Hashtbl.find_opt tables file with
    | Some t -> t
    | None ->
      let t = Suppress.load (Filename.concat source_root file) in
      Hashtbl.add tables file t;
      t
  in
  (* Load every scanned unit's suppression table up front, not only the
     files that produced findings: a file whose findings have all been
     fixed is exactly where a suppression goes stale, and on the
     finding-driven path it would never be read. Unit sources and
     finding locations record the same root-relative path, so the cache
     key is shared. *)
  timed "suppress" (fun () ->
      List.iter
        (fun u ->
          match u.Cmt_unit.source with
          | Some src -> ignore (table_for src)
          | None -> ())
        units);
  let notices, errors =
    List.partition
      (fun f -> f.Lint_finding.severity = Lint_finding.Notice)
      raw
  in
  let suppressed, findings =
    List.partition
      (fun f ->
        Suppress.suppressed (table_for f.Lint_finding.file)
          ~line:f.Lint_finding.line ~rule:f.Lint_finding.rule)
      errors
  in
  let stale_suppressions =
    Hashtbl.fold
      (fun file t acc ->
        List.fold_left
          (fun acc (line, rule) -> (file, line, rule) :: acc)
          acc (Suppress.unused t))
      tables []
  in
  let stage_order =
    [
      "load"; "collect"; "R1"; "R2"; "R3"; "R5"; "R6"; "escape-graph"; "R4";
      "R7"; "suppress";
    ]
  in
  let timings =
    List.filter_map
      (fun k ->
        match Hashtbl.find_opt tacc k with
        | Some r -> Some (k, !r)
        | None -> None)
      stage_order
  in
  {
    findings;
    notices;
    suppressed;
    stale_suppressions;
    stale_sanctions = stale_sanctions config units;
    units_checked = List.map (fun u -> u.Cmt_unit.name) units;
    timings;
  }

let stale_sanction_lines result =
  List.map
    (fun (list, u, b) ->
      Printf.sprintf
        "stale sanction in Lint_config.%s: %s%s names nothing in the scanned \
         tree"
        list u
        (match b with
        | Some b -> "." ^ b
        | None -> ""))
    result.stale_sanctions

(* Whether [--strict-local] fails the run beyond its errors: every
   in-source waiver and every configured sanction must still earn its
   keep. *)
let stale result = result.stale_suppressions <> [] || result.stale_sanctions <> []

let render_text result =
  let buf = Buffer.create 1024 in
  List.iter
    (fun f ->
      Buffer.add_string buf (Lint_finding.to_string f);
      Buffer.add_char buf '\n';
      List.iter
        (fun r ->
          Buffer.add_string buf
            (Printf.sprintf "  %s:%d:%d: %s\n" r.Lint_finding.rel_file
               r.Lint_finding.rel_line r.Lint_finding.rel_col
               r.Lint_finding.rel_message))
        f.Lint_finding.related)
    result.findings;
  List.iter
    (fun f ->
      Buffer.add_string buf ("notice: " ^ Lint_finding.to_string f);
      Buffer.add_char buf '\n')
    result.notices;
  List.iter
    (fun (file, line, rule) ->
      Buffer.add_string buf
        (Printf.sprintf
           "%s:%d: warning: stale suppression for rule %S matches no finding\n"
           file line rule))
    result.stale_suppressions;
  List.iter
    (fun line ->
      Buffer.add_string buf ("warning: " ^ line);
      Buffer.add_char buf '\n')
    (stale_sanction_lines result);
  List.iter
    (fun (stage, s) ->
      Buffer.add_string buf
        (Printf.sprintf "timing: %-12s %8.2f ms\n" stage (s *. 1000.)))
    result.timings;
  Buffer.add_string buf
    (Printf.sprintf
       "sb7-lint: %d unit(s), %d error(s), %d suppressed, %d notice(s)\n"
       (List.length result.units_checked)
       (List.length result.findings)
       (List.length result.suppressed)
       (List.length result.notices));
  Buffer.contents buf

(* docs/LINT.md anchor for a rule id; the base URL is the repository
   location from dune-project's (source) stanza. *)
let rule_anchor = function
  | "raw-mut" | "raw-mut-global" | "raw-dls" -> "r1"
  | "irrevocable" -> "r2"
  | "lock-order" | "lock-release" | "lock-wait" | "lock-table" -> "r3"
  | "profile-honesty" -> "r4"
  | "obj-use" -> "r5"
  | "tvar-escape" -> "r6"
  | "domain-escape" -> "r7"
  | _ -> "sb7-lint--static-stm-discipline-checker"

let help_uri rule =
  "https://example.org/stmbench7-ocaml/docs/LINT.md#" ^ rule_anchor rule

(* The full rule table, so the SARIF driver advertises every rule it
   checked — not just the ones that happened to fire. A clean tree must
   still report which rules it is clean under. *)
let all_rule_ids =
  [
    "raw-mut";
    "raw-mut-global";
    "raw-dls";
    "irrevocable";
    "lock-order";
    "lock-release";
    "lock-wait";
    "lock-table";
    "profile-honesty";
    "obj-use";
    "tvar-escape";
    "domain-escape";
  ]

(* SARIF 2.1.0, the interchange format GitHub code scanning ingests
   (CI uploads it with github/codeql-action/upload-sarif). One run, one
   driver, one result per unsuppressed finding or notice; suppressed
   findings are omitted — they carry an in-source justification
   already. Regions are 1-based; module-level findings (line 0) clamp
   to line 1. Multi-step findings (R7 escape paths, R3 lock chains)
   carry their steps as relatedLocations. *)
let render_sarif result =
  let esc = Lint_finding.json_escape in
  let rule_ids =
    List.sort_uniq String.compare
      (all_rule_ids
      @ List.map
          (fun f -> f.Lint_finding.rule)
          (result.findings @ result.notices))
  in
  let rules =
    String.concat ","
      (List.map
         (fun id ->
           Printf.sprintf
             {|{"id":"%s","shortDescription":{"text":"sb7-lint rule %s (see docs/LINT.md)"},"helpUri":"%s"}|}
             (esc id) (esc id)
             (esc (help_uri id)))
         rule_ids)
  in
  let location ~file ~line ~col msg =
    let message =
      match msg with
      | None -> ""
      | Some m -> Printf.sprintf {|,"message":{"text":"%s"}|} (esc m)
    in
    Printf.sprintf
      {|{"physicalLocation":{"artifactLocation":{"uri":"%s"},"region":{"startLine":%d,"startColumn":%d}}%s}|}
      (esc file) (max 1 line) (max 1 (col + 1)) message
  in
  let result_of f =
    let level =
      match f.Lint_finding.severity with
      | Lint_finding.Error -> "error"
      | Lint_finding.Notice -> "note"
    in
    let related =
      match f.Lint_finding.related with
      | [] -> ""
      | rels ->
        Printf.sprintf {|,"relatedLocations":[%s]|}
          (String.concat ","
             (List.map
                (fun r ->
                  location ~file:r.Lint_finding.rel_file
                    ~line:r.Lint_finding.rel_line ~col:r.Lint_finding.rel_col
                    (Some r.Lint_finding.rel_message))
                rels))
    in
    Printf.sprintf
      {|{"ruleId":"%s","level":"%s","message":{"text":"%s"},"locations":[%s]%s}|}
      (esc f.Lint_finding.rule) level
      (esc f.Lint_finding.message)
      (location ~file:f.Lint_finding.file ~line:f.Lint_finding.line
         ~col:f.Lint_finding.col None)
      related
  in
  let results =
    String.concat "," (List.map result_of (result.findings @ result.notices))
  in
  Printf.sprintf
    {|{"$schema":"https://json.schemastore.org/sarif-2.1.0.json","version":"2.1.0","runs":[{"tool":{"driver":{"name":"sb7-lint","version":"%s","rules":[%s]}},"results":[%s]}]}|}
    (esc Lint_version.version) rules results

let render_json result =
  let arr fs = String.concat "," (List.map Lint_finding.to_json fs) in
  Printf.sprintf
    {|{"findings":[%s],"notices":[%s],"suppressed":[%s],"units_checked":%d,"errors":%d}|}
    (arr result.findings) (arr result.notices) (arr result.suppressed)
    (List.length result.units_checked)
    (List.length result.findings)
