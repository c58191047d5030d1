(** R2 — irrevocable effects.

    An STM runtime may abort and re-execute any operation body, so code
    reachable from the operation registry must be revocable: no channel
    I/O, no process/thread control, no blocking synchronization, no
    global [Random] state (retries would observe different draws —
    [Sb_random] threads its state explicitly and is fine). Pure string
    formatting ([Printf.sprintf], [Printf.ksprintf], [Format.asprintf])
    is allowed.

    Reachability is computed at module granularity by the engine's
    collect walk ({!Lint_engine.closure}) from the configured seed
    units; the universe is restricted so that the runtimes themselves
    (which legitimately use locks and domains) are not in scope. *)

open Typedtree

(* Forbidden value prefixes, with a short reason used in the message. *)
let banned =
  [
    ("Stdlib.Printf.printf", "writes to stdout");
    ("Stdlib.Printf.eprintf", "writes to stderr");
    ("Stdlib.Printf.fprintf", "writes to a channel");
    ("Stdlib.Printf.kfprintf", "writes to a channel");
    ("Stdlib.Format.printf", "writes to stdout");
    ("Stdlib.Format.eprintf", "writes to stderr");
    ("Stdlib.Format.fprintf", "writes to a formatter/channel");
    ("Stdlib.Format.kfprintf", "writes to a formatter/channel");
    ("Stdlib.Format.std_formatter", "stdout formatter");
    ("Stdlib.Format.err_formatter", "stderr formatter");
    ("Stdlib.Format.print_", "writes to stdout");
    ("Stdlib.print_", "writes to stdout");
    ("Stdlib.prerr_", "writes to stderr");
    ("Stdlib.output", "writes to a channel");
    ("Stdlib.input", "reads from a channel");
    ("Stdlib.really_input", "reads from a channel");
    ("Stdlib.read_line", "reads from stdin");
    ("Stdlib.open_in", "opens a file");
    ("Stdlib.open_out", "opens a file");
    ("Stdlib.close_in", "closes a channel");
    ("Stdlib.close_out", "closes a channel");
    ("Stdlib.flush", "flushes a channel");
    ("Stdlib.seek_in", "file positioning");
    ("Stdlib.seek_out", "file positioning");
    ("Stdlib.stdout", "channel handle");
    ("Stdlib.stderr", "channel handle");
    ("Stdlib.stdin", "channel handle");
    ("Stdlib.exit", "terminates the process");
    ("Stdlib.at_exit", "registers irrevocable state");
    ("Stdlib.Sys.command", "runs a process");
    ("Stdlib.Sys.remove", "filesystem mutation");
    ("Stdlib.Sys.rename", "filesystem mutation");
    ("Stdlib.Random.", "global PRNG state: retries would diverge");
    ("Stdlib.Domain.spawn", "spawns a domain");
    ("Stdlib.Mutex.", "blocking synchronization");
    ("Stdlib.Condition.", "blocking synchronization");
    ("Stdlib.Semaphore.", "blocking synchronization");
    ("Unix.", "system call");
    ("Thread.", "thread control");
  ]

let classify name =
  List.find_opt (fun (prefix, _) -> String.starts_with ~prefix name) banned

let expr_hook ~unit_name ~emit e =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> (
    let name = Path.name p in
    match classify name with
    | Some (_, reason) ->
      emit
        (Lint_finding.make ~rule:"irrevocable" ~loc:e.exp_loc ~unit_name
           (Printf.sprintf
              "%s (%s) is irrevocable but reachable from operation bodies \
               that the STM runtimes may abort and retry"
              name reason))
    | None -> ())
  | _ -> ()
