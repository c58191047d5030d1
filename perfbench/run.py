#!/usr/bin/env python3
"""Build and run the STMBench7 benchmark (see README.md beside this file).

    python3 perfbench/run.py --workload read_dom --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a source tree. The benchmark is built from source
with dune into .bench_build/; traced runs write their spans to
.bench_out/. The last line of standard output is a JSON object with the
keys correct, attempted, failed and metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "sb7perf.exe")
RUN_TIMEOUT_S = 170


def build():
    """Compile the benchmark and the libraries it links; exit on failure."""
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "--cache", "disabled", "--display", "quiet",
           "perfbench/sb7perf.exe"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"run.py: build failed: {e}")
    if done.returncode != 0:
        sys.exit(f"run.py: build failed (dune exit {done.returncode})")


def flambda():
    try:
        out = subprocess.run(["ocamlopt", "-config"], capture_output=True,
                             text=True, timeout=30).stdout
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    for line in out.splitlines():
        if line.startswith("flambda:"):
            return line.split(":", 1)[1].strip()
    return "unknown"


def revision():
    """The git commit, or else a digest of the OCaml sources and dune files."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        if done.returncode == 0:
            return done.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha1()
    for d, dirs, files in os.walk(ROOT):
        dirs[:] = sorted(x for x in dirs if not x.startswith((".", "_")))
        for f in sorted(files):
            if f.endswith((".ml", ".mli")) or f in ("dune", "dune-project"):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return "tree-" + h.hexdigest()[:12]


def run(workload, seed, seconds, trace, extra=()):
    """Run the built benchmark once; return (exit code, stdout lines)."""
    os.makedirs(os.path.join(ROOT, OUT_DIR), exist_ok=True)
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--flambda", flambda(), "--commit", revision(), *extra]
    if trace:
        cmd += ["--spans", os.path.join(ROOT, OUT_DIR, f"spans-{workload}.tsv")]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit(f"run.py: {workload} did not finish in {RUN_TIMEOUT_S} s")
    return proc.returncode, out.splitlines()


def check_spans(path):
    """Every span is closed, its parent exists and its self time (duration
    minus the union of its children's intervals) is not negative."""
    spans, children = {}, {}
    with open(path) as fh:
        for line in fh:
            sid, _dom, name, parent, start, end, _op = line.rstrip("\n").split("\t")
            spans[int(sid)] = (name, int(parent), int(start), int(end))
    problems = []
    for sid, (name, parent, start, end) in spans.items():
        if end < start:
            problems.append(f"span {sid} ({name}) not closed")
        if parent != -1:
            if parent not in spans:
                problems.append(f"span {sid} ({name}) has no parent {parent}")
            children.setdefault(parent, []).append((start, end))
    for sid, kids in children.items():
        name, _, start, end = spans[sid]
        covered, reach = 0, None
        for s, e in sorted(kids):
            if reach is None or s > reach:
                covered += e - s
                reach = e
            elif e > reach:
                covered += e - reach
                reach = e
        if end - start - covered < 0:
            problems.append(f"span {sid} ({name}) has negative self time")
    return len(spans), problems


def self_test():
    """Tiny-scale smoke of every workload in BENCHMARK.json, both modes."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    expect = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    failures = []
    for w in bench["workloads"]:
        for trace in (0, 1):
            code, lines = run(w["name"], 7, 1, trace, extra=["--smoke"])
            where = f"{w['name']} trace={trace}"
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                failures.append(f"{where}: no JSON result (exit {code})")
                continue
            if code != 0 or not result["correct"] or result["failed"]:
                failures.append(f"{where}: not correct (exit {code})")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expect[trace]:
                missing = sorted(set(expect[trace]) - set(got))
                extra = sorted(set(got) - set(expect[trace]))
                units = sorted(k for k in got.keys() & expect[trace].keys()
                               if got[k] != expect[trace][k])
                failures.append(f"{where}: missing {missing} extra {extra} "
                                f"wrong units {units}")
            if trace:
                n, problems = check_spans(
                    os.path.join(ROOT, OUT_DIR, f"spans-{w['name']}.tsv"))
                failures += [f"{where}: {p}" for p in problems[:10]]
                if n == 0:
                    failures.append(f"{where}: no spans written")
            print(f"self-test {where}: {len(result['metrics'])} metrics ok"
                  if not failures else f"self-test {where}: checked", flush=True)
    for f in failures:
        print("FAIL", f)
    print("self-test:", "FAILED" if failures else "passed")
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")
    build()
    if args.self_test:
        return self_test()
    code, lines = run(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
