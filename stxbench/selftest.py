#!/usr/bin/env python3
"""Self-test of the benchmark against its declaration in BENCHMARK.json.

Run from the repository root:  python3 stxbench/selftest.py

Runs every workload for one pass at two seeds, untraced and traced, and checks:
  - the result line has exactly the keys correct/attempted/failed/metrics,
    with correct = true and failed = 0;
  - each run reports exactly the declared metrics of its mode, with the
    declared units, and every name matches [A-Za-z0-9_.-]+;
  - every end-to-end metric is non-zero on every workload, and every
    per-layer metric with unit "count" is non-zero on at least one workload;
  - another seed changes each workload's digest but not its metric names;
  - tracing does not perturb the simulation: the digests of the traced and
    untraced runs at one seed are equal;
  - the observer layers (trace, metrics, telemetry) have self time on
    observed. That they do no work on sim-core holds by construction (the
    sim-core cells attach no observers), so it is not checked here;
  - sim-core never enters the STM tier: the program reports no STM commit,
    STM conflict abort or STM validation cycle there;
  - without the repository sources around it, the benchmark exits non-zero
    and prints no result.
"""

import json
import os
import re
import shutil
import subprocess
import sys

NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
SEEDS = (1, 2)


def run(cmd, cwd):
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def main():
    root = os.getcwd()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    errors = []

    def check(ok, msg):
        if not ok:
            errors.append(msg)

    for names in declared.values():
        for name, unit in names.items():
            check(NAME.match(name) is not None, f"bad metric name {name!r}")
            check(bool(unit), f"metric {name} has no unit")

    counts_seen = {n: False for n, u in declared[1].items() if u == "count"}
    for w in bench["workloads"]:
        wl = w["name"]
        digests = {}
        for trace in (0, 1):
            for seed in SEEDS:
                p = run(bench["command"] + ["--workload", wl, "--seed", str(seed),
                                            "--seconds", "1", "--trace", str(trace)], root)
                where = f"{wl} seed {seed} trace {trace}"
                lines = p.stdout.strip().splitlines()
                if p.returncode != 0 or not lines:
                    errors.append(f"{where}: exit {p.returncode}\n{p.stderr[-2000:]}")
                    continue
                r = json.loads(lines[-1])
                check(sorted(r) == ["attempted", "correct", "failed", "metrics"],
                      f"{where}: result keys {sorted(r)}")
                check(r["correct"] is True and r["failed"] == 0 and r["attempted"] >= 1,
                      f"{where}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}")
                got = {n: m["unit"] for n, m in r["metrics"].items()}
                check(got == declared[trace],
                      f"{where}: metrics differ from BENCHMARK.json: "
                      f"{sorted(set(got) ^ set(declared[trace]))}")
                for n, m in r["metrics"].items():
                    if trace == 0:
                        check(m["value"] != 0, f"{where}: end-to-end metric {n} is 0")
                    elif n in counts_seen and m["value"] != 0:
                        counts_seen[n] = True
                if trace == 1:
                    observers = [r["metrics"][f"{l}.self_ms"]["value"]
                                 for l in ("trace", "metrics", "telemetry")]
                    if wl == "sim-core":
                        stm = [r["metrics"][n]["value"] for n in
                               ("stm.commits", "htm.stm_conflict_aborts", "stm.validation_kcyc")]
                        check(stm == [0, 0, 0], f"{where}: the STM tier ran: {stm}")
                    if wl == "observed":
                        check(all(v > 0 for v in observers),
                              f"{where}: an observer layer has no self time: {observers}")
                digest = [l.split()[2] for l in lines if l.startswith(f"digest {wl} ")]
                check(len(digest) == 1, f"{where}: no workload digest line")
                digests[(trace, seed)] = digest[0] if digest else None
        check(digests.get((0, 1)) != digests.get((0, 2)),
              f"{wl}: seeds {SEEDS} give the same digest")
        for seed in SEEDS:
            check(digests.get((0, seed)) == digests.get((1, seed)),
                  f"{wl} seed {seed}: traced and untraced digests differ")
    for n, seen in counts_seen.items():
        check(seen, f"count {n} is 0 on every workload")

    bare = os.path.join(root, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    for p in bench["paths"]:
        shutil.copytree(p, os.path.join(bare, p))
    p = run(bench["command"] + ["--workload", bench["workloads"][0]["name"], "--seed", "1",
                                "--seconds", "1", "--trace", "0"], bare)
    check(p.returncode != 0 and "{" not in p.stdout,
          f"without sources: exit {p.returncode}, stdout {p.stdout[-200:]!r}")
    shutil.rmtree(bare)

    for e in errors:
        print("FAIL", e)
    print("selftest:", "ok" if not errors else f"{len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
