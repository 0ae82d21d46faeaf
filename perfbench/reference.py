#!/usr/bin/env python3
"""Traced reference table: one --trace 1 run per workload, as Markdown.

    python3 perfbench/reference.py

Run from the root of the repository. Each workload gets one traced run
(perfbench/run.py --trace 1, seed 1) with the per-stage metrics at 1, 2 and
4 workers; the table has one row per per-layer metric and one
column per workload. This is the table in perfbench/README.md.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    results = {}
    for workload in workloads:
        cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", workload, "--seed", "1",
               "--seconds", str(spec["run_seconds"]), "--trace", "1",
               "--workers", "1,2,4"]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, check=True)
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = sorted({n for r in results.values() for n in r["metrics"]})
    print("| metric | unit | " + " | ".join(workloads) + " |")
    print("|---|---|" + "---|" * len(workloads))
    for name in names:
        unit = next(r["metrics"][name]["unit"] for r in results.values()
                    if name in r["metrics"])
        cells = []
        for w in workloads:
            m = results[w]["metrics"].get(name)
            cells.append(f"{m['value']:.4g}" if m else "")
        print(f"| `{name}` | {unit} | " + " | ".join(cells) + " |")
    for w in workloads:
        r = results[w]
        print(f"\n{w}: correct={r['correct']} attempted={r['attempted']} "
              f"failed={r['failed']}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
