#!/usr/bin/env python3
"""Steadiness check: repeated runs of each workload, spread against bounds.

    python3 perfbench/steady.py
    python3 perfbench/steady.py --compare A.jsonl B.jsonl

Run from the root of the repository. Every workload of BENCHMARK.json runs
ten times through perfbench/run.py with --trace 0, seeds 1 to 10 and the
run_seconds of BENCHMARK.json; every result line is appended to a JSON-lines
file under .bench_results/. For every workload and end-to-end metric the
report gives the median, the quartiles (statistics.quantiles, n=4) and the
spread (q3 - q1) / median next to the metric's bound: "steady" when the
spread is under a third of the bound, "inside" when under the bound, and
"NOISY" otherwise (setup_s is reported but exempt, being one cold set-up
per run). It also lists the share of failed operations per workload.

--compare takes two such files and checks, per workload and metric, that
the second median is not worse than the first by more than the bound, and
that the failed shares are equal. Exits 1 when any check fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = range(1, 11)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: run failed "
                           f"(exit {proc.returncode})")
    return json.loads(lines[-1])


def load_records(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def by_workload(records):
    out = {}
    for rec in records:
        out.setdefault(rec["workload"], []).append(rec)
    return out


def failed_share(recs):
    attempted = sum(r["result"]["attempted"] for r in recs)
    failed = sum(r["result"]["failed"] for r in recs)
    return failed / attempted if attempted else 0.0


def report(records, spec):
    ok = True
    for workload, recs in by_workload(records).items():
        correct = all(r["result"]["correct"] for r in recs)
        ok &= correct
        print(f"\n{workload}: {len(recs)} runs, correct={correct}, "
              f"failed share={failed_share(recs):.6f}")
        print(f"  {'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'spread':>9}{'bound':>7}  verdict")
        for m in spec["end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in recs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            if m["name"] == "setup_s":
                verdict = "exempt"
            elif spread < m["bound"] / 3:
                verdict = "steady"
            elif spread <= m["bound"]:
                verdict = "inside"
            else:
                verdict = "NOISY"
                ok = False
            print(f"  {m['name']:<14}{med:>12.4f}{q1:>12.4f}{q3:>12.4f}"
                  f"{spread:>9.3f}{m['bound']:>7.2f}  {verdict}")
    return ok


def compare(path_a, path_b, spec):
    a, b = by_workload(load_records(path_a)), by_workload(load_records(path_b))
    ok = True
    for workload in sorted(set(a) & set(b)):
        share_a, share_b = failed_share(a[workload]), failed_share(b[workload])
        if share_a != share_b:
            ok = False
        print(f"\n{workload}: failed share {share_a:.6f} vs {share_b:.6f}")
        for m in spec["end_to_end"]:
            ma = statistics.median(r["result"]["metrics"][m["name"]]["value"]
                                   for r in a[workload])
            mb = statistics.median(r["result"]["metrics"][m["name"]]["value"]
                                   for r in b[workload])
            change = (mb - ma) / ma if ma else 0.0
            worse = change if m["better"] == "lower" else -change
            verdict = "ok" if worse <= m["bound"] else "WORSE"
            ok &= verdict == "ok"
            print(f"  {m['name']:<14}{ma:>12.4f}{mb:>12.4f}{change:>+9.3f}"
                  f"{m['bound']:>7.2f}  {verdict}")
    return ok


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--compare", nargs=2, metavar="JSONL")
    args = parser.parse_args()
    spec = load_spec()
    if args.compare:
        return 0 if compare(*args.compare, spec) else 1

    workloads = [w["name"] for w in spec["workloads"]]
    os.makedirs(os.path.join(ROOT, ".bench_results"), exist_ok=True)
    out_path = os.path.join(ROOT, ".bench_results",
                            time.strftime("steady-%Y%m%d-%H%M%S.jsonl"))
    records = []
    with open(out_path, "w") as out:
        for workload in workloads:
            for seed in SEEDS:
                result = run_once(workload, seed, spec["run_seconds"])
                rec = {"workload": workload, "seed": seed, "result": result}
                records.append(rec)
                out.write(json.dumps(rec) + "\n")
                out.flush()
                print(f"{workload} seed {seed}: done", file=sys.stderr)
    print(f"records: {out_path}")
    return 0 if report(records, spec) else 1


if __name__ == "__main__":
    sys.exit(main())
