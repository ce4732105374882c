#!/usr/bin/env python3
"""Collect and compare sets of benchmark runs.

A *set* is a JSON-lines file: one line per run of the command in
../BENCHMARK.json, holding the workload, the seed, and the result line the
run printed last (the keys of the benchmark contract).

  compare.py collect SET [--seeds 1-10] [--trace 0|1] [--workloads a,b] [--seconds N]
      run every workload once per seed and append the result lines to SET
  compare.py spread SET
      per workload x end-to-end metric: median, quartiles and their distance
      as a share of the median, against the metric's bound
  compare.py diff BASE OTHER
      per workload x end-to-end metric: both medians with quartiles, the
      ratio OTHER/BASE, and same / better / worse / unresolved

Run from anywhere; the benchmark itself runs from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m for m in CONTRACT["end_to_end"]}
# Simulated statistics repeat exactly: with the same seeds they must match
# to the digit, whatever the bound says.
EXACT = {"sim_cycles"}


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def collect(args):
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in CONTRACT["workloads"]]
    seconds = args.seconds or CONTRACT["run_seconds"]
    failed = False
    with open(args.set, "a") as out:
        for seed in parse_seeds(args.seeds):
            for workload in workloads:
                cmd = CONTRACT["command"] + [
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(args.trace),
                ]
                run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
                lines = run.stdout.strip().splitlines()
                if run.returncode != 0 or not lines:
                    print(f"{workload} seed {seed}: exit code {run.returncode}", file=sys.stderr)
                    failed = True
                    continue
                result = json.loads(lines[-1])
                record = {"workload": workload, "seed": seed, "trace": args.trace, "result": result}
                # The run's result file also has the raw (uncalibrated) seconds.
                detail = ROOT / "benchmark" / "out" / f"result-{workload}.json"
                if detail.exists():
                    layers = json.loads(detail.read_text())["per_layer"]
                    record["raw"] = {k: v["value"] for k, v in layers.items() if k.startswith(("raw.", "host."))}
                out.write(json.dumps(record) + "\n")
                out.flush()
                shown = ", ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items() if k in BOUNDS)
                print(f"{workload} seed {seed}: failed {result['failed']}/{result['attempted']} {shown}")
    return 1 if failed else 0


def load(path):
    """{workload: {"seeds": {seed: {metric: value}}, "failed": n, "attempted": n}} of the untraced runs."""
    sets = {}
    for line in Path(path).read_text().splitlines():
        rec = json.loads(line)
        if rec["trace"]:
            continue
        w = sets.setdefault(rec["workload"], {"seeds": {}, "failed": 0, "attempted": 0})
        w["seeds"][rec["seed"]] = {k: v["value"] for k, v in rec["result"]["metrics"].items()}
        w["seeds"][rec["seed"]].update(rec.get("raw", {}))
        w["failed"] += rec["result"]["failed"]
        w["attempted"] += rec["result"]["attempted"]
    return sets


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def column(workload, metric):
    return [run[metric] for _, run in sorted(workload["seeds"].items())]


def spread(args):
    sets = load(args.set)
    print(f"{'workload':<16} {'metric':<15} {'runs':>4} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/median':>10} {'bound':>6}")
    wide = False
    for name, w in sets.items():
        for metric, spec in BOUNDS.items():
            values = column(w, metric)
            q1, med, q3 = quartiles(values)
            share = (q3 - q1) / med
            note = ""
            if metric != "setup_s" and share > spec["bound"]:
                note, wide = "  WIDER THAN BOUND", True
            elif metric != "setup_s" and share > spec["bound"] / 3:
                note = "  above a third of the bound"
            print(f"{name:<16} {metric:<15} {len(values):>4} {med:>14.6f} {q1:>14.6f} {q3:>14.6f} {share:>10.4f} {spec['bound']:>6}{note}")
        # For the record, not judged: what the same runs look like uncalibrated.
        for metric in ("raw.e2e_wall_s", "host.slowdown"):
            values = [run[metric] for run in w["seeds"].values() if metric in run]
            if values:
                q1, med, q3 = quartiles(values)
                print(f"{name:<16} {metric:<15} {len(values):>4} {med:>14.6f} {q1:>14.6f} {q3:>14.6f} {(q3 - q1) / med:>10.4f}")
        print(f"{name:<16} {'failed_share':<15} {len(w['seeds']):>4} {w['failed'] / w['attempted']:>14.6f}")
    return 1 if wide else 0


def verdict(metric, spec, base, other, base_runs, other_runs):
    """Judges OTHER against BASE on one workload x metric."""
    sign = 1 if spec["better"] == "lower" else -1
    b_q1, b_med, b_q3 = quartiles(base)
    o_q1, o_med, o_q3 = quartiles(other)
    change = sign * (o_med - b_med) / b_med  # > 0 is worse
    if metric in EXACT:
        shared = sorted(set(base_runs) & set(other_runs))
        differ = [s for s in shared if base_runs[s][metric] != other_runs[s][metric]]
        if shared and not differ:
            return "same"
        if shared:
            return ("worse" if change > 0 else "better") + f" ({len(differ)} of {len(shared)} seeds differ)"
    if max((b_q3 - b_q1) / b_med, (o_q3 - o_q1) / o_med) > spec["bound"]:
        return "unresolved"
    if change > spec["bound"]:
        return "worse"
    if change < -spec["bound"]:
        return "better"
    return "same"


def diff(args):
    base, other = load(args.base), load(args.other)
    print(f"{'workload':<16} {'metric':<15} {'base median [q1, q3]':>44} {'other median [q1, q3]':>44} {'other/base':>10}  verdict")
    bad = False
    for name in base:
        if name not in other:
            continue
        b, o = base[name], other[name]
        for metric, spec in BOUNDS.items():
            bv, ov = column(b, metric), column(o, metric)
            (b_q1, b_med, b_q3), (o_q1, o_med, o_q3) = quartiles(bv), quartiles(ov)
            v = verdict(metric, spec, bv, ov, b["seeds"], o["seeds"])
            bad |= v.startswith("worse")
            print(f"{name:<16} {metric:<15} {b_med:>14.6f} [{b_q1:>12.6f}, {b_q3:>12.6f}] {o_med:>14.6f} [{o_q1:>12.6f}, {o_q3:>12.6f}] {o_med / b_med:>10.4f}  {v}")
        b_share, o_share = b["failed"] / b["attempted"], o["failed"] / o["attempted"]
        v = "same" if b_share == o_share else ("worse" if o_share > b_share else "better")
        bad |= v == "worse" or o_share > 0
        print(f"{name:<16} {'failed_share':<15} {b_share:>14.6f} {'':<28} {o_share:>14.6f} {'':<28} {'':>10}  {v}")
    return 1 if bad else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("collect")
    p.add_argument("set")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--workloads")
    p.add_argument("--seconds", type=int)
    p.set_defaults(func=collect)
    p = sub.add_parser("spread")
    p.add_argument("set")
    p.set_defaults(func=spread)
    p = sub.add_parser("diff")
    p.add_argument("base")
    p.add_argument("other")
    p.set_defaults(func=diff)
    args = parser.parse_args()
    sys.exit(args.func(args))


if __name__ == "__main__":
    main()
