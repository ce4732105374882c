#!/usr/bin/env python3
"""Fail CI on any simulated-cycle drift.

Compares the per-point cycle counts of a fresh ``BENCH_sim.json`` (written
by ``experiments all --quick``) against the checked-in snapshot
``results/quick_cycles.json``. Wall-clock numbers are ignored — only the
deterministic simulation results are compared, so any diff means the
simulator's semantics changed and the snapshot must be regenerated
deliberately (``experiments all --quick`` then copy the cycle map).

Both sides may be full reports: CI also runs the full-size ``experiments all``
and compares it with the committed ``BENCH_sim.json`` (``git show
HEAD:BENCH_sim.json``), so the recorded full-size cycle points are gated too.

Either side may also be a flat ``{"key": count}`` map, which is how the
static-verification verdict counts are gated: ``experiments samcheck``
rewrites the tracked ``results/samcheck_quick.json``, and CI compares it with
the committed copy (``git show HEAD:results/samcheck_quick.json``).

Usage: check_cycle_drift.py BENCH_sim.json results/quick_cycles.json
       check_cycle_drift.py BENCH_sim.json committed_BENCH_sim.json
       check_cycle_drift.py results/samcheck_quick.json committed_copy.json
"""

import json
import sys


def cycle_map(report: dict) -> dict:
    """Flatten a BENCH_sim.json report to {"figure/label": cycles}.

    Raises ``SystemExit`` on a figure with no points: an empty figure is
    indistinguishable from a silently broken sweep, so the report writer
    drops point-free figures and the gate enforces that invariant.
    """
    out = {}
    for fig in report.get("figures", []):
        points = fig.get("points", [])
        if not points:
            sys.exit(f"figure '{fig.get('id', '?')}' has no points — broken sweep?")
        for point in points:
            out[f"{fig['id']}/{point['label']}"] = point["cycles"]
    for row in report.get("sched", []):
        out[f"sched/{row['workload']}"] = row["cycles"]
    return out


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    # Either side is a raw {"key": count} map or a full report.
    sides = []
    for path in sys.argv[1:]:
        with open(path) as f:
            side = json.load(f)
        sides.append(cycle_map(side) if "figures" in side else side)
    fresh, snapshot = sides

    drift = []
    for key, want in sorted(snapshot.items()):
        got = fresh.get(key)
        if got is None:
            drift.append(f"  missing point: {key} (snapshot: {want})")
        elif got != want:
            drift.append(f"  {key}: {want} -> {got}")
    for key in sorted(set(fresh) - set(snapshot)):
        drift.append(f"  new point (not in snapshot): {key} = {fresh[key]}")

    if drift:
        print(f"drift against {sys.argv[2]}:")
        print("\n".join(drift))
        print(
            f"\n{len(drift)} drifting point(s). If this change is intended, "
            "regenerate the snapshot:\n"
            "  cargo run --release -p fuseflow-bench --bin experiments -- all --quick\n"
            "  python3 scripts/check_cycle_drift.py --update  # or copy by hand\n"
            "(for results/samcheck_quick.json: commit the file `experiments samcheck` wrote)"
        )
        return 1
    print(f"no drift ({len(snapshot)} points checked)")
    return 0


def update() -> int:
    args = [a for a in sys.argv[1:] if a != "--update"]
    report_path = args[0] if len(args) > 0 else "BENCH_sim.json"
    snapshot_path = args[1] if len(args) > 1 else "results/quick_cycles.json"
    with open(report_path) as f:
        report = json.load(f)
    if not report.get("quick", False):
        print(
            f"refusing to update: {report_path} was written by a full run "
            '("quick": false), but the CI gate regenerates with --quick.\n'
            "Run `experiments -- all --quick` first.",
            file=sys.stderr,
        )
        return 2
    fresh = cycle_map(report)
    with open(snapshot_path, "w") as f:
        json.dump(fresh, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"snapshot {snapshot_path} updated ({len(fresh)} points)")
    return 0


if __name__ == "__main__":
    sys.exit(update() if "--update" in sys.argv else main())
