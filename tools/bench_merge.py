#!/usr/bin/env python3
"""Merge google-benchmark JSON outputs and gate on metric regressions.

Three subcommands:

  merge OUT IN [IN ...]
      Concatenates the "benchmarks" arrays of the inputs into OUT,
      keeping the first input's "context". CI folds the four micro_*
      google-benchmark outputs and the six ext benches' reports
      (bench::Report, <bench>.json in DTDCTCP_CSV_DIR) into the single
      BENCH_simcore.json artifact.

  perfbench OUT RUN [RUN ...]
      Turns captured stdout of `perfbench/run.py --trace 1` runs into
      one row per workload, "perfbench/<workload>", carrying every
      per-layer metric the run's table flags "exact" (deterministic
      work counts: events, cancels and queue calls per packet, parsim
      rounds, route rebuilds, fluid ticks, ...) at the full precision
      of its JSON result line, and listing them under the row's
      "exact" key so compare gates each one exactly. A run that
      reports a failed operation is refused.

  compare BASELINE CURRENT [--max-regression FRAC]
      Compares every benchmark carrying a gated metric that appears in
      both files: "pkts/s" and "steps/s" (throughput, higher is
      better) fail on a drop of more than FRAC, while "p99_fct_s"
      (tail flow-completion time, which is simulated time and so
      deterministic), "critical_n" (the stability atlas's limit-cycle
      onset, deterministic math), "events" (kernel events per run) and
      every field a row names in its "exact" list must match the
      baseline exactly — any shift in either direction fails
      regardless of FRAC. "events/s" is not gated: it is pkts/s times
      events per packet, so a change that removes kernel work would
      read as a slowdown; the rows carrying it gate pkts/s and the
      exact "events" instead. Every gated baseline row must also be
      present in CURRENT: a row that was renamed or vanished is listed
      and fails, since it would otherwise drop its gate silently.
      Exits non-zero when a gated row is missing, an exact metric
      moved, or a throughput dropped by more than FRAC (default 0.10)
      relative to the baseline.

Only the standard library is used.
"""

import argparse
import json
import sys

# Gated metrics and their direction: "higher" means bigger is better
# (throughput), "exact" means the value is deterministic and must not
# move at all (simulated flow-completion times, the stability atlas's
# predicted onsets, kernel event counts).
GATED_METRICS = {
    "pkts/s": "higher",
    "steps/s": "higher",
    "p99_fct_s": "exact",
    "critical_n": "exact",
    "events": "exact",
}


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def cmd_merge(args):
    merged = None
    for path in args.inputs:
        doc = load(path)
        if merged is None:
            merged = {"context": doc.get("context", {}), "benchmarks": []}
        merged["benchmarks"].extend(doc.get("benchmarks", []))
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(merged, f, indent=2)
        f.write("\n")
    print(f"merged {len(args.inputs)} file(s), "
          f"{len(merged['benchmarks'])} benchmark entries -> {args.out}")
    return 0


def cmd_perfbench(args):
    rows = []
    for path in args.runs:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.read().splitlines()
        result = json.loads(lines[-1])
        if not result.get("correct") or result.get("failed", 0) != 0:
            print(f"error: {path}: perfbench reported a failed operation",
                  file=sys.stderr)
            return 2
        workload = None
        exact = []
        for line in lines:
            if line.startswith("per-layer breakdown, workload "):
                workload = line.split()[3]
            elif line.endswith(" exact"):
                exact.append(line.split()[0])
        if workload is None or not exact:
            print(f"error: {path}: no per-layer table (run with --trace 1)",
                  file=sys.stderr)
            return 2
        row = {"name": f"perfbench/{workload}", "exact": exact}
        for metric in exact:
            row[metric] = result["metrics"][metric]["value"]
        rows.append(row)
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump({"benchmarks": rows}, f, indent=2)
        f.write("\n")
    print(f"{len(rows)} perfbench row(s) -> {args.out}")
    return 0


def gated_values(doc):
    """(metric, benchmark name) -> (direction, value) for every gated
    metric: the GATED_METRICS fields plus those a row lists as exact."""
    vals = {}
    for b in doc.get("benchmarks", []):
        # Skip _mean/_stddev style aggregate rows; compare raw runs.
        if b.get("run_type") == "aggregate":
            continue
        gated = dict(GATED_METRICS)
        gated.update((metric, "exact") for metric in b.get("exact", []))
        for metric, direction in gated.items():
            v = b.get(metric)
            if v is not None:
                vals[(metric, b["name"])] = (direction, float(v))
    return vals


def cmd_compare(args):
    base = gated_values(load(args.baseline))
    cur = gated_values(load(args.current))
    common = sorted(set(base) & set(cur))
    if not common:
        print("error: no common gated benchmarks to compare",
              file=sys.stderr)
        return 2
    missing = sorted(set(base) - set(cur))
    for metric, name in missing:
        print(f"{name}: baseline {base[(metric, name)][1]:.6g} {metric}, "
              f"missing from current MISSING")
    failed = False
    for metric, name in common:
        direction, b = base[(metric, name)]
        c = cur[(metric, name)][1]
        if direction == "exact":
            regressed = c != b
            verdict = "REGRESSION" if regressed else "ok"
            failed = failed or regressed
            print(f"{name}: baseline {b:.17g} {metric}, "
                  f"current {c:.17g} {metric} (exact) {verdict}")
            continue
        ratio = c / b
        regressed = ratio < 1.0 - args.max_regression
        verdict = "REGRESSION" if regressed else "ok"
        failed = failed or regressed
        print(f"{name}: baseline {b:.6g} {metric}, "
              f"current {c:.6g} {metric} "
              f"({(ratio - 1.0) * 100:+.1f}%) {verdict}")
    if missing:
        print(f"fail: {len(missing)} gated baseline row(s) missing from "
              f"the current run", file=sys.stderr)
    if failed:
        print(f"fail: an exact metric moved or a throughput dropped more "
              f"than {args.max_regression * 100:.0f}% vs baseline",
              file=sys.stderr)
    return 1 if failed or missing else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_merge = sub.add_parser("merge", help="merge benchmark JSON files")
    p_merge.add_argument("out")
    p_merge.add_argument("inputs", nargs="+")
    p_merge.set_defaults(func=cmd_merge)

    p_pb = sub.add_parser("perfbench",
                          help="gate rows from perfbench --trace 1 runs")
    p_pb.add_argument("out")
    p_pb.add_argument("runs", nargs="+")
    p_pb.set_defaults(func=cmd_perfbench)

    p_cmp = sub.add_parser("compare", help="gate on metric regressions")
    p_cmp.add_argument("baseline")
    p_cmp.add_argument("current")
    p_cmp.add_argument("--max-regression", type=float, default=0.10,
                       help="maximum tolerated fractional regression "
                            "(default 0.10)")
    p_cmp.set_defaults(func=cmd_compare)

    args = parser.parse_args()
    sys.exit(args.func(args))


if __name__ == "__main__":
    main()
