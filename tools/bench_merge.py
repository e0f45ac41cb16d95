#!/usr/bin/env python3
"""Merge google-benchmark JSON outputs and gate on metric regressions.

Two subcommands:

  merge OUT IN [IN ...]
      Concatenates the "benchmarks" arrays of the inputs into OUT,
      keeping the first input's "context". Used by CI to fold
      micro_simcore, micro_dataplane, and ext_fct_workloads results
      into the single BENCH_simcore.json artifact.

  compare BASELINE CURRENT [--max-regression FRAC]
      Compares every benchmark carrying a gated metric that appears in
      both files, honouring the metric's direction: "pkts/s",
      "events/s", and "steps/s" (throughput, higher is better) fail on
      a drop, "p99_fct_s" (tail flow-completion time, lower is better)
      fails on a rise, and "critical_n" (the stability atlas's
      limit-cycle onset, deterministic math) must match the baseline
      exactly — any shift in either direction fails regardless of FRAC.
      Every gated baseline row must also be present in CURRENT: a row
      that was renamed or vanished is listed and fails, since it would
      otherwise drop its gate silently. Exits non-zero when a gated
      row is missing or any gated metric regressed by more than FRAC
      (default 0.10) relative to the baseline.

Only the standard library is used.
"""

import argparse
import json
import sys

# Gated metrics and their direction: "higher" means bigger is better
# (throughput), "lower" means smaller is better (latency/FCT), "exact"
# means the value is deterministic and must not move at all (the
# stability atlas's predicted onsets).
GATED_METRICS = {
    "pkts/s": "higher",
    "events/s": "higher",
    "steps/s": "higher",
    "p99_fct_s": "lower",
    "critical_n": "exact",
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


def gated_values(doc):
    """(metric, benchmark name) -> value for every gated metric."""
    vals = {}
    for b in doc.get("benchmarks", []):
        # Skip _mean/_stddev style aggregate rows; compare raw runs.
        if b.get("run_type") == "aggregate":
            continue
        for metric in GATED_METRICS:
            v = b.get(metric)
            if v is not None:
                vals[(metric, b["name"])] = float(v)
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
        print(f"{name}: baseline {base[(metric, name)]:.6g} {metric}, "
              f"missing from current MISSING")
    failed = False
    for metric, name in common:
        key = (metric, name)
        direction = GATED_METRICS[metric]
        if direction == "exact":
            regressed = cur[key] != base[key]
            verdict = "REGRESSION" if regressed else "ok"
            failed = failed or regressed
            print(f"{name}: baseline {base[key]:.6g} {metric}, "
                  f"current {cur[key]:.6g} {metric} (exact) {verdict}")
            continue
        ratio = cur[key] / base[key]
        if direction == "higher":
            regressed = ratio < 1.0 - args.max_regression
        else:
            regressed = ratio > 1.0 + args.max_regression
        verdict = "REGRESSION" if regressed else "ok"
        failed = failed or regressed
        print(f"{name}: baseline {base[key]:.6g} {metric}, "
              f"current {cur[key]:.6g} {metric} "
              f"({(ratio - 1.0) * 100:+.1f}%) {verdict}")
    if missing:
        print(f"fail: {len(missing)} gated baseline row(s) missing from "
              f"the current run", file=sys.stderr)
    if failed:
        print(f"fail: a gated metric regressed more than "
              f"{args.max_regression * 100:.0f}% vs baseline",
              file=sys.stderr)
    return 1 if failed or missing else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_merge = sub.add_parser("merge", help="merge benchmark JSON files")
    p_merge.add_argument("out")
    p_merge.add_argument("inputs", nargs="+")
    p_merge.set_defaults(func=cmd_merge)

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
