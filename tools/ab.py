#!/usr/bin/env python3
"""Paired A/B runs of two perfbench binaries on one workload.

    python3 tools/ab.py BASE_BIN CHANGE_BIN --workload fattree --seed 1 \\
        --pairs 10 --seconds 30 [--json out.json]

Runs `--pairs` pairs of untraced calls (`--trace 0`), alternating which
binary goes first, and prints, for each end-to-end metric named in
BENCHMARK.json: each side's median and quartiles, the ratio of the
medians (change / base), the change's wins over the pairs (ties count
for neither side), and whether the gain rule holds. The rule: the change
wins at least 9 pairs in 10, and the medians differ by more than the
base side's interquartile range.

It gates nothing: the exit status is 0 unless a call fails (non-zero
exit, no JSON result, `correct: false` or `failed > 0`), then 1; bad
arguments give 2. Build each binary with `python3 perfbench/run.py` in
its own checkout (it lands in `.bench_build/perfbench-release/`).
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def metric_directions():
    """Name -> 'higher' | 'lower', from BENCHMARK.json's end-to-end list."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["better"] for m in bench["end_to_end"]}


def run_once(binary, args):
    """One call; returns its metrics dict, or exits 1 on a failed call."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if out.returncode != 0 or not isinstance(result, dict):
        sys.exit(f"ab: {binary} exited {out.returncode} without a result")
    if result.get("correct") is not True or result.get("failed", 0) > 0:
        sys.exit(f"ab: {binary} reported correct={result.get('correct')} "
                 f"failed={result.get('failed')}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def summarize(name, better, base, change):
    b25, bmed, b75 = quartiles(base)
    c25, cmed, c75 = quartiles(change)
    wins = sum(1 for b, c in zip(base, change)
               if (c > b if better == "higher" else c < b))
    improved = cmed > bmed if better == "higher" else cmed < bmed
    gain = (wins >= math.ceil(0.9 * len(base)) and improved
            and abs(cmed - bmed) > b75 - b25)
    return {"metric": name, "better": better,
            "base": {"median": bmed, "p25": b25, "p75": b75},
            "change": {"median": cmed, "p25": c25, "p75": c75},
            "ratio": cmed / bmed if bmed != 0 else float("nan"),
            "wins": wins, "pairs": len(base), "gain": gain}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base", help="perfbench binary of the base revision")
    p.add_argument("change", help="perfbench binary of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=4.0)
    p.add_argument("--json", help="also write the samples and summary here")
    args = p.parse_args()
    if args.pairs < 1 or args.seconds <= 0:
        p.error("--pairs must be >= 1 and --seconds > 0")
    for b in (args.base, args.change):
        if not os.access(b, os.X_OK):
            p.error(f"{b} is not an executable")

    directions = metric_directions()
    samples = {"base": [], "change": []}
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            samples[side].append(run_once(getattr(args, side), args))
        print(f"ab: pair {i + 1}/{args.pairs} done", file=sys.stderr)

    rows = []
    for name, better in directions.items():
        base = [s[name] for s in samples["base"]]
        change = [s[name] for s in samples["change"]]
        rows.append(summarize(name, better, base, change))

    print(f"ab: {args.workload} seed {args.seed}, {args.pairs} alternating "
          f"pairs of {args.seconds:g} s calls (--trace 0)")
    def cell(q):
        return f"{q['median']:.5g} [{q['p25']:.5g}, {q['p75']:.5g}]"

    print(f"{'metric':<16}{'base median [p25, p75]':<38}"
          f"{'change median [p25, p75]':<38}{'ratio':>7}  {'wins':<7}gain")
    for r in rows:
        wins = f"{r['wins']}/{r['pairs']}"
        print(f"{r['metric']:<16}{cell(r['base']):<38}{cell(r['change']):<38}"
              f"{r['ratio']:>7.3f}  {wins:<7}{'yes' if r['gain'] else 'no'}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "pairs": args.pairs, "seconds": args.seconds,
                       "samples": samples, "summary": rows}, f, indent=1)


if __name__ == "__main__":
    main()
