#!/usr/bin/env python3
"""Compares two sets of bench_e2e results, workload by workload.

    python3 bench/e2e/compare.py BASE_DIR NEW_DIR [--benchmark BENCHMARK.json]
    python3 bench/e2e/compare.py RUNS_A RUNS_B --same

Each directory holds the <workload>_seed<S>_trace0.json files run.py
writes (run with --out DIR). Runs of the two sides are paired by workload
and seed; make them alternate which side runs first.

For every workload x end-to-end metric of BENCHMARK.json it prints both
sides' median and quartiles and a verdict:

  better      at least 10 pairs, the new side wins at least 9/10 of them
              (ties count for neither), and the medians differ by more than
              the base side's interquartile range;
  worse       the new median is worse than the base median by more than
              the metric's bound;
  unresolved  a side's spread (IQR / median) exceeds the bound, unless
              every new run beats every base run; or a gain shows on fewer
              than 10 pairs;
  slower      within the bound, but the mirror of "better": at least 10
              pairs, the new side loses at least 9/10 of them, and the
              medians differ by more than the base side's interquartile
              range. One bound covers every workload, so a workload that
              repeats far more closely than the noisiest one shows a
              steady regression here before it reaches the bound;
  unchanged   otherwise.

--same checks that two run sets of one commit agree: each metric's
medians differ by at most its bound. Exit status 1 on any "worse" (or,
with --same, any disagreement).
"""

import argparse
import glob
import json
import os
import re
import statistics
import sys

NAME = re.compile(
    r"^(?P<workload>[A-Za-z0-9_.-]+)_seed(?P<seed>\d+)_trace0\.json$")


def load_runs(directory):
    """{workload: {seed: {metric: value}}} from one result directory."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*_trace0.json"))):
        match = NAME.match(os.path.basename(path))
        if not match:
            continue
        with open(path) as f:
            lines = [line for line in f.read().splitlines() if line.strip()]
        if not lines:
            continue
        result = json.loads(lines[-1])
        if not result.get("correct", False):
            sys.stderr.write(f"compare.py: skipping incorrect run {path}\n")
            continue
        values = {name: m["value"] for name, m in result["metrics"].items()}
        runs.setdefault(match["workload"], {})[int(match["seed"])] = values
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(base, new, pairs, metric):
    """Applies the rule in the module docstring to one workload x metric."""
    higher = metric["better"] == "higher"
    bound = metric["bound"]

    def gain(b, n):  # Positive when the new value is better.
        return (n - b) if higher else (b - n)

    b_q1, b_med, b_q3 = quartiles(base)
    _, n_med, _ = quartiles(new)
    wins = sum(1 for b, n in pairs if gain(b, n) > 0)
    losses = sum(1 for b, n in pairs if gain(b, n) < 0)
    if gain(b_med, n_med) < -bound * abs(b_med):
        return "worse", wins
    if (len(pairs) >= 10 and losses >= 0.9 * len(pairs)
            and -gain(b_med, n_med) > (b_q3 - b_q1)):
        return "slower", wins
    separated = all(gain(b, n) > 0 for b in base for n in new)
    if max(spread(base), spread(new)) > bound and not separated:
        return "unresolved", wins
    if wins >= 0.9 * len(pairs) and gain(b_med, n_med) > (b_q3 - b_q1):
        return ("better", wins) if len(pairs) >= 10 else ("unresolved", wins)
    return "unchanged", wins


def fmt(values):
    q1, med, q3 = quartiles(values)
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}]"


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--benchmark", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "..",
        "BENCHMARK.json"))
    parser.add_argument("--same", action="store_true",
                        help="both directories hold runs of one commit")
    args = parser.parse_args()

    with open(args.benchmark) as f:
        metrics = json.load(f)["end_to_end"]
    base_runs = load_runs(args.base)
    new_runs = load_runs(args.new)
    failed = False
    print(f"{'workload':18} {'metric':12} {'base median [q1, q3]':30} "
          f"{'new median [q1, q3]':30} {'pairs':>5} {'wins':>4}  verdict")
    for workload in sorted(set(base_runs) | set(new_runs)):
        base_seeds = base_runs.get(workload, {})
        new_seeds = new_runs.get(workload, {})
        common = sorted(set(base_seeds) & set(new_seeds))
        for metric in metrics:
            name = metric["name"]
            base = [run[name] for run in base_seeds.values() if name in run]
            new = [run[name] for run in new_seeds.values() if name in run]
            if not base or not new:
                print(f"{workload:18} {name:12} missing on one side")
                failed = True
                continue
            pairs = [(base_seeds[s][name], new_seeds[s][name]) for s in common]
            if args.same:
                b_med = statistics.median(base)
                gap = abs(statistics.median(new) - b_med) / abs(b_med)
                result = "agree" if gap <= metric["bound"] else "disagree"
                result += f" (gap {100 * gap:.2f}% vs bound " \
                          f"{100 * metric['bound']:.0f}%)"
                failed |= gap > metric["bound"]
                wins = "-"
            else:
                result, wins = verdict(base, new, pairs, metric)
                failed |= result == "worse"
            print(f"{workload:18} {name:12} {fmt(base):30} {fmt(new):30} "
                  f"{len(pairs):5} {wins:>4}  {result}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
