"""Run alternating parent/change pairs of the benchmark and summarize them.

    python3 tools/pairs.py <parent checkout> <change checkout> \\
        --workload paper-e2e --seed 0 --pairs 10 --seconds 25

Each pair runs ``perfbench/run.py --workload W --seed S --seconds T
--trace 0`` once at the root of each checkout, one after the other; the
side that runs first alternates, starting with the parent. For every
end-to-end metric of BENCHMARK.json (read from the change checkout) it
prints each side's quartiles (q1, median, q3, inclusive method) over the
pairs, the pairs the change wins (ties count for neither), the change of
the median in percent, whether the median stays within BENCHMARK.json's
bound, and whether the change's gain would count: a win in at least nine
tenths of the pairs, with the medians further apart than the parent's
interquartile distance.

The last two lines are ``pairs <JSON>``, every pair's result lines, and
the summary as one JSON object, in the shape of a ``summary`` entry of
the ``BENCH_*.json`` files. The script writes no file.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path("perfbench") / "run.py"


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in `checkout`: its result line, with the
    median raw pass time of its record and its pass count."""
    proc = subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seed",
                           str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{checkout}: {RUN} exited {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    record = json.loads(next(line for line in lines if line.startswith("record "))[7:])
    result = json.loads(lines[-1])
    result["raw_pass_wall_s_median"] = statistics.median(p["wall_s"] for p in record["pass"])
    result["passes"] = record["passes"]
    return result


def quartiles(values: list[float]) -> list[float]:
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def compare(metric: dict, pairs: list[dict]) -> dict:
    """The summary of one end-to-end metric (name, better, bound) over the pairs."""
    name, lower = metric["name"], metric["better"] == "lower"
    parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
    change = [p["change"]["metrics"][name]["value"] for p in pairs]
    p_q, c_q = quartiles(parent), quartiles(change)
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    ratio = c_q[1] / p_q[1]
    return {"parent_quartiles": p_q, "change_quartiles": c_q, "change_wins": wins,
            "median_change_pct": (ratio - 1.0) * 100.0,
            "within_bound": ratio <= 1.0 + metric["bound"] if lower
            else ratio >= 1.0 - metric["bound"],
            "median_gap_exceeds_parent_iqr": abs(c_q[1] - p_q[1]) > p_q[2] - p_q[0]}


def summarize(workload: str, seed: int, pairs: list[dict], metrics: list[dict]) -> dict:
    """A ``summary`` entry of a BENCH_*.json file for one workload and seed."""
    out = {"workload": workload, "seed": seed, "pairs": len(pairs)}
    out.update({m["name"]: compare(m, pairs) for m in metrics})
    out["raw_pass_wall_s_median"] = {
        side: statistics.median(p[side]["raw_pass_wall_s_median"] for p in pairs)
        for side in ("parent", "change")}
    out["failed"] = {side: sum(p[side]["failed"] for p in pairs)
                     for side in ("parent", "change")}
    return out


def gain_counts(metric: dict, pairs: int) -> bool:
    """Whether a metric's summary over `pairs` pairs shows a gain: at least
    nine tenths of them won, and the medians further apart than the
    parent's quartiles."""
    return (metric["change_wins"] >= math.ceil(0.9 * pairs)
            and metric["median_gap_exceeds_parent_iqr"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the parent's checkout")
    parser.add_argument("change", type=Path, help="root of the change's checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    args = parser.parse_args(argv)
    metrics = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]

    pairs = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": args.seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(getattr(args, side), args.workload, args.seed, args.seconds)
            print(f"pair {i + 1}/{args.pairs} {side}: " + ", ".join(
                f"{m} {v['value']:.6g}" for m, v in pair[side]["metrics"].items()),
                file=sys.stderr, flush=True)
        pairs.append(pair)

    summary = summarize(args.workload, args.seed, pairs, metrics)
    print(f"{args.workload} seed {args.seed}: {len(pairs)} pairs of {args.seconds:g} s, "
          f"failed checks {summary['failed']['parent']} (parent) "
          f"{summary['failed']['change']} (change)")
    for m in metrics:
        s = summary[m["name"]]
        print(f"  {m['name']:12s} parent {' '.join(f'{q:.6g}' for q in s['parent_quartiles'])}"
              f"  change {' '.join(f'{q:.6g}' for q in s['change_quartiles'])} {m['unit']}"
              f"  wins {s['change_wins']}/{len(pairs)}  median {s['median_change_pct']:+.2f} %"
              f"  within bound {m['bound']:g}: {'yes' if s['within_bound'] else 'NO'}"
              f"  gain counts: {'yes' if gain_counts(s, len(pairs)) else 'no'}")
    print("pairs " + json.dumps(pairs))
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
