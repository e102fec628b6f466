"""Runs one workload and prints its metrics, or every workload in turn.

A run is one single-threaded, closed-loop client: it sets the workload up
SETUP_REPS times (each starting with the package import in a fresh
interpreter), checks a seeded sample of tiles (outside timing; this also
lets lazy imports and caches settle), then runs timed passes back to back
until the run's seconds are spent, checking each pass's outputs between
passes. Timings are host time; the end-to-end ones are calibrated against
the host's momentary speed (see pacing.py).

With ``--trace 1`` the run wraps xbarprune's public callables (see
tracing.py), alternates untraced and traced passes so that it can state
the tracing overhead, and reports per-module metrics instead of
end-to-end ones. The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import xbarprune

from . import checks, pacing, sensitivity, tracing, workloads

SETUP_REPS = 5
HELDOUT_OFFSET = 7919      # the held-out seed is --seed plus this
REFERENCE_LAYERS = ("conv1", "conv2", "conv3", "dense1")

END_TO_END_UNITS = {"wall_s": "s", "tiles_per_s": "tiles/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def per_layer_units(layers=REFERENCE_LAYERS) -> dict[str, str]:
    units = {}
    for metric in tracing.PER_CALL_MS:
        units.update({f"{metric}.p50": "ms", f"{metric}.tail": "ms",
                      f"{metric}.count": "count"})
    units.update({m: "s" for m in (*tracing.PER_PASS_S, *tracing.PER_SETUP_S)})
    units.update({m: "count" for m in tracing.PER_PASS_CALLS})
    units.update({m: "1/s" for m in tracing.SAMPLE_RATES})
    units.update({"circuit.lu_nnz": "count", "circuit.solves_per_tile": "ratio",
                  "pruning.compression_rate": "ratio", "pruning.tiles_after": "count",
                  "trace.overhead_pct": "%"})
    units.update({f"mapping.tiles.{layer}": "count" for layer in layers})
    return units


def blas_threads():
    """Threads the OpenBLAS bundled with numpy will use, or the
    environment's setting when that library cannot be asked."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "libscipy_openblas*")):
        try:
            return int(ctypes.CDLL(lib).scipy_openblas_get_num_threads64_())
        except (OSError, AttributeError):
            continue
    return os.environ.get("OPENBLAS_NUM_THREADS")


def process_threads():
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    return {"nproc": os.cpu_count(), "blas_threads": blas_threads(),
            "process_threads": process_threads(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "python": platform.python_version(),
            "seed": seed, "heldout_seed": seed + HELDOUT_OFFSET}


IMPORT_PROBE = """
import time
t = time.perf_counter()
import xbarprune.mapping, xbarprune.nn
imported = time.perf_counter() - t
from perfbench.pacing import calibrate
print(imported, calibrate(10))
"""


def time_import() -> dict:
    """Import time of the package, numpy and scipy in a fresh interpreter,
    as a user's first run pays it, with the calibration kernel's speed in
    that interpreter right after."""
    src = Path(xbarprune.__file__).resolve().parents[1]
    path = os.pathsep.join([str(src), str(Path(__file__).resolve().parents[1])])
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True, timeout=120)
    imported, kernel_s = map(float, proc.stdout.split())
    return {"import_s": imported, "import_kernel_s": kernel_s,
            "import_normalized_s": imported * pacing.NOMINAL_S / kernel_s}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timing_record(t: pacing.Section) -> dict:
    return {**vars(t), "normalized_s": t.normalized_s}


def measure(name: str, seed: int, seconds: float, trace: bool,
            **overrides) -> tuple[dict, dict]:
    """One run of workload ``name``; returns (result, record)."""
    wl = workloads.make(name, seed, **overrides)
    tracer = tracing.Tracer() if trace else None
    # end-to-end times are calibrated against host speed; traced ones are raw
    section = pacing.plain_section if trace else pacing.Pacer().section

    setups = []
    for _ in range(SETUP_REPS):
        imported = time_import()
        with section() as timing, tracing.phase(tracer, "setup"):
            state = wl.setup()
        setups.append({**imported, **timing_record(timing),
                       "setup_s": imported["import_normalized_s"] + timing.normalized_s})

    log = checks.CheckLog()
    kcl = checks.check_tiles(wl.checked_layers(state), seed, log)

    fingerprints = []

    def one_pass(pass_tracer):
        with section() as timing, tracing.phase(pass_tracer, "pass"):
            outcome = wl.run_pass(state)
        checks.check_outcome(state.spec, wl.n, outcome, log)
        fingerprints.append(checks.fingerprint(wl.n, outcome, kcl))
        return timing

    # A traced run alternates untraced and traced passes, so that both
    # sides of its overhead figure sample the same stretch of host speed.
    start = time.perf_counter()
    untraced, passes, rounds = [], [], []
    while not rounds or time.perf_counter() - start + statistics.median(rounds) <= seconds:
        round_start = time.perf_counter()
        if trace:
            untraced.append(one_pass(None))
        passes.append(one_pass(tracer))
        rounds.append(time.perf_counter() - round_start)
    log.check("a pass's fingerprint differs from the first pass's",
              all(fp == fingerprints[0] for fp in fingerprints))

    layer_tiles: dict[str, int] = {}
    unpruned = 0.0
    for key, fp in fingerprints[0]["layers"].items():
        layer = key.split("/")[1]
        layer_tiles[layer] = layer_tiles.get(layer, 0) + fp["tiles"]
        unpruned += fp["tiles"] * fp["compression_rate"]
    tiles = sum(layer_tiles.values())
    wall = statistics.median(p.normalized_s for p in passes)

    record = {"workload": name, "env": environment(seed), "passes": len(passes),
              "pass": [timing_record(p) for p in passes],
              "setup": setups,
              "checks": {"attempted": log.attempted, "failed": log.failed,
                         "failures": log.failures},
              "fingerprint": fingerprints[0]}
    if trace:
        values, tails, missing = tracing.summarize(
            tracer.spans, wl.expected_pass | wl.expected_setup)
        values.update({f"mapping.tiles.{layer}": n for layer, n in layer_tiles.items()})
        values["pruning.tiles_after"] = tiles
        values["pruning.compression_rate"] = unpruned / tiles
        values["trace.overhead_pct"] = statistics.median(
            (t.wall_s / u.wall_s - 1.0) * 100.0 for u, t in zip(untraced, passes))
        units = per_layer_units(layer_tiles)
        record.update({"untraced_pass_s": [u.wall_s for u in untraced],
                       "tail_percentiles": tails,
                       "missing_stages": missing,
                       "spans_per_pass": len(tracer.spans) / (len(passes) + SETUP_REPS)})
    else:
        values = {"wall_s": wall, "tiles_per_s": tiles / wall,
                  "setup_s": statistics.median(t["setup_s"] for t in setups),
                  "peak_rss_mb": peak_rss_mb()}
        units = END_TO_END_UNITS
    result = {"correct": log.failed == 0, "attempted": log.attempted,
              "failed": log.failed,
              "metrics": {m: {"value": values[m], "unit": units[m]} for m in units}}
    return result, record


def report(result: dict, record: dict) -> None:
    """Human-readable lines, the record, then the result as the last line."""
    print(f"workload {record['workload']}: seed {record['env']['seed']}, "
          f"{record['passes']} timed passes, one closed-loop client")
    for name, m in result["metrics"].items():
        value = "missing" if m["value"] is None else f"{m['value']:.6g}"
        tail = record.get("tail_percentiles", {}).get(name.rsplit(".", 1)[0])
        label = f"  ({tail})" if tail and name.endswith(".tail") else ""
        print(f"  {name:34s} {value:>12s} {m['unit']}{label}")
    if record.get("missing_stages"):
        print(f"  missing stages (no spans recorded): {', '.join(record['missing_stages'])}")
    if "untraced_pass_s" in record:
        traced = [p["wall_s"] for p in record["pass"]]
        print(f"  tracing overhead: median over alternated pass pairs ({len(traced)}); "
              f"traced {min(traced):.4f}-{max(traced):.4f} s, untraced "
              f"{min(record['untraced_pass_s']):.4f}-{max(record['untraced_pass_s']):.4f} s")
    frac = result["failed"] / result["attempted"]
    print(f"  checks: {result['attempted']} attempted, {result['failed']} failed "
          f"(failed_frac {frac:g})")
    for failure in record["checks"]["failures"]:
        print(f"    FAILED {failure}")
    print("record " + json.dumps(record))
    print(json.dumps(result), flush=True)


def run_all(args) -> int:
    """Every workload in its own process, so each reports its own peak
    memory; prints a summary and a combined result line."""
    run_py = str(Path(__file__).with_name("run.py"))
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, run_py, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        sys.stdout.write("\n".join(line for line in proc.stdout.splitlines()
                                   if not line.startswith(("record ", "{"))) + "\n")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{m}": v for m, v in result["metrics"].items()})
    print(f"all workloads: {combined['attempted']} checks, {combined['failed']} failed "
          f"(failed_frac {combined['failed'] / combined['attempted']:g})")
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sensitivity", type=int, metavar="ROUNDS",
                        help="instead of a run, check that an injected extra cost "
                             "comes through the calibration (see sensitivity.py)")
    args = parser.parse_args(argv)
    if args.sensitivity is not None:
        if args.workload == "all" or args.sensitivity < 1:
            parser.error("--sensitivity needs one workload and at least one round")
        sensitivity.report(sensitivity.measure(args.workload, args.seed, args.sensitivity))
        return 0
    if args.workload == "all":
        return run_all(args)
    report(*measure(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0
