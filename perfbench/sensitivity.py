"""Does a known extra cost in xbarprune come through the calibration?

The calibrated times of pacing.py divide by the speed of a kernel that
runs in the same process as the measured work, so a change to the
program's memory behaviour could move the divisor as well. This run
checks that at full size. It injects a known extra cost into the
package: before every crossbar system that ``mapping`` builds, a
throwaway copy of the system is built (assembly and sparse LU) and its
G_eff extracted, the most memory-heavy step of a tile. Each round times,
under one Pacer and in an order that rotates from round to round:

    base      one pass of the workload;
    injected  one pass with the extra cost injected;
    extra     the extra cost of one pass alone: every system of the pass
              built and its G_eff extracted once more.

When calibrated times add up, (injected - base) / extra is 1.

    python3 perfbench/run.py --workload sim-n128 --sensitivity 3
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager

from xbarprune import circuit, mapping

from . import pacing, workloads


@contextmanager
def replaced_builder(builder):
    original = mapping.CrossbarSystem
    mapping.CrossbarSystem = builder
    try:
        yield
    finally:
        mapping.CrossbarSystem = original


def build_twice(*args, **kwargs):
    circuit.CrossbarSystem(*args, **kwargs).effective_conductance()
    return circuit.CrossbarSystem(*args, **kwargs)


def measure(name: str, seed: int, rounds: int, **overrides) -> dict:
    wl = workloads.make(name, seed, **overrides)
    state = wl.setup()
    built = []

    def capture(*args, **kwargs):
        built.append((args, kwargs))
        return circuit.CrossbarSystem(*args, **kwargs)

    with replaced_builder(capture):     # untimed; also lets caches settle
        wl.run_pass(state)

    def base():
        wl.run_pass(state)

    def injected():
        with replaced_builder(build_twice):
            wl.run_pass(state)

    def extra():
        for args, kwargs in built:
            circuit.CrossbarSystem(*args, **kwargs).effective_conductance()

    sides = {"base": base, "injected": injected, "extra": extra}
    pacer = pacing.Pacer()
    times = {side: {"calibrated": [], "raw": []} for side in sides}
    for r in range(rounds):
        order = list(sides)[r % 3:] + list(sides)[:r % 3]
        for side in order:
            with pacer.section() as t:
                sides[side]()
            times[side]["calibrated"].append(t.normalized_s)
            times[side]["raw"].append(t.wall_s - t.burst_s)

    recovered = {
        kind: statistics.median(
            (i - b) / e for b, i, e in zip(times["base"][kind], times["injected"][kind],
                                           times["extra"][kind]))
        for kind in ("calibrated", "raw")}
    return {"workload": name, "seed": seed, "systems_per_pass": len(built),
            "times": times, "recovered": recovered}


def report(result: dict) -> None:
    print(f"sensitivity {result['workload']}: seed {result['seed']}, "
          f"{result['systems_per_pass']} extra systems per pass")
    for side, kinds in result["times"].items():
        for kind, values in kinds.items():
            print(f"  {side:8s} {kind:10s} " + " ".join(f"{v:8.4f}" for v in values) + " s")
    for kind, value in result["recovered"].items():
        print(f"  recovered share, {kind:10s} {value:.3f}  (median over rounds of "
              f"(injected - base) / extra)")
    print(json.dumps(result), flush=True)
