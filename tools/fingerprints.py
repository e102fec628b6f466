"""Print digest lines per benchmark workload and seed, to compare two
checkouts' results with diff.

    cd <checkout> && python3 <this file> 0 1 > fingerprints.txt

Run from the root of a source checkout. For every workload of that
checkout's benchmark and every seed given (default 0) it runs
``perfbench/run.py --workload W --seconds 1 --seed S`` and prints

    <workload> seed <S> failed <failed checks>
    <workload> seed <S> <field> <SHA-256 of the field>

with one digest line for every top-level field of the ``record`` line's
fingerprint, and one for each layer of its ``layers`` field
(``layers/<config>/<layer>``): ``kcl_worst``, and ``screen_nf_mean`` and
``accuracy`` where the workload has them. Each digest is taken over the
field as JSON with sorted keys, so diff names the fields that moved. The
``screen_nf_mean`` and ``accuracy`` lines also list every value of their
field, ``<order>/<layer>=<NF>`` and ``<net>=<accuracy>``, to 9
significant digits, so that a move in the last bits, which changes only
the digest, reads apart from a real one. Two checkouts compute the
same numbers where their outputs are identical; a run that exits
non-zero stops the script with its exit status.
"""

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

RUN = Path("perfbench") / "run.py"
# the fields whose values their line lists after the digest
SHOWN = ("screen_nf_mean", "accuracy")


def workloads() -> list[str]:
    """The workload names of the checkout in the current directory."""
    listing = ("import sys; sys.path[:0] = ['src', '.']; "
               "from perfbench.workloads import WORKLOADS; print(*WORKLOADS)")
    return subprocess.run([sys.executable, "-c", listing], check=True, capture_output=True,
                          text=True).stdout.split()


def sha256(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def leaves(value, path: str = "") -> list[str]:
    """``<path>=<value>`` of every leaf of nested dicts, keys sorted and
    joined by /, numbers to 9 significant digits."""
    if isinstance(value, dict):
        return [leaf for key in sorted(value) for leaf in leaves(value[key], f"{path}{key}/")]
    shown = f"{value:.9g}" if isinstance(value, float) else json.dumps(value)
    return [f"{path[:-1]}={shown}"]


def digests(workload: str, seed: int) -> list[str]:
    """The lines for one run of `workload` at `seed`."""
    proc = subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seconds", "1",
                           "--seed", str(seed)], capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        sys.exit(proc.returncode)
    lines = proc.stdout.splitlines()
    record = json.loads(next(line for line in lines if line.startswith("record "))[7:])
    return fingerprint_lines(f"{workload} seed {seed}", record["fingerprint"],
                             json.loads(lines[-1])["failed"])


def fingerprint_lines(head: str, fingerprint: dict, failed: int) -> list[str]:
    """The lines for one run's `fingerprint` and count of failed checks,
    each starting with `head`."""
    fields = dict(fingerprint)
    fields.update({f"layers/{key}": value for key, value in fields.pop("layers").items()})
    lines = [f"{head} failed {failed}"]
    for name in sorted(fields):
        line = f"{head} {name} {sha256(fields[name])}"
        if name in SHOWN:
            line = " ".join([line, *leaves(fields[name])])
        lines.append(line)
    return lines


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", type=int, nargs="*", default=[0])
    args = parser.parse_args(argv)
    if not RUN.is_file():
        parser.error(f"{RUN} not found: run from the root of a source checkout")
    for workload in workloads():
        for seed in args.seeds:
            print(*digests(workload, seed), sep="\n", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
