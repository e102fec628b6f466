"""tools/fingerprints.py's lines, on a fingerprint in the shape of the
benchmark's `record` line."""

import hashlib
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("fingerprints", ROOT / "tools" / "fingerprints.py")
fingerprints = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(fingerprints)

FINGERPRINT = {
    "layers": {"cf/conv2": {"nf_mean": 0.125, "tiles": 4, "nf_p95": None},
               "cf/conv1": {"nf_mean": 0.5, "tiles": 1, "nf_p95": 0.75}},
    "kcl_worst": {"cf/conv1": 1.5e-16},
    "screen_nf_mean": {"none": {"conv1": 0.1 + 0.2, "conv2": 1 / 3}},
    "accuracy": {"nonideal": 0.989, "ideal": 0.995},
}


def digest(value):
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def test_leaves_list_every_value_by_path_with_sorted_keys_to_nine_digits():
    assert fingerprints.leaves({"b": {"y": 1 / 3, "x": 2}, "a": None, "c": "s"}) == [
        "a=null", "b/x=2", "b/y=0.333333333", 'c="s"']
    # a move in the last bits keeps the shown value
    assert fingerprints.leaves({"v": 0.1 + 0.2}) == fingerprints.leaves({"v": 0.3}) == ["v=0.3"]
    assert fingerprints.leaves({"v": 1.5e-16}) == ["v=1.5e-16"]


def test_one_line_per_field_with_the_values_of_the_screen_and_the_accuracy():
    lines = fingerprints.fingerprint_lines("paper-e2e seed 0", FINGERPRINT, 0)
    head = "paper-e2e seed 0"
    assert lines == [
        f"{head} failed 0",
        f"{head} accuracy {digest(FINGERPRINT['accuracy'])} ideal=0.995 nonideal=0.989",
        f"{head} kcl_worst {digest(FINGERPRINT['kcl_worst'])}",
        f"{head} layers/cf/conv1 {digest(FINGERPRINT['layers']['cf/conv1'])}",
        f"{head} layers/cf/conv2 {digest(FINGERPRINT['layers']['cf/conv2'])}",
        f"{head} screen_nf_mean {digest(FINGERPRINT['screen_nf_mean'])} "
        "none/conv1=0.3 none/conv2=0.333333333",
    ]
    # the digest tells a move in the last bits that the shown values hide
    moved = dict(FINGERPRINT, screen_nf_mean={"none": {"conv1": 0.3, "conv2": 1 / 3}})
    before, after = (fingerprints.fingerprint_lines(head, fp, 0)[-1]
                     for fp in (FINGERPRINT, moved))
    assert before != after and before.split()[5:] == after.split()[5:]
    assert "layers" in FINGERPRINT      # the caller's fingerprint is not changed


def test_a_workload_without_a_screen_or_accuracy_prints_digests_only():
    fingerprint = {"layers": {"dense/conv2": {"tiles": 4}}, "kcl_worst": {"dense/conv2": 0.0}}
    assert fingerprints.fingerprint_lines("sim-n32 seed 1", fingerprint, 2) == [
        "sim-n32 seed 1 failed 2",
        f"sim-n32 seed 1 kcl_worst {digest({'dense/conv2': 0.0})}",
        f"sim-n32 seed 1 layers/dense/conv2 {digest({'tiles': 4})}",
    ]
