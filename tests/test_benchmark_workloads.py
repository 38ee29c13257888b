"""The benchmark's workloads, run and checked through the package the way
the benchmark runs them.

perfbench/workloads.py calls prepare_world, iterate_cycles with
test_images= and rare_ids=, run_experiment and run_ratio_sweep, and reads
their results and output files. A change to any of these that the
benchmark cannot follow fails here rather than first in a benchmark run;
perfbench/tests covers golden_run.
"""

import hashlib
import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import workloads  # noqa: E402

# sha256 of json.dumps(fingerprint) for each workload's run + check at seed
# 0, and of the pseudo-label dumps pseudo_cycles writes; recorded before
# an image became an index into a World (numpy 2.x + scipy-openblas
# 0.3.31 on x86-64)
FINGERPRINT_SHA256 = {
    "data_pass": "08a6e837c636e43e",
    "seed_sweep": "8490fd1b43df26f6",
    "pseudo_cycles": "f83cfdfb3ca473ed",
}
PSEUDO_DUMP_SHA256 = {
    "pseudo_cycle_1.jsonl": "01e9484ddf6d8a65",
    "pseudo_cycle_2.jsonl": "840bfeabbdf92fb7",
    "pseudo_cycle_3.jsonl": "1f93ea7631c6c2fe",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(FINGERPRINT_SHA256))
def test_a_workload_runs_and_checks_to_its_recorded_fingerprint(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    result = workload.run(0, str(tmp_path))
    _, fingerprint = workload.check(0, str(tmp_path), result)
    assert sha256(json.dumps(fingerprint).encode()) == FINGERPRINT_SHA256[name]
    if name == "pseudo_cycles":
        dumps = {path.name: sha256(path.read_bytes()) for path in tmp_path.glob("*.jsonl")}
        assert dumps == PSEUDO_DUMP_SHA256
