"""The benchmark's workloads, run and checked through the package the way
the benchmark runs them.

perfbench/workloads.py calls prepare_world, iterate_cycles with
test_images= and rare_ids=, run_experiment and run_ratio_sweep, and reads
their results and output files. A change to any of these that the
benchmark cannot follow fails here rather than first in a benchmark run;
perfbench/tests covers golden_run at seed 0. Every workload at seeds 0 and
1 must give the recorded fingerprint, so a change that moves any output
byte fails here.
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

# the same at seed 1, for all four workloads (perfbench/tests runs
# golden_run at seed 0); recorded before the schedule and the pseudo labels
# became arrays
SEED_1_FINGERPRINT_SHA256 = {
    "golden_run": "d3476596ef8cdaec",
    "data_pass": "d8e1be82e022bdce",
    "seed_sweep": "d55957b5a7b679b0",
    "pseudo_cycles": "bef0a0d4c410bd34",
}
SEED_1_PSEUDO_DUMP_SHA256 = {
    "pseudo_cycle_1.jsonl": "7a740d48953c1aec",
    "pseudo_cycle_2.jsonl": "29179a82c3bb40ce",
    "pseudo_cycle_3.jsonl": "49b47c72377a5256",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def assert_run_and_check(name, seed, out_dir, fingerprint_sha256, dump_sha256):
    workload = workloads.WORKLOADS[name]
    result = workload.run(seed, str(out_dir))
    _, fingerprint = workload.check(seed, str(out_dir), result)
    assert sha256(json.dumps(fingerprint).encode()) == fingerprint_sha256
    if name == "pseudo_cycles":
        dumps = {path.name: sha256(path.read_bytes()) for path in out_dir.glob("*.jsonl")}
        assert dumps == dump_sha256


@pytest.mark.parametrize("name", sorted(FINGERPRINT_SHA256))
def test_a_workload_runs_and_checks_to_its_recorded_fingerprint(name, tmp_path):
    assert_run_and_check(name, 0, tmp_path, FINGERPRINT_SHA256[name], PSEUDO_DUMP_SHA256)


@pytest.mark.parametrize("name", sorted(SEED_1_FINGERPRINT_SHA256))
def test_a_workload_at_seed_1_runs_and_checks_to_its_recorded_fingerprint(name, tmp_path):
    assert_run_and_check(name, 1, tmp_path, SEED_1_FINGERPRINT_SHA256[name], SEED_1_PSEUDO_DUMP_SHA256)
