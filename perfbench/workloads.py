"""The four benchmark workloads and the checks on their outputs.

Each workload is a batch job driven through the public API of ``hoimix``. Its
``run`` is the timed part; its ``check`` runs afterwards, raises CheckFailed on
a wrong output, and returns the final Full mAP and a fingerprint of the
outputs, which must repeat exactly at the same seed. The workload seed sets
``world.seed`` and ``train_seed``.

Functions are looked up on their modules at call time, so that a tracer
wrapping ``hoimix.experiment.run_experiment`` sees the call.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from hoimix import checkpoint, experiment, pseudo_label
from hoimix.evaluation import CSV_HEADER
from hoimix.experiment import ExperimentConfig
from hoimix.optimizer import state_to_arrays
from hoimix.synth_world import WorldConfig

# Outputs of the default run with run_id "golden" at seed 0 (numpy 2.x +
# scipy-openblas 0.3.31 on x86-64); other run ids change both digests.
GOLDEN_METRICS_SHA256 = "8d4d03554c52e7c4"
GOLDEN_CHECKPOINT_SHA256 = "c947421124486644"
GOLDEN_MAP_FULL = 0.7104337010334117

SWEEP_RATIOS = ((1.0, 0.0, 0.0), (0.7, 0.3, 0.0), (0.3, 0.7, 0.0), (0.0, 1.0, 0.0))
SWEEP_ITERATIONS = 600
PSEUDO_ITERATIONS = 2000


class CheckFailed(Exception):
    """An output of the program is wrong."""


@dataclass(frozen=True)
class Workload:
    run: Callable[[int, str], Any]
    check: Callable[[int, str, Any], tuple[float, Any]]


def _seeded(seed: int, **overrides) -> ExperimentConfig:
    world = dataclasses.replace(WorldConfig(), seed=seed, **overrides.pop("world", {}))
    return ExperimentConfig(world=world, train_seed=seed, **overrides)


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _check_map(value: float, what: str) -> None:
    if not (math.isfinite(value) and 0.0 <= value <= 1.0):
        raise CheckFailed(f"{what} = {value!r} is not in [0, 1]")


def _check_run_outputs(run, out_dir: str) -> tuple[str, str]:
    """metrics.csv holds the run's row; the checkpoint reloads bit-exactly.
    Returns the sha256 of metrics.csv and of checkpoint.ckpt."""
    metrics_path = os.path.join(out_dir, "metrics.csv")
    ckpt_path = os.path.join(out_dir, "checkpoint.ckpt")
    with open(metrics_path) as fh:
        lines = fh.read().splitlines()
    if lines != [CSV_HEADER, run.csv_row]:
        raise CheckFailed("metrics.csv does not hold the run's CSV row")
    row = next(csv.DictReader(lines))
    if float(row["map_full"]) != run.report.map_full:
        raise CheckFailed("metrics.csv map_full differs from the run's report")
    _check_map(run.report.map_full, "map_full")

    params, state, meta = checkpoint.load_checkpoint(ckpt_path)
    for name, arr in run.params.items():
        loaded = getattr(params, name)
        if loaded.dtype != arr.dtype or loaded.shape != arr.shape or loaded.tobytes() != arr.tobytes():
            raise CheckFailed(f"checkpoint parameter {name} does not round-trip bit-exactly")
    expected = state_to_arrays(run.state)
    reloaded = state_to_arrays(state)
    if sorted(expected) != sorted(reloaded) or state.t != run.state.t or any(
        expected[k].tobytes() != reloaded[k].tobytes() for k in expected
    ):
        raise CheckFailed("checkpoint momentum state does not round-trip bit-exactly")
    resaved = ckpt_path + ".resaved"
    checkpoint.save_checkpoint(resaved, params, state, meta=meta)
    if _sha256(resaved) != _sha256(ckpt_path):
        raise CheckFailed("re-saving the loaded checkpoint changes its bytes")
    return _sha256(metrics_path), _sha256(ckpt_path)


# golden_run: the default run; training dominates.


def run_golden(seed: int, out_dir: str):
    return experiment.run_experiment(_seeded(seed), run_id="golden", out_dir=out_dir)


def check_golden(seed: int, out_dir: str, run) -> tuple[float, Any]:
    metrics_sha, ckpt_sha = _check_run_outputs(run, out_dir)
    if seed == 0:
        if not metrics_sha.startswith(GOLDEN_METRICS_SHA256):
            raise CheckFailed(f"metrics.csv sha256 {metrics_sha[:16]} != golden {GOLDEN_METRICS_SHA256}")
        if not ckpt_sha.startswith(GOLDEN_CHECKPOINT_SHA256):
            raise CheckFailed(f"checkpoint.ckpt sha256 {ckpt_sha[:16]} != golden {GOLDEN_CHECKPOINT_SHA256}")
        if run.report.map_full != GOLDEN_MAP_FULL:
            raise CheckFailed(f"map_full {run.report.map_full!r} != golden {GOLDEN_MAP_FULL!r}")
    return run.report.map_full, [repr(run.report.map_full), metrics_sha, ckpt_sha]


# data_pass: a 10x world, each batch used once, periodic evals on a larger
# test set, as `hoimix train` runs them.

DATA_IMAGES = 2400
DATA_ITERATIONS = 1200  # one pass: 2400 images pair into 1200 batches
DATA_TEST_IMAGES = 240


def _data_config(seed: int) -> ExperimentConfig:
    return _seeded(
        seed,
        world={"n_images": DATA_IMAGES},
        iterations=DATA_ITERATIONS,
        n_test_images=DATA_TEST_IMAGES,
    )


def run_data_pass(seed: int, out_dir: str):
    return experiment.run_experiment(
        _data_config(seed), run_id="data_pass", out_dir=out_dir, periodic_eval=True
    )


def check_data_pass(seed: int, out_dir: str, run) -> tuple[float, Any]:
    cfg = run.config
    if run.log.header["schedule_entries"] != cfg.iterations:
        raise CheckFailed(
            f"schedule has {run.log.header['schedule_entries']} batches, "
            f"not one per iteration ({cfg.iterations})"
        )
    if len(run.log.losses) + run.log.skipped != cfg.iterations:
        raise CheckFailed("training did not account for every iteration")
    evals = [report.map_full for _, report in run.log.evals]
    if len(evals) != cfg.iterations // cfg.resolved_eval_every():
        raise CheckFailed(f"{len(evals)} periodic evals, expected {cfg.iterations // cfg.resolved_eval_every()}")
    for value in evals:
        _check_map(value, "periodic map_full")
    if evals[-1] != run.report.map_full:
        raise CheckFailed("the last periodic eval differs from the final eval of the same model")
    metrics_sha, ckpt_sha = _check_run_outputs(run, out_dir)
    return run.report.map_full, [[repr(v) for v in evals], metrics_sha, ckpt_sha]


# seed_sweep: independent runs, one world regenerated per cell.


def run_seed_sweep(seed: int, out_dir: str):
    base = ExperimentConfig(iterations=SWEEP_ITERATIONS)
    # run_ratio_sweep sets each cell's train_seed to its seed and its
    # world.seed to base.world.seed (0) plus that seed
    return experiment.run_ratio_sweep(base, SWEEP_RATIOS, (seed, seed + 1), out_dir=out_dir)


def check_seed_sweep(seed: int, out_dir: str, result) -> tuple[float, Any]:
    rows, aggregates = result
    if len(rows) != 2 * len(SWEEP_RATIOS) or len(aggregates) != len(SWEEP_RATIOS):
        raise CheckFailed(f"{len(rows)} rows and {len(aggregates)} aggregates for {len(SWEEP_RATIOS)} ratios x 2 seeds")
    cells = list(csv.DictReader([CSV_HEADER] + rows))
    maps = [float(cell["map_full"]) for cell in cells]
    for value in maps:
        _check_map(value, "cell map_full")
    for k, line in enumerate(aggregates):
        mean = float(line.split(",")[2])
        if mean != float(np.nanmean(maps[2 * k : 2 * k + 2])):
            raise CheckFailed(f"aggregate {line.split(',')[0]} mean differs from its cells")
    with open(os.path.join(out_dir, "sweep.csv")) as fh:
        if fh.read().splitlines() != [CSV_HEADER] + rows:
            raise CheckFailed("sweep.csv does not hold the sweep rows")
    return float(np.mean(maps)), rows


# pseudo_cycles: pseudo-labelling of unlabelled images, 4 dependent trainings.


def _pseudo_config(seed: int) -> ExperimentConfig:
    return _seeded(
        seed,
        ws_fraction=0.3,
        fs_fraction=0.4,
        us_fraction=0.3,
        iterations=PSEUDO_ITERATIONS,
        pseudo_cycles=3,
    )


def run_pseudo_cycles(seed: int, out_dir: str):
    cfg = _pseudo_config(seed)
    tagged, test_images, rare_ids = experiment.prepare_world(cfg)
    return pseudo_label.iterate_cycles(
        tagged,
        cfg,
        cfg.pseudo_cycles,
        mode="unlabeled",
        test_images=test_images,
        rare_ids=rare_ids,
        dump_dir=out_dir,
    )


def check_pseudo_cycles(seed: int, out_dir: str, result) -> tuple[float, Any]:
    _, reports, base_report = result
    _check_map(base_report.map_full, "base map_full")
    if not reports or [r.cycle for r in reports] != list(range(1, len(reports) + 1)):
        raise CheckFailed("cycle reports are missing or out of order")
    if len(reports) > 3 or any(r.converged for r in reports[:-1]):
        raise CheckFailed("cycles went on after converging, or past the limit")
    for r in reports:
        _check_map(r.map_full, f"cycle {r.cycle} map_full")
        with open(os.path.join(out_dir, f"pseudo_cycle_{r.cycle}.jsonl")) as fh:
            dumped = sum(len(json.loads(line)["gt_triplets"]) for line in fh)
        if dumped != r.n_pseudo:
            raise CheckFailed(f"cycle {r.cycle} dump holds {dumped} triplets, report says {r.n_pseudo}")
    fingerprint = [repr(base_report.map_full)] + [
        [repr(r.map_full), r.n_pseudo, r.converged] for r in reports
    ]
    return reports[-1].map_full, fingerprint


WORKLOADS = {
    "golden_run": Workload(run_golden, check_golden),
    "data_pass": Workload(run_data_pass, check_data_pass),
    "seed_sweep": Workload(run_seed_sweep, check_seed_sweep),
    "pseudo_cycles": Workload(run_pseudo_cycles, check_pseudo_cycles),
}
