"""Experiment orchestration: full runs, ratio sweeps, and the class-split setting.

A run generates a synthetic world, splits it by supervision, fixes the
two-image batch schedule once, trains with the configured momentum policy,
and evaluates mAP on a held-out set sharing the world's latent structure.
One schedule entry corresponds to one iteration; entries skipped by a
sequence-training filter still consume their iteration. Every experiment
(full runs, sweeps, the class split, pseudo-label cycles) trains and
evaluates through `fit`, on a test set prepared once per world. Calls that do
not depend on each other (a sweep's cells, the class split's three fits) run
in forked child processes through `run_many`, which inherit their calls and
send back pickled results; a sweep's cells build their seed's world in the
child that fits them. A training run that uses its schedule once builds its
batch blocks in a forked producer while it trains, when a second CPU is free
(see `train`). Both fork through `_Forked`.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
import signal
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .batching import (
    BLOCK_ENTRIES,
    DEFAULT_TOP_K,
    Batch,
    BatchBlock,
    Schedule,
    assemble_minibatch,
    batch_schedule,
    prepare_block,
)
from .checkpoint import json_text, save_checkpoint, write_outputs
from .config_fields import check_fields, from_json, ranged
from .evaluation import (
    CSV_HEADER,
    EvalReport,
    EvalSet,
    evaluate,
    prepare_eval_set,
    report_csv_row,
)
from .loss import fs_loss, ws_loss
from .model import ModelParams, backward, forward
from .optimizer import MomentumPolicy, MomentumState, OptimizerConfig, schedule_filter, step
from .supervision import TAGS, SupervisionTag
from .synth_world import (
    World,
    WorldConfig,
    generate_eval_images,
    generate_world,
    rare_classes,
    split_supervision,
)


class TrainingDiverged(RuntimeError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    world: WorldConfig = field(default_factory=WorldConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    ws_fraction: float = ranged(0.7, lambda x: 0.0 <= x <= 1.0, "in [0, 1]")
    fs_fraction: float = ranged(0.3, lambda x: 0.0 <= x <= 1.0, "in [0, 1]")
    us_fraction: float = ranged(0.0, lambda x: 0.0 <= x <= 1.0, "in [0, 1]")
    element_swap: bool = True
    top_k: int = ranged(DEFAULT_TOP_K, lambda x: x >= 1, ">= 1")
    iterations: int = ranged(12000, lambda x: x >= 1, ">= 1")
    # 0 resolves to max(iterations // 10, 200)
    eval_every: int = ranged(0, lambda x: x >= 0, ">= 0")
    hidden_dim: int = ranged(64, lambda x: x >= 1, ">= 1")
    train_seed: int = ranged(0, lambda x: x >= 0, ">= 0")
    n_test_images: int = ranged(120, lambda x: x >= 1, ">= 1")
    pseudo_threshold: float = ranged(0.5, lambda x: 0.0 < x < 1.0, "in (0, 1)")
    pseudo_cycles: int = ranged(3, lambda x: x >= 1, ">= 1")

    def __post_init__(self) -> None:
        # split_supervision checks that the fractions sum to 1
        check_fields(self)

    def resolved_eval_every(self) -> int:
        return self.eval_every if self.eval_every > 0 else max(self.iterations // 10, 200)

    def ratio_string(self) -> str:
        return (
            f"{round(self.ws_fraction * 100)}/{round(self.fs_fraction * 100)}"
            f"/{round(self.us_fraction * 100)}"
        )

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["optimizer"]["policy"] = self.optimizer.policy.value
        return d


def load_config(path) -> ExperimentConfig:
    """The config of a JSON file; raises ValueError naming the file when it
    holds no valid config."""
    with open(path) as fh:
        try:
            return from_json(ExperimentConfig, json.load(fh))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc


def _train_seeds(train_seed: int) -> tuple[int, int, int]:
    init_seed, schedule_seed, split_seed = (
        int(x) for x in np.random.SeedSequence(train_seed).generate_state(3)
    )
    return init_seed, schedule_seed, split_seed


@dataclass(eq=False)
class TrainingLog:
    header: dict
    losses: list[tuple[int, str, float]] = field(default_factory=list)
    evals: list[tuple[int, EvalReport]] = field(default_factory=list)
    skipped: int = 0

    def lines(self) -> Iterator[str]:
        """Yield the lines of run.log, each ending in a newline."""
        yield f"# {json.dumps(self.header, sort_keys=True)}\n"
        for iteration, tag, value in self.losses:
            yield f"iter={iteration} tag={tag} loss={value!r}\n"
        for iteration, report in self.evals:
            yield (
                f"eval iter={iteration} map_full={report.map_full!r} "
                f"map_rare={report.map_rare!r} map_nonrare={report.map_nonrare!r}\n"
            )
        yield f"# skipped_iterations={self.skipped}\n"


@dataclass(eq=False)
class TrainResult:
    params: ModelParams
    state: MomentumState
    log: TrainingLog
    schedule: Schedule


def _blocks(world: World, firsts: Sequence[int], schedule: Schedule, cfg: ExperimentConfig):
    """The block of schedule entries first:first + BLOCK_ENTRIES of each
    first, in order, each built when it is asked for."""
    for first in firsts:
        yield prepare_block(
            world,
            schedule.images[first : first + BLOCK_ENTRIES],
            n_classes=cfg.world.n_hoi_classes,
            feature_dim=cfg.world.feature_dim,
            top_k=cfg.top_k,
            element_swap_enabled=cfg.element_swap,
        )


def _batches(block: BatchBlock) -> list[Batch]:
    """Every batch of the block: read-only views of it, which keep it alive."""
    # a block from a forked producer was unpickled: whatever the protocol
    # keeps of the flags, a batch is read-only
    for array in (block.features, block.fs_targets, block.ws_targets):
        array.flags.writeable = False
    return [assemble_minibatch(block, entry) for entry in range(len(block.tags))]


_forked_child = False  # set in every process that _Forked forks


class _Forked:
    """The items, made by a child process forked now (POSIX only) that
    writes each one pickled to a pipe, which keeps it at most one item ahead
    of the caller. An item's exception is raised by next() as the child
    raised it. close() kills and reaps the child; call it on every way out.
    Forking is safe: hoimix starts no thread, and OpenBLAS (a pthreads build)
    stops its thread pool at fork and restarts it on the next product."""

    def __init__(self, items: Iterator):
        read_end, write_end = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:  # the child: no code of the caller's may run after its last item
            try:
                global _forked_child
                _forked_child = True
                os.close(read_end)
                with os.fdopen(write_end, "wb") as sink:
                    try:
                        for item in items:
                            pickle.dump(item, sink, pickle.HIGHEST_PROTOCOL)
                            sink.flush()  # now: a pickle's short tail would wait in the buffer
                            del item  # not held while the next one is made
                    except Exception as exc:
                        pickle.dump(exc, sink, pickle.HIGHEST_PROTOCOL)
            finally:
                os._exit(0)
        os.close(write_end)
        self.source = os.fdopen(read_end, "rb")

    def __next__(self):
        try:
            item = pickle.load(self.source)
        except (EOFError, pickle.UnpicklingError):
            raise RuntimeError("a forked child ended without its next item") from None
        if isinstance(item, BaseException):
            raise item
        return item

    def close(self) -> None:
        self.source.close()
        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)


def train(
    world: World,
    cfg: ExperimentConfig,
    *,
    test_set: Optional[EvalSet] = None,
    init_params: Optional[ModelParams] = None,
    init_state: Optional[MomentumState] = None,
    start_iteration: int = 0,
) -> TrainResult:
    """Run the training loop over a fixed schedule of two-image batches.

    Each image trains with the supervision it carries; batch_schedule
    decides which images are scheduled. Given a prepared test_set (rare
    classes included), the model is evaluated on it every eval_every
    iterations. Resuming: pass the checkpointed params/state and the
    iteration to start from, in [0, iterations]; with the same config the
    remaining trajectory is reproduced bit-exactly. Raises ValueError when
    their dims or the state's buffer count contradict the config, or when
    start_iteration is out of range. Each iteration trains with the tag of
    its batch, that of the entry's images in the world.

    Batches are built a block at a time, when an iteration first needs an
    entry of the block, as views of the block, and dropped after their last
    use; a block lives while one of its batches does. One lap of the
    schedule holds one block at a time, a run that wraps keeps every block
    until its last use, and a resumed run builds only the blocks it trains
    on. A ValueError from building or checking a block reaches the caller
    as it is.

    A run that uses each remaining entry at most once, needs more than one
    block and has a free CPU (more than one in its affinity mask, outside a
    forked child such as run_many's) builds its blocks in a forked
    producer, one block ahead of the training (see _Forked); block building
    does not depend on the model, so both ways give the same bytes. The
    producer is killed and reaped before this returns or raises.
    """
    dims = (cfg.world.feature_dim, cfg.hidden_dim, cfg.world.n_hoi_classes)
    if init_params is not None and init_params.dims != dims:
        raise ValueError(f"init_params dims {init_params.dims} differ from the config's {dims}")
    if init_state is not None:
        if init_state.z_ws.dims != dims:
            raise ValueError(f"init_state dims {init_state.z_ws.dims} differ from the config's {dims}")
        if init_state.shared_buffer == (cfg.optimizer.policy == MomentumPolicy.INDEPENDENT):
            raise ValueError(
                f"init_state has {len(init_state.buffers)} momentum buffer(s), "
                f"which policy {cfg.optimizer.policy} does not use"
            )
    if not 0 <= start_iteration <= cfg.iterations:
        raise ValueError(f"start_iteration {start_iteration} is outside [0, {cfg.iterations}]")
    init_seed, schedule_seed, _ = _train_seeds(cfg.train_seed)
    schedule = batch_schedule(world, schedule_seed)
    n_entries = len(schedule.images)
    batches: list[Optional[Batch]] = [None] * n_entries  # entry k's, while an iteration uses it

    params = init_params if init_params is not None else ModelParams.init(*dims, init_seed)
    state = init_state if init_state is not None else MomentumState.zeros(
        params, cfg.optimizer.policy
    )
    grads = params.zeros_like()  # backward rewrites it every iteration

    log = TrainingLog(
        header={
            "config": cfg.to_dict(),
            "schedule_entries": n_entries,
            "schedule_leftovers": [
                [TAGS[world.supervision[i]].value, int(world.image_ids[i])] for i in schedule.leftovers
            ],
            "iteration_accounting": "one schedule entry per iteration",
        }
    )
    eval_every = cfg.resolved_eval_every()

    # the blocks the iterations use, in the order they first need them
    uses = range(start_iteration, min(cfg.iterations, start_iteration + n_entries))
    firsts = [b * BLOCK_ENTRIES for b in dict.fromkeys(t % n_entries // BLOCK_ENTRIES for t in uses)]
    blocks = _blocks(world, firsts, schedule, cfg)
    # a forked child, such as a run_many one, leaves the other CPUs to its siblings
    one_pass = cfg.iterations - start_iteration <= n_entries
    if one_pass and len(firsts) > 1 and len(os.sched_getaffinity(0)) > 1 and not _forked_child:
        blocks = _Forked(blocks)
    try:
        for t in range(start_iteration, cfg.iterations):
            k = t % n_entries
            if batches[k] is None:  # the first iteration to need its block
                # the last iteration's batch and scores view the last block: a
                # one-pass run must drop it before it builds this one
                batch = scores = None
                first = k - k % BLOCK_ENTRIES
                # keep only the batches that this or a later iteration uses
                batches[first : first + BLOCK_ENTRIES] = [
                    built if t + (j - k) % n_entries < cfg.iterations else None
                    for j, built in enumerate(_batches(next(blocks)), first)
                ]
            batch = batches[k]
            if t + n_entries >= cfg.iterations:
                batches[k] = None  # no later iteration uses it
            tag = batch.supervision
            if not schedule_filter(tag, t, cfg.optimizer):
                log.skipped += 1
                continue
            try:
                scores = forward(params, batch.features)
                # the batch's block was checked when it was built; forward
                # checked that P is finite, so ws_loss's clamp is the only clip
                # the image-level sum needs
                if tag.region_level:
                    report, upstream = fs_loss(scores.P, batch.targets)
                else:
                    report, upstream = ws_loss(np.add.reduce(scores.P), batch.targets)
                backward(params, scores, upstream, grads)
            except ValueError as exc:
                raise TrainingDiverged(f"aborted at iteration {t}: {exc}") from exc
            step(params, grads, tag, state, cfg.optimizer)
            log.losses.append((t, tag.value, report.value))
            if test_set is not None and (t + 1) % eval_every == 0:
                log.evals.append((t + 1, evaluate(params, test_set)))
    finally:
        blocks.close()
    return TrainResult(params=params, state=state, log=log, schedule=schedule)


@dataclass(eq=False)
class RunResult(TrainResult):
    run_id: str
    config: ExperimentConfig
    report: EvalReport
    csv_row: str


def _build_world(cfg: ExperimentConfig) -> tuple[World, EvalSet]:
    """The untagged train world and its prepared test set."""
    train_world = generate_world(cfg.world)
    test_world = generate_eval_images(cfg.world, cfg.n_test_images)
    rare_ids = rare_classes(train_world)
    test_set = prepare_eval_set(test_world, rare_ids, feature_dim=cfg.world.feature_dim, top_k=cfg.top_k)
    return train_world, test_set


def _tag(train_world: World, cfg: ExperimentConfig) -> World:
    _, _, split_seed = _train_seeds(cfg.train_seed)
    return split_supervision(
        train_world, cfg.ws_fraction, cfg.fs_fraction, cfg.us_fraction, split_seed
    )


def prepare_world(cfg: ExperimentConfig):
    """Generate the train and test worlds and the rare classes; tag the first."""
    train_world = generate_world(cfg.world)
    test_world = generate_eval_images(cfg.world, cfg.n_test_images)
    return _tag(train_world, cfg), test_world, rare_classes(train_world)


def fit(
    world: World,
    cfg: ExperimentConfig,
    test_set: EvalSet,
    *,
    run_id: str = "run",
    periodic_eval: bool = False,
) -> RunResult:
    """Train on the given tagged world, each image with the supervision it
    carries (see train), then evaluate the final model once.

    test_set is the prepared test set of the world (see
    prepare_eval_set); it is only read, so fits on one world share one, and
    every periodic eval and the final one use it.
    """
    result = train(world, cfg, test_set=test_set if periodic_eval else None)
    if result.log.evals and result.log.evals[-1][0] == cfg.iterations:
        # the last periodic eval already scored the final model
        report = result.log.evals[-1][1]
    else:
        report = evaluate(result.params, test_set)
    row = report_csv_row(
        report, run_id, cfg.ratio_string(), cfg.optimizer.policy.value, cfg.element_swap, cfg.train_seed
    )
    return RunResult(**vars(result), run_id=run_id, config=cfg, report=report, csv_row=row)


def run_many(calls: Sequence[Callable[[], object]]) -> list:
    """Run independent zero-argument calls in forked child processes (see
    _Forked), one per usable CPU and at most one per call; return their
    results in call order.

    Of n children, child k runs calls k, k + n, ... in turn. The children
    inherit the calls, so only results are pickled, and each result equals
    that of a serial call. A failing call (`TrainingDiverged` included)
    raises here with the child's message as soon as its result is read, in
    call order. Every child is killed and reaped before this returns or
    raises.
    """
    n = min(len(calls), len(os.sched_getaffinity(0)))
    children: list[_Forked] = []
    try:
        for k in range(n):
            children.append(_Forked(call() for call in calls[k::n]))
        return [next(children[j % n]) for j in range(len(calls))]
    finally:
        for child in children:
            child.close()


def run_experiment(
    cfg: ExperimentConfig,
    run_id: str = "run",
    out_dir: Optional[str] = None,
    periodic_eval: bool = False,
) -> RunResult:
    """World generation, split, training, final evaluation, optional outputs.
    A missing out_dir is made first, so one that cannot be made fails
    before the world is built."""
    if out_dir is not None:
        write_outputs(out_dir, {})
    train_world, test_set = _build_world(cfg)
    run = fit(_tag(train_world, cfg), cfg, test_set, run_id=run_id, periodic_eval=periodic_eval)
    if out_dir is not None:
        write_run_outputs(run, out_dir)
    return run


def write_run_outputs(run: RunResult, out_dir: str) -> None:
    write_outputs(
        out_dir,
        {
            "metrics.csv": [CSV_HEADER + "\n" + run.csv_row + "\n"],
            "run.log": run.log.lines(),
            "config.json": [json_text(run.config.to_dict())],
        },
    )
    save_checkpoint(
        os.path.join(out_dir, "checkpoint.ckpt"),
        run.params,
        run.state,
        meta={
            "config": run.config.to_dict(),
            "run_id": run.run_id,
            "policy": run.config.optimizer.policy.value,
        },
    )


AGGREGATE_HEADER = (
    "ws_fs_us,n_seeds,map_full_mean,map_full_std,map_rare_mean,map_rare_std,"
    "map_nonrare_mean,map_nonrare_std"
)


def _fit_cell(cfg: ExperimentConfig, built: dict) -> RunResult:
    """Fit one sweep cell on its seed's world and test set, built into
    built (train_seed to both) if they are not there yet."""
    if cfg.train_seed not in built:
        built[cfg.train_seed] = _build_world(cfg)
    train_world, test_set = built[cfg.train_seed]
    run_id = f"sweep-{cfg.ratio_string()}-s{cfg.train_seed}"
    return fit(_tag(train_world, cfg), cfg, test_set, run_id=run_id)


def run_ratio_sweep(
    cfg_base: ExperimentConfig,
    ratios: Sequence[tuple[float, float, float]],
    seeds: Sequence[int],
    out_dir: Optional[str] = None,
) -> tuple[list[str], list[str]]:
    """One train+evaluate per (ratio, seed) cell; per-cell rows plus
    mean/stddev aggregate lines.

    A cell at seed s trains with train_seed s on the world of seed
    cfg_base.world.seed + s. Every cell's config is made first, so an
    out-of-range fraction raises before any world is built, and a missing
    out_dir is made next. The cells run ratio-major in `run_many`, and the
    parent builds no world: a child builds a seed's world and test set for
    its first cell of that seed and splits the world per ratio. When the
    seed count is not a multiple of the child count, a seed's world can be
    built in more than one child (3 seeds on 2 CPUs: each builds all 3).
    """
    if not ratios:
        raise ValueError("ratio sweep needs at least one ratio")
    if not seeds:
        raise ValueError("ratio sweep needs at least one seed")
    cells = [
        dataclasses.replace(
            cfg_base, ws_fraction=ws, fs_fraction=fs, us_fraction=us, train_seed=seed,
            world=dataclasses.replace(cfg_base.world, seed=cfg_base.world.seed + seed),
        )
        for ws, fs, us in ratios
        for seed in seeds
    ]
    if out_dir is not None:
        write_outputs(out_dir, {})
    built: dict = {}  # each child fills its own copy
    runs = run_many([partial(_fit_cell, cfg, built) for cfg in cells])
    rows = [run.csv_row for run in runs]
    aggregates: list[str] = []
    for start in range(0, len(runs), len(seeds)):
        cell = runs[start : start + len(seeds)]
        stats = []
        for metric in ("map_full", "map_rare", "map_nonrare"):
            values = np.array([getattr(run.report, metric) for run in cell])
            stats.append(repr(float(np.nanmean(values))))
            stats.append(repr(float(np.nanstd(values, ddof=1))) if len(cell) > 1 else "0.0")
        aggregates.append(",".join([cell[0].config.ratio_string(), str(len(cell))] + stats))
    if out_dir is not None:
        write_outputs(
            out_dir,
            {
                "sweep.csv": [CSV_HEADER + "\n" + "\n".join(rows) + "\n"],
                "sweep_aggregate.csv": [AGGREGATE_HEADER + "\n" + "\n".join(aggregates) + "\n"],
            },
        )
    return rows, aggregates


def subset_map(report: EvalReport, class_ids: Sequence[int]) -> float:
    """Mean AP over the given classes, skipping undefined entries."""
    values = [
        report.ap_per_class[c]
        for c in class_ids
        if not np.isnan(report.ap_per_class[c])
    ]
    return float(np.mean(values)) if values else float("nan")


def run_class_split(cfg: ExperimentConfig) -> dict:
    """Split interaction classes 50/50; train the first half fully
    supervised and the second weakly, separately and jointly.

    Images are assigned to a half by their first triplet's class, and their
    annotations are filtered to that half's classes; each separate model
    trains on its half's images alone. Returns subset mAPs for
    the two separate models and the joint model on their own class halves.
    """
    if cfg.world.n_hoi_classes < 2:
        raise ValueError("class split needs at least two interaction classes")
    world, test_set = _build_world(cfg)

    _, _, split_seed = _train_seeds(cfg.train_seed)
    order = np.random.default_rng(split_seed).permutation(cfg.world.n_hoi_classes)
    half = cfg.world.n_hoi_classes // 2
    classes_fs = sorted(int(c) for c in order[:half])
    classes_ws = sorted(int(c) for c in order[half:])

    # an image belongs to the half of its first triplet's class (every
    # generated image has one) and keeps that half's triplets and labels
    classes, owner = world.triplets.hoi_classes, world.triplet_owner()
    in_fs = np.isin(classes, classes_fs)
    image_fs = in_fs[world.triplet_rows[:-1]]
    keep = in_fs == image_fs[owner]
    labels = np.zeros_like(world.labels)
    labels[owner[keep], classes[keep]] = True
    restricted = world.annotated(world.supervision, world.triplets.take(keep), owner[keep], labels)
    fs, ws, us = (tag.code for tag in (SupervisionTag.FS, SupervisionTag.WS, SupervisionTag.US))

    report_separate_fs, report_separate_ws, report_joint = (
        run.report
        for run in run_many(
            [
                # the other half's images, untagged US, are not scheduled
                partial(fit, restricted.tagged(np.where(image_fs, fs, us)), cfg, test_set),
                partial(fit, restricted.tagged(np.where(image_fs, us, ws)), cfg, test_set),
                partial(fit, restricted.tagged(np.where(image_fs, fs, ws)), cfg, test_set),
            ]
        )
    )

    return {
        "classes_fs": classes_fs,
        "classes_ws": classes_ws,
        "separate": {
            "fs_half": subset_map(report_separate_fs, classes_fs),
            "ws_half": subset_map(report_separate_ws, classes_ws),
        },
        "joint": {
            "fs_half": subset_map(report_joint, classes_fs),
            "ws_half": subset_map(report_joint, classes_ws),
        },
    }

