"""Experiment orchestration: full runs, ratio sweeps, and the class-split setting.

A run generates a synthetic world, splits it by supervision, fixes the
two-image batch schedule once, trains with the configured momentum policy,
and evaluates mAP on a held-out set sharing the world's latent structure.
One schedule entry corresponds to one iteration; entries skipped by a
sequence-training filter still consume their iteration. Every experiment
(full runs, sweeps, the class split, pseudo-label cycles) trains and
evaluates through `fit`.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .batching import MiniBatch, Schedule, assemble_minibatch, batch_schedule
from .checkpoint import atomic_open, save_checkpoint
from .evaluation import CSV_HEADER, EvalReport, evaluate, report_csv_row
from .loss import fs_loss, ws_loss
from .model import ModelParams, aggregate_image_level, backward, forward
from .optimizer import MomentumPolicy, MomentumState, OptimizerConfig, schedule_filter, step
from .supervision import SupervisionTag
from .synth_world import (
    GroundTruthTriplet,
    SynthImage,
    WorldConfig,
    generate_eval_images,
    generate_world,
    rare_classes,
    split_supervision,
)


class TrainingDiverged(RuntimeError):
    pass


def _desk_optimizer() -> OptimizerConfig:
    # desk-scale step sizes; the OptimizerConfig defaults keep the
    # reference values meant for full-scale runs
    return OptimizerConfig(alpha_ws=0.012, alpha_fs=0.05, beta=0.9)


@dataclass(frozen=True)
class ExperimentConfig:
    world: WorldConfig = field(default_factory=WorldConfig)
    optimizer: OptimizerConfig = field(default_factory=_desk_optimizer)
    ws_fraction: float = 0.7
    fs_fraction: float = 0.3
    us_fraction: float = 0.0
    element_swap: bool = True
    top_k: int = 30
    iterations: int = 12000
    eval_every: int = 0  # 0 resolves to max(iterations // 10, 200)
    hidden_dim: int = 64
    train_seed: int = 0
    n_test_images: int = 120
    pseudo_threshold: float = 0.5
    pseudo_cycles: int = 3

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

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        d = dict(d)
        world = d.pop("world", {})
        opt = dict(d.pop("optimizer", {}))
        if "policy" in opt:
            opt["policy"] = MomentumPolicy(opt["policy"])
        for key in ("humans_per_image", "objects_per_image"):
            if key in world:
                world[key] = tuple(world[key])
        return cls(world=WorldConfig(**world), optimizer=OptimizerConfig(**opt), **d)


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return ExperimentConfig.from_dict(json.load(fh))


def save_config(cfg: ExperimentConfig, path) -> None:
    with atomic_open(path) as fh:
        json.dump(cfg.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def config_diff(a: ExperimentConfig, b: ExperimentConfig) -> list[str]:
    """Dotted names of every field on which the two configs differ."""

    def flatten(prefix: str, d: dict, out: dict) -> None:
        for key, value in d.items():
            name = f"{prefix}.{key}" if prefix else key
            if isinstance(value, dict):
                flatten(name, value, out)
            else:
                out[name] = value

    fa: dict = {}
    fb: dict = {}
    flatten("", a.to_dict(), fa)
    flatten("", b.to_dict(), fb)
    return sorted(name for name in fa if fa[name] != fb[name])


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

    def lines(self) -> list[str]:
        out = [f"# {json.dumps(self.header, sort_keys=True)}"]
        for iteration, tag, value in self.losses:
            out.append(f"iter={iteration} tag={tag} loss={value!r}")
        for iteration, report in self.evals:
            out.append(
                f"eval iter={iteration} map_full={report.map_full!r} "
                f"map_rare={report.map_rare!r} map_nonrare={report.map_nonrare!r}"
            )
        out.append(f"# skipped_iterations={self.skipped}")
        return out


@dataclass(eq=False)
class TrainResult:
    params: ModelParams
    state: MomentumState
    log: TrainingLog
    schedule: Schedule


def _build_batches(
    images: list[SynthImage],
    schedule: Schedule,
    cfg: ExperimentConfig,
    pseudo_triplets: Optional[dict[int, Sequence[GroundTruthTriplet]]],
) -> list[MiniBatch]:
    by_id = {image.image_id: image for image in images}
    return [
        assemble_minibatch(
            by_id[entry.image_a],
            by_id[entry.image_b],
            n_classes=cfg.world.n_hoi_classes,
            feature_dim=cfg.world.feature_dim,
            top_k=cfg.top_k,
            element_swap_enabled=cfg.element_swap,
            pseudo_triplets=pseudo_triplets,
        )
        for entry in schedule.entries
    ]


def train(
    images: list[SynthImage],
    cfg: ExperimentConfig,
    *,
    test_images: Optional[list[SynthImage]] = None,
    rare_ids: Optional[set[int]] = None,
    pseudo_triplets: Optional[dict[int, Sequence[GroundTruthTriplet]]] = None,
    init_params: Optional[ModelParams] = None,
    init_state: Optional[MomentumState] = None,
    start_iteration: int = 0,
) -> TrainResult:
    """Run the training loop over a fixed schedule of two-image batches.

    Images tagged US are scheduled only when they have pseudo triplets.
    Resuming: pass the checkpointed params/state and the iteration to start
    from; with the same config the remaining trajectory is reproduced
    bit-exactly. Raises ValueError when their dims or the state's buffer
    count contradict the config.
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
    init_seed, schedule_seed, _ = _train_seeds(cfg.train_seed)
    include_us = pseudo_triplets is not None
    schedulable = [
        img
        for img in images
        if img.supervision != SupervisionTag.US
        or (include_us and img.image_id in pseudo_triplets and pseudo_triplets[img.image_id])
    ]
    # a lone pseudo-labeled image cannot form a homogeneous two-image batch;
    # drop it rather than abort the cycle
    us_ids = [i.image_id for i in schedulable if i.supervision == SupervisionTag.US]
    if len(us_ids) == 1:
        schedulable = [i for i in schedulable if i.image_id != us_ids[0]]
        include_us = False
    schedule = batch_schedule(schedulable, schedule_seed, include_us=include_us)
    if not schedule.entries:
        raise ValueError("schedule is empty; no supervision group has two images")
    batches = _build_batches(schedulable, schedule, cfg, pseudo_triplets)

    params = init_params if init_params is not None else ModelParams.init(*dims, init_seed)
    state = init_state if init_state is not None else MomentumState.zeros(
        params, cfg.optimizer.policy
    )
    grads = params.zeros_like()  # backward rewrites it every iteration

    log = TrainingLog(
        header={
            "config": cfg.to_dict(),
            "schedule_entries": len(schedule.entries),
            "schedule_leftovers": [[tag.value, img] for tag, img in schedule.leftovers],
            "iteration_accounting": "one schedule entry per iteration",
        }
    )
    eval_every = cfg.resolved_eval_every()

    for t in range(start_iteration, cfg.iterations):
        entry = schedule.entries[t % len(schedule.entries)]
        tag = entry.supervision
        if not schedule_filter(tag, t, cfg.optimizer):
            log.skipped += 1
            continue
        batch = batches[t % len(batches)]
        scores = forward(params, batch.features)
        try:
            if tag.region_level:
                report, upstream = fs_loss(scores.P, batch.fs_targets)
            else:
                report, upstream = ws_loss(aggregate_image_level(scores.P), batch.ws_targets)
            backward(params, scores, upstream, grads)
        except ValueError as exc:
            raise TrainingDiverged(f"aborted at iteration {t}: {exc}") from exc
        step(params, grads, tag, state, cfg.optimizer)
        log.losses.append((t, tag.value, report.value))
        if test_images is not None and (t + 1) % eval_every == 0:
            evaluation = evaluate(
                params, test_images, rare_ids or set(), feature_dim=cfg.world.feature_dim, top_k=cfg.top_k
            )
            log.evals.append((t + 1, evaluation))
    return TrainResult(params=params, state=state, log=log, schedule=schedule)


@dataclass(eq=False)
class RunResult:
    run_id: str
    config: ExperimentConfig
    params: ModelParams
    state: MomentumState
    log: TrainingLog
    schedule: Schedule
    report: EvalReport
    csv_row: str


def prepare_world(cfg: ExperimentConfig):
    """Generate train/test images, the rare-class split, and the tagging."""
    train_images = generate_world(cfg.world)
    rare_ids = rare_classes(train_images)
    test_images = generate_eval_images(cfg.world, cfg.n_test_images)
    _, _, split_seed = _train_seeds(cfg.train_seed)
    tagged = split_supervision(
        train_images, cfg.ws_fraction, cfg.fs_fraction, cfg.us_fraction, split_seed
    )
    return tagged, test_images, rare_ids


def fit(
    images: list[SynthImage],
    cfg: ExperimentConfig,
    test_images: list[SynthImage],
    rare_ids: set[int],
    *,
    run_id: str = "run",
    periodic_eval: bool = False,
    pseudo_triplets: Optional[dict[int, Sequence[GroundTruthTriplet]]] = None,
) -> RunResult:
    """Train on the given tagged images, then evaluate the final model once."""
    result = train(
        images,
        cfg,
        test_images=test_images if periodic_eval else None,
        rare_ids=rare_ids,
        pseudo_triplets=pseudo_triplets,
    )
    if result.log.evals and result.log.evals[-1][0] == cfg.iterations:
        # the last periodic eval already scored the final model
        report = result.log.evals[-1][1]
    else:
        report = evaluate(
            result.params, test_images, rare_ids, feature_dim=cfg.world.feature_dim, top_k=cfg.top_k
        )
    row = report_csv_row(
        report, run_id, cfg.ratio_string(), cfg.optimizer.policy.value, cfg.element_swap, cfg.train_seed
    )
    return RunResult(
        run_id=run_id,
        config=cfg,
        params=result.params,
        state=result.state,
        log=result.log,
        schedule=result.schedule,
        report=report,
        csv_row=row,
    )


def run_experiment(
    cfg: ExperimentConfig,
    run_id: str = "run",
    out_dir: Optional[str] = None,
    periodic_eval: bool = False,
) -> RunResult:
    """World generation, split, training, final evaluation, optional outputs."""
    tagged, test_images, rare_ids = prepare_world(cfg)
    run = fit(tagged, cfg, test_images, rare_ids, run_id=run_id, periodic_eval=periodic_eval)
    if out_dir is not None:
        write_run_outputs(run, out_dir)
    return run


def write_run_outputs(run: RunResult, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with atomic_open(os.path.join(out_dir, "metrics.csv")) as fh:
        fh.write(CSV_HEADER + "\n" + run.csv_row + "\n")
    with atomic_open(os.path.join(out_dir, "run.log")) as fh:
        fh.write("\n".join(run.log.lines()) + "\n")
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
    save_config(run.config, os.path.join(out_dir, "config.json"))


AGGREGATE_HEADER = (
    "ws_fs_us,n_seeds,map_full_mean,map_full_std,map_rare_mean,map_rare_std,"
    "map_nonrare_mean,map_nonrare_std"
)


def run_ratio_sweep(
    cfg_base: ExperimentConfig,
    ratios: Sequence[tuple[float, float, float]],
    seeds: Sequence[int],
    out_dir: Optional[str] = None,
) -> tuple[list[str], list[str]]:
    """One train+evaluate per (ratio, seed) cell; per-cell rows plus
    mean/stddev aggregate lines."""
    if not seeds:
        raise ValueError("ratio sweep needs at least one seed")
    rows: list[str] = []
    aggregates: list[str] = []
    for ws, fs, us in ratios:
        cell = []
        for seed in seeds:
            cfg = dataclasses.replace(
                cfg_base,
                ws_fraction=ws,
                fs_fraction=fs,
                us_fraction=us,
                train_seed=seed,
                world=dataclasses.replace(cfg_base.world, seed=cfg_base.world.seed + seed),
            )
            run = run_experiment(cfg, run_id=f"sweep-{cfg.ratio_string()}-s{seed}")
            rows.append(run.csv_row)
            cell.append(run.report)
        ratio_str = f"{round(ws * 100)}/{round(fs * 100)}/{round(us * 100)}"
        stats = []
        for metric in ("map_full", "map_rare", "map_nonrare"):
            values = np.array([getattr(r, metric) for r in cell])
            stats.append(repr(float(np.nanmean(values))))
            stats.append(repr(float(np.nanstd(values, ddof=1))) if len(cell) > 1 else "0.0")
        aggregates.append(",".join([ratio_str, str(len(cell))] + stats))
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with atomic_open(os.path.join(out_dir, "sweep.csv")) as fh:
            fh.write(CSV_HEADER + "\n" + "\n".join(rows) + "\n")
        with atomic_open(os.path.join(out_dir, "sweep_aggregate.csv")) as fh:
            fh.write(AGGREGATE_HEADER + "\n" + "\n".join(aggregates) + "\n")
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
    annotations are filtered to that half's classes. Returns subset mAPs for
    the two separate models and the joint model on their own class halves.
    """
    if cfg.world.n_hoi_classes < 2:
        raise ValueError("class split needs at least two interaction classes")
    train_images = generate_world(cfg.world)
    rare_ids = rare_classes(train_images)
    test_images = generate_eval_images(cfg.world, cfg.n_test_images)

    _, _, split_seed = _train_seeds(cfg.train_seed)
    order = np.random.default_rng(split_seed).permutation(cfg.world.n_hoi_classes)
    half = cfg.world.n_hoi_classes // 2
    classes_fs = sorted(int(c) for c in order[:half])
    classes_ws = sorted(int(c) for c in order[half:])
    fs_set, ws_set = set(classes_fs), set(classes_ws)

    def restrict(image: SynthImage, allowed: set[int], tag: SupervisionTag) -> Optional[SynthImage]:
        triplets = tuple(t for t in image.gt_triplets if t.hoi_class in allowed)
        if not triplets:
            return None
        labels = frozenset(t.hoi_class for t in triplets)
        if tag == SupervisionTag.WS:
            return dataclasses.replace(
                image, supervision=tag, gt_triplets=(), image_labels=labels
            )
        return dataclasses.replace(
            image, supervision=tag, gt_triplets=triplets, image_labels=labels
        )

    images_fs, images_ws = [], []
    for image in train_images:
        if not image.gt_triplets:
            continue
        if image.gt_triplets[0].hoi_class in fs_set:
            restricted = restrict(image, fs_set, SupervisionTag.FS)
            if restricted is not None:
                images_fs.append(restricted)
        else:
            restricted = restrict(image, ws_set, SupervisionTag.WS)
            if restricted is not None:
                images_ws.append(restricted)

    report_separate_fs = fit(images_fs, cfg, test_images, rare_ids).report
    report_separate_ws = fit(images_ws, cfg, test_images, rare_ids).report
    report_joint = fit(images_fs + images_ws, cfg, test_images, rare_ids).report

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


def permute_labels(images: list[SynthImage], seed: int) -> list[SynthImage]:
    """Label-permutation control: break the feature-label association but
    keep the label marginals.

    Triplet classes are shuffled across every image that has triplets, and
    the image-level label sets of images without triplets (weakly-labeled
    ones) are shuffled among those images.
    """
    rng = np.random.default_rng(seed)
    labels = [t.hoi_class for image in images for t in image.gt_triplets]
    shuffled = list(rng.permutation(labels)) if labels else []
    weak = [k for k, image in enumerate(images) if not image.gt_triplets and image.image_labels]
    weak_labels = {k: images[weak[j]].image_labels for k, j in zip(weak, rng.permutation(len(weak)))}
    cursor = 0
    out = []
    for k, image in enumerate(images):
        if not image.gt_triplets:
            if k in weak_labels:
                image = dataclasses.replace(image, image_labels=weak_labels[k])
            out.append(image)
            continue
        new_triplets = []
        for t in image.gt_triplets:
            new_triplets.append(dataclasses.replace(t, hoi_class=int(shuffled[cursor])))
            cursor += 1
        out.append(
            dataclasses.replace(
                image,
                gt_triplets=tuple(new_triplets),
                image_labels=frozenset(t.hoi_class for t in new_triplets),
            )
        )
    return out
