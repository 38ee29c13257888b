"""Helpers the experiment tests share: a config diff, a world with its
prepared test set, the FS part of a world, a record of test-set
preparations, the label-permutation control of the learnability criterion,
and a deadline for calls that fork worker processes."""

from __future__ import annotations

import contextlib
import dataclasses
import multiprocessing
import os
import signal

import numpy as np

from hoimix import cli, evaluation, experiment, pseudo_label
from hoimix.evaluation import EvalSet, prepare_eval_set
from hoimix.experiment import ExperimentConfig, prepare_world
from hoimix.supervision import SupervisionTag
from hoimix.synth_world import World, stack_triplets

from image_reference import images_of, world_of


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


def prepared_world(cfg: ExperimentConfig) -> tuple[World, EvalSet]:
    """The tagged train world of prepare_world(cfg) and its test set,
    prepared as run_experiment prepares it."""
    tagged, test_images, rare_ids = prepare_world(cfg)
    return tagged, prepare_eval_set(
        test_images, rare_ids, feature_dim=cfg.world.feature_dim, top_k=cfg.top_k
    )


def fs_part(world: World) -> World:
    """The world with every image but its FS ones untagged: US images
    without pseudo labels, which training does not schedule."""
    fs = SupervisionTag.FS.code
    return world.tagged(np.where(world.supervision == fs, fs, SupervisionTag.US.code))


def record_preparations(monkeypatch, log_path):
    """Make every hoimix module's binding of prepare_eval_set append the id
    of the calling process to log_path, forked workers included; returns a
    function that reads the ids back."""
    real = evaluation.prepare_eval_set

    def recording(*args, **kwargs):
        with open(log_path, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return real(*args, **kwargs)

    for module in (cli, experiment, pseudo_label):
        monkeypatch.setattr(module, "prepare_eval_set", recording, raising=False)
    return lambda: [int(pid) for pid in log_path.read_text().split()] if log_path.exists() else []


def permute_labels(world: World, seed: int) -> World:
    """Label-permutation control: break the feature-label association but
    keep the label marginals.

    Triplet classes are shuffled across every image that has triplets, and
    the image-level label sets of images without triplets (weakly-labeled
    ones) are shuffled among those images.
    """
    rng = np.random.default_rng(seed)
    images = images_of(world)
    labels = stack_triplets([image.gt_triplets for image in images]).hoi_classes
    shuffled = rng.permutation(labels) if len(labels) else labels
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
        classes = shuffled[cursor : cursor + len(image.gt_triplets)]
        cursor += len(classes)
        out.append(
            dataclasses.replace(
                image,
                gt_triplets=dataclasses.replace(image.gt_triplets, hoi_classes=classes),
                image_labels=frozenset(classes.tolist()),
            )
        )
    return world_of(out, world.labels.shape[1])


@contextlib.contextmanager
def returns_within(seconds):
    """Fail a pool that hangs, in place of hanging the suite: kill every
    worker, so that the pool's shutdown does not wait on them, and raise."""

    def hung(signum, frame):
        for child in multiprocessing.active_children():
            child.kill()
        raise TimeoutError(f"run_many did not return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
