import dataclasses
import json
import os
import pickle
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
import weakref
from functools import partial

import numpy as np
import pytest

import hoimix.cli
import hoimix.experiment
from hoimix.batching import BLOCK_ENTRIES
from hoimix.checkpoint import json_text, load_checkpoint, save_checkpoint, write_outputs
from hoimix.config_fields import from_json
from hoimix.model import ModelParams
from hoimix.evaluation import evaluate, prepare_eval_set
from hoimix.experiment import (
    ExperimentConfig,
    TrainingDiverged,
    fit,
    load_config,
    prepare_world,
    run_class_split,
    run_experiment,
    run_many,
    run_ratio_sweep,
    train,
    write_run_outputs,
)
from hoimix.optimizer import MomentumPolicy, OptimizerConfig
from hoimix.supervision import SupervisionTag
from hoimix.synth_world import World, WorldConfig, generate_world, split_supervision
from box_reference import triplet_objects
from experiment_helpers import (
    assert_no_child_left,
    config_diff,
    fs_part,
    permute_labels,
    prepared_world,
    record_preparations,
    record_world_builds,
    returns_within,
)
from image_reference import images_of, with_appearance, world_of
from step_reference import reference_train

TINY_WORLD = WorldConfig(
    n_object_classes=3, n_verb_classes=2, n_hoi_classes=6, n_images=60, seed=31
)


def tiny_cfg(**overrides):
    base = dict(
        world=TINY_WORLD,
        ws_fraction=0.5,
        fs_fraction=0.5,
        us_fraction=0.0,
        iterations=400,
        n_test_images=16,
        hidden_dim=24,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_roundtrip(tmp_path):
    cfg = tiny_cfg(
        optimizer=OptimizerConfig(alpha_ws=0.02, alpha_fs=0.01, beta=0.8,
                                  policy=MomentumPolicy.SEQUENCE_FS_FIRST,
                                  sequence_switch_iteration=200),
        element_swap=False,
    )
    write_outputs(tmp_path, {"config.json": [json_text(cfg.to_dict())]})
    loaded = load_config(tmp_path / "config.json")
    assert loaded == cfg
    assert loaded.optimizer.policy == MomentumPolicy.SEQUENCE_FS_FIRST
    assert loaded.world.humans_per_image == (1, 2)


def test_an_empty_config_dict_is_the_default_config(tmp_path):
    assert from_json(ExperimentConfig, {}) == ExperimentConfig()
    path = tmp_path / "empty.json"
    path.write_text("{}")
    assert load_config(path) == ExperimentConfig()


def test_a_config_file_without_step_sizes_keeps_the_default_ones(tmp_path):
    path = tmp_path / "policy_only.json"
    path.write_text('{"optimizer": {"policy": "Shared"}}')
    optimizer = load_config(path).optimizer
    assert (optimizer.alpha_ws, optimizer.alpha_fs, optimizer.beta) == (0.012, 0.05, 0.9)
    assert optimizer.policy == MomentumPolicy.SHARED


def test_config_diff_reports_dotted_fields():
    a = tiny_cfg()
    b = dataclasses.replace(a, optimizer=dataclasses.replace(a.optimizer, policy=MomentumPolicy.SHARED))
    assert config_diff(a, b) == ["optimizer.policy"]
    c = dataclasses.replace(a, ws_fraction=0.7, fs_fraction=0.3)
    assert config_diff(a, c) == ["fs_fraction", "ws_fraction"]
    assert config_diff(a, a) == []


def test_train_logs_losses_and_periodic_eval():
    cfg = tiny_cfg(eval_every=100)
    tagged, test_set = prepared_world(cfg)
    result = train(tagged, cfg, test_set=test_set)
    assert len(result.log.losses) == cfg.iterations
    assert [it for it, _ in result.log.evals] == [100, 200, 300, 400]
    assert result.log.header["iteration_accounting"] == "one schedule entry per iteration"
    tags = {tag for _, tag, _ in result.log.losses}
    assert tags == {"WS", "FS"}
    assert result.state.t == cfg.iterations


def test_periodic_run_does_not_evaluate_the_final_model_twice(monkeypatch):
    import hoimix.experiment as experiment

    calls = []
    real_evaluate = experiment.evaluate

    def counting_evaluate(*args, **kwargs):
        calls.append(1)
        return real_evaluate(*args, **kwargs)

    monkeypatch.setattr(experiment, "evaluate", counting_evaluate)
    run = run_experiment(tiny_cfg(eval_every=100), periodic_eval=True)
    assert [it for it, _ in run.log.evals] == [100, 200, 300, 400]
    assert len(calls) == 4
    assert run.report is run.log.evals[-1][1]
    # the last periodic eval is not at the final iteration: one more eval
    calls.clear()
    run = run_experiment(tiny_cfg(eval_every=150), periodic_eval=True)
    assert [it for it, _ in run.log.evals] == [150, 300] and len(calls) == 3


def test_fit_builds_the_test_pairs_once_for_every_eval(monkeypatch):
    import hoimix.evaluation as evaluation

    built = []
    real_pair_grids = evaluation.pair_grids

    def counting_pair_grids(world, images, *args, **kwargs):
        built.append(world.image_ids[images].tolist())
        return real_pair_grids(world, images, *args, **kwargs)

    monkeypatch.setattr(evaluation, "pair_grids", counting_pair_grids)
    cfg = tiny_cfg(iterations=450, eval_every=100)
    tagged, test_images, rare_ids = prepare_world(cfg)
    test_set = prepare_eval_set(test_images, rare_ids, feature_dim=cfg.world.feature_dim, top_k=cfg.top_k)
    run = fit(tagged, cfg, test_set, periodic_eval=True)
    # 4 periodic evals and a final one at iteration 450
    assert [it for it, _ in run.log.evals] == [100, 200, 300, 400]
    assert run.report is not run.log.evals[-1][1]
    # one set-level pass over the test images, in order, by the caller, for every eval
    assert built == [test_images.image_ids.tolist()]
    test_set = prepare_eval_set(test_images, rare_ids, feature_dim=cfg.world.feature_dim, top_k=cfg.top_k)
    fresh = evaluate(run.params, test_set)
    assert run.report.ap_per_class.tobytes() == fresh.ap_per_class.tobytes()


def test_fits_on_one_test_set_leave_it_unchanged_and_report_alike():
    cfg = tiny_cfg(iterations=200, eval_every=100)
    tagged, test_set = prepared_world(cfg)

    def contents():
        truth = test_set.truth
        arrays = [a for stack in test_set.stacks for a in stack]
        arrays += [test_set.pairs.image_ids, test_set.pairs.human_boxes, test_set.pairs.object_boxes]
        arrays += [a for c in sorted(truth.classes) for a in truth.classes[c][:3]]
        counts = [(c, truth.classes[c][3]) for c in sorted(truth.classes)]
        return [a.tobytes() for a in arrays], truth.n_pairs, counts, test_set.rare_class_ids

    before = contents()
    first = fit(tagged, cfg, test_set, periodic_eval=True)
    second = fit(tagged, cfg, test_set)
    assert contents() == before
    assert first.report.ap_per_class.tobytes() == second.report.ap_per_class.tobytes()
    assert first.csv_row == second.csv_row


def test_a_ratio_sweep_builds_each_seeds_world_and_test_set_once_in_a_child(monkeypatch, tmp_path):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    preparations = record_preparations(monkeypatch, tmp_path / "preparations")
    builds = record_world_builds(monkeypatch, tmp_path / "builds")
    with returns_within(60.0):
        run_ratio_sweep(tiny_cfg(iterations=60), [(0.5, 0.5, 0.0), (0.0, 1.0, 0.0)], seeds=[0, 1])
    assert_no_child_left()
    # ratio-major cells on two children: each child fits one seed's cells
    # and builds that seed's world and test set, the caller none
    assert len(preparations()) == 2
    assert sorted(seed for _, seed in builds()) == [TINY_WORLD.seed, TINY_WORLD.seed + 1]
    pids = {pid for pid, _ in builds()}
    assert len(pids) == 2 and os.getpid() not in pids
    assert set(preparations()) == pids


def test_a_ratio_sweep_child_builds_a_seeds_world_at_most_once(monkeypatch, tmp_path):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    preparations = record_preparations(monkeypatch, tmp_path / "preparations")
    builds = record_world_builds(monkeypatch, tmp_path / "builds")
    cfg = tiny_cfg(iterations=60, n_test_images=8)
    ratios = [(1.0, 0.0, 0.0), (0.3, 0.7, 0.0)]
    with returns_within(60.0):
        rows, _ = run_ratio_sweep(cfg, ratios, seeds=[0, 1, 2])
    assert_no_child_left()
    # 6 cells on two children: each child fits cells of all 3 seeds
    assert os.getpid() not in {pid for pid, _ in builds()}
    assert len(builds()) == len(set(builds())) == len(preparations()) == 6
    expected = []
    for ws, fs, us in ratios:
        for seed in (0, 1, 2):
            world = dataclasses.replace(cfg.world, seed=cfg.world.seed + seed)
            cell = dataclasses.replace(
                cfg, ws_fraction=ws, fs_fraction=fs, us_fraction=us, train_seed=seed, world=world
            )
            expected.append(run_experiment(cell, run_id=f"sweep-{cell.ratio_string()}-s{seed}").csv_row)
    assert rows == expected


def test_a_ratio_sweep_rejects_a_bad_ratio_before_any_world_is_built(monkeypatch, tmp_path):
    def unbuildable(cfg):
        raise AssertionError("a world was built")

    monkeypatch.setattr(hoimix.experiment, "generate_world", unbuildable)
    monkeypatch.setattr(hoimix.experiment, "_Forked", unbuildable)
    with pytest.raises(ValueError, match="ws_fraction"):
        run_ratio_sweep(tiny_cfg(), [(0.5, 0.5, 0.0), (1.5, -0.5, 0.0)], [0, 1], out_dir=str(tmp_path / "out"))
    assert not (tmp_path / "out").exists()


def test_a_ratio_sweep_raises_a_cells_fraction_sum_from_its_child():
    cfg = tiny_cfg(iterations=60)
    with pytest.raises(ValueError) as serial:
        run_experiment(dataclasses.replace(cfg, ws_fraction=0.5, fs_fraction=0.6))
    with pytest.raises(ValueError) as swept, returns_within(60.0):
        run_ratio_sweep(cfg, [(0.5, 0.5, 0.0), (0.5, 0.6, 0.0)], seeds=[0])
    assert str(swept.value) == str(serial.value)
    assert str(swept.value).startswith("fractions must sum to 1")
    assert_no_child_left()


def test_a_class_split_prepares_one_test_set_for_its_three_fits(monkeypatch, tmp_path):
    preparations = record_preparations(monkeypatch, tmp_path / "preparations")
    with returns_within(60.0):
        run_class_split(tiny_cfg(iterations=60))
    assert preparations() == [os.getpid()]


def test_run_experiment_is_fit_on_the_prepared_world():
    cfg = tiny_cfg()
    tagged, test_set = prepared_world(cfg)
    run = fit(tagged, cfg, test_set)
    assert run.csv_row == run_experiment(cfg).csv_row
    # the run keeps its schedule, drawn from the images it was given
    assert len(run.schedule.images) == run.log.header["schedule_entries"]
    assert set(run.schedule.images.ravel().tolist()) <= set(range(len(tagged)))
    fs_world = fs_part(tagged)
    fs_run = fit(fs_world, cfg, test_set, run_id="fs")
    assert set(fs_world.supervision[fs_run.schedule.images].ravel().tolist()) == {SupervisionTag.FS.code}
    assert fs_run.csv_row.startswith("fs,")


def test_training_losses_decrease():
    cfg = tiny_cfg(ws_fraction=0.0, fs_fraction=1.0, iterations=800)
    tagged, _, _ = prepare_world(cfg)
    result = train(tagged, cfg)
    values = [v for _, _, v in result.log.losses]
    assert np.mean(values[-100:]) < 0.7 * np.mean(values[:100])


def test_sequence_policy_skips_consume_iterations():
    cfg = tiny_cfg(
        optimizer=OptimizerConfig(
            alpha_ws=0.012, alpha_fs=0.05,
            policy=MomentumPolicy.SEQUENCE_FS_FIRST, sequence_switch_iteration=200,
        ),
        iterations=400,
    )
    tagged, _, _ = prepare_world(cfg)
    result = train(tagged, cfg)
    assert result.log.skipped > 0
    assert len(result.log.losses) + result.log.skipped == cfg.iterations
    before_switch = [tag for it, tag, _ in result.log.losses if it < 200]
    assert set(before_switch) == {"FS"}
    after_switch = {tag for it, tag, _ in result.log.losses if it >= 200}
    assert after_switch == {"WS", "FS"}


def test_run_determinism_bitwise(tmp_path):
    cfg = tiny_cfg()
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_experiment(cfg, run_id="det", out_dir=str(out_a))
    run_experiment(cfg, run_id="det", out_dir=str(out_b))
    for name in ("metrics.csv", "checkpoint.ckpt", "run.log", "config.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_checkpoint_contains_params_state_and_config(tmp_path):
    cfg = tiny_cfg()
    run = run_experiment(cfg, run_id="ck", out_dir=str(tmp_path))
    params, state, meta = load_checkpoint(tmp_path / "checkpoint.ckpt")
    assert meta["run_id"] == "ck"
    assert meta["config"]["iterations"] == cfg.iterations
    assert state.t == run.state.t
    for name, arr in run.params.items():
        np.testing.assert_array_equal(arr, getattr(params, name))


def test_resume_matches_uninterrupted_run():
    cfg = tiny_cfg(iterations=300)
    tagged, _, _ = prepare_world(cfg)
    full = train(tagged, cfg)

    half_cfg = dataclasses.replace(cfg, iterations=150)
    half = train(tagged, half_cfg)
    resumed = train(
        tagged,
        cfg,
        init_params=half.params,
        init_state=half.state,
        start_iteration=150,
    )
    for name, arr in full.params.items():
        np.testing.assert_array_equal(arr, getattr(resumed.params, name))


def test_a_resume_mid_block_in_the_last_lap_matches_the_uninterrupted_run():
    cfg = tiny_cfg(world=dataclasses.replace(TINY_WORLD, n_images=200), iterations=1)
    tagged, _, _ = prepare_world(cfg)
    n = len(train(tagged, cfg).schedule.images)
    assert n > BLOCK_ENTRIES + 10
    # the last lap reaches entry n - 21; the resume starts at entry 10 of it,
    # so entries 0-9 are built and never used again
    cfg = dataclasses.replace(cfg, iterations=2 * n - 20)
    start = n + 10
    full = train(tagged, cfg)
    half = train(tagged, dataclasses.replace(cfg, iterations=start))
    resumed = train(tagged, cfg, init_params=half.params, init_state=half.state, start_iteration=start)
    assert resumed.params.flat.tobytes() == full.params.flat.tobytes()
    assert resumed.state.buffers.tobytes() == full.state.buffers.tobytes()
    assert resumed.state.t == full.state.t
    assert resumed.log.losses == [entry for entry in full.log.losses if entry[0] >= start]


def test_a_later_block_that_fails_to_build_raises_its_value_error(monkeypatch):
    cfg = tiny_cfg(world=dataclasses.replace(TINY_WORLD, n_images=200), iterations=200)
    tagged, _, _ = prepare_world(cfg)
    real = hoimix.experiment.prepare_block
    calls = []

    def second_fails(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise ValueError("second block")
        return real(*args, **kwargs)

    monkeypatch.setattr(hoimix.experiment, "prepare_block", second_fails)
    with pytest.raises(ValueError, match="^second block$") as caught:
        train(tagged, cfg)
    assert not isinstance(caught.value, TrainingDiverged)
    assert len(calls) == 2


def test_a_block_with_non_finite_features_raises_its_value_error():
    cfg = tiny_cfg(iterations=100)
    tagged, _, _ = prepare_world(cfg)
    image = int(train(tagged, dataclasses.replace(cfg, iterations=1)).schedule.images[-1, 1])
    message = f"^image {tagged.image_ids[image]}: pair features must be finite$"
    with pytest.raises(ValueError, match=message) as caught:
        train(with_appearance(tagged, [image], np.nan), cfg)
    assert not isinstance(caught.value, TrainingDiverged)


def recorded_blocks(monkeypatch, check=lambda blocks: None):
    """A weakref to the features memory of every block the training process
    makes batches of (through hoimix.experiment's binding of _batches), in
    order: built in process or received from the producer. check(blocks)
    runs each time, before the block is recorded."""
    real = hoimix.experiment._batches
    blocks = []

    def recorded(block):
        check(blocks)
        # the array that owns the memory, which every view of it keeps: a
        # built block's features, an unpickled one's flat base
        owner = block.features
        while isinstance(owner.base, np.ndarray):
            owner = owner.base
        blocks.append(weakref.ref(owner))
        return real(block)

    monkeypatch.setattr(hoimix.experiment, "_batches", recorded)
    return blocks


def two_block_schedule():
    """A tagged 200-image world and a config whose schedule fills two
    blocks, and the number of its entries."""
    cfg = tiny_cfg(world=dataclasses.replace(TINY_WORLD, n_images=200), iterations=1)
    tagged, _, _ = prepare_world(cfg)
    n = len(train(tagged, cfg).schedule.images)
    assert BLOCK_ENTRIES < n <= 2 * BLOCK_ENTRIES
    return tagged, cfg, n


# a one-pass run of more than one block builds its blocks in a forked
# producer when the process may use more than one CPU, and in process if not
BLOCK_PATHS = {"in_process": {0}, "producer": {0, 1}}


def use_block_path(monkeypatch, path):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: BLOCK_PATHS[path])


def block_builders(monkeypatch, log_path):
    """Make prepare_block append the id of the calling process and of its
    parent, and its first entry, to log_path, in every process (a forked
    producer or worker inherits the patch); returns a function that reads
    the (pid, parent pid, entry) records back."""
    real = hoimix.experiment.prepare_block

    def recording(world, entries, **kwargs):
        with open(log_path, "a") as fh:
            fh.write(json.dumps([os.getpid(), os.getppid(), entries[0].tolist()]) + "\n")
        return real(world, entries, **kwargs)

    monkeypatch.setattr(hoimix.experiment, "prepare_block", recording)
    return lambda: [json.loads(line) for line in log_path.read_text().splitlines()] if log_path.exists() else []


@pytest.mark.parametrize("path", sorted(BLOCK_PATHS))
def test_a_one_pass_run_drops_each_block_before_it_builds_the_next(monkeypatch, path):
    tagged, cfg, n = two_block_schedule()
    use_block_path(monkeypatch, path)

    def unreachable(blocks):
        # each earlier block's batches have all trained
        assert [ref() for ref in blocks] == [None] * len(blocks)

    blocks = recorded_blocks(monkeypatch, unreachable)
    train(tagged, dataclasses.replace(cfg, iterations=n))
    assert len(blocks) == 2
    assert_no_child_left()


def test_a_wrapping_run_keeps_each_block_until_its_last_use(monkeypatch):
    tagged, cfg, n = two_block_schedule()
    # the second lap uses the first block's entries, not the second's
    cfg = dataclasses.replace(cfg, iterations=n + BLOCK_ENTRIES // 2)
    blocks = recorded_blocks(monkeypatch)
    real_step = hoimix.experiment.step
    alive = []

    def checked_step(*args, **kwargs):
        # the blocks alive while iteration len(alive) steps
        alive.append([ref() is not None for ref in blocks])
        return real_step(*args, **kwargs)

    monkeypatch.setattr(hoimix.experiment, "step", checked_step)
    train(tagged, cfg)
    assert len(blocks) == 2 and len(alive) == cfg.iterations
    last_use = [cfg.iterations - 1, n - 1]
    for t, seen in enumerate(alive):
        built = 1 if t < BLOCK_ENTRIES else 2
        assert seen == [t <= last_use[b] for b in range(built)], t


@pytest.mark.parametrize("path", sorted(BLOCK_PATHS))
def test_a_resumed_one_pass_run_builds_only_the_blocks_it_trains_on(monkeypatch, tmp_path, path):
    # the data_pass shape: 2 400 images, one pass of 1 200 entries in 19
    # blocks; a resume at iteration 600 needs blocks 9-18
    cfg = ExperimentConfig(world=WorldConfig(n_images=2400), iterations=1200)
    tagged, _, _ = prepare_world(cfg)
    full = train(tagged, cfg)
    half = train(tagged, dataclasses.replace(cfg, iterations=600))
    use_block_path(monkeypatch, path)
    built = block_builders(monkeypatch, tmp_path / "blocks")
    resumed = train(tagged, cfg, init_params=half.params, init_state=half.state, start_iteration=600)
    first = full.schedule.images[9 * BLOCK_ENTRIES :: BLOCK_ENTRIES].tolist()
    assert [entry for _, _, entry in built()] == first
    # built by this process, or by the producer it forked
    assert {pid if path == "in_process" else ppid for pid, ppid, _ in built()} == {os.getpid()}
    assert resumed.params.flat.tobytes() == full.params.flat.tobytes()
    assert resumed.state.buffers.tobytes() == full.state.buffers.tobytes()
    assert resumed.state.t == full.state.t
    assert resumed.log.losses == full.log.losses[600:]
    assert_no_child_left()


def test_the_producer_trains_byte_for_byte_as_in_process(monkeypatch, tmp_path):
    tagged, cfg, n = two_block_schedule()
    cfg = dataclasses.replace(cfg, iterations=n, eval_every=20, n_test_images=16)
    _, test_set = prepared_world(cfg)
    built = block_builders(monkeypatch, tmp_path / "blocks")
    real_assemble = hoimix.experiment.assemble_minibatch
    writeable = set()

    def assemble(*args):
        batch = real_assemble(*args)
        writeable.update((batch.features.flags.writeable, batch.targets.flags.writeable))
        return batch

    monkeypatch.setattr(hoimix.experiment, "assemble_minibatch", assemble)
    runs = {}
    for path in sorted(BLOCK_PATHS):
        use_block_path(monkeypatch, path)
        runs[path] = train(tagged, cfg, test_set=test_set)
        assert_no_child_left()
    # two blocks each: the producer's built by its child, the other's in process
    assert sorted((pid == os.getpid(), ppid == os.getpid()) for pid, ppid, _ in built()) == (
        [(False, True)] * 2 + [(True, False)] * 2
    )
    a, b = runs["in_process"], runs["producer"]
    assert a.params.flat.tobytes() == b.params.flat.tobytes()
    assert a.state.buffers.tobytes() == b.state.buffers.tobytes() and a.state.t == b.state.t
    assert a.log.losses == b.log.losses
    assert [(t, r.map_full, r.ap_per_class.tobytes()) for t, r in a.log.evals] == [
        (t, r.map_full, r.ap_per_class.tobytes()) for t, r in b.log.evals
    ]
    assert len(a.log.evals) == n // 20
    assert writeable == {False}  # a received block is read-only, as a built one is


def test_a_producers_later_block_error_reaches_the_caller_unchanged(monkeypatch):
    tagged, cfg, n = two_block_schedule()
    use_block_path(monkeypatch, "producer")
    real = hoimix.experiment.prepare_block
    calls = []  # the producer's own copy

    def second_fails(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise ValueError("second block")
        return real(*args, **kwargs)

    monkeypatch.setattr(hoimix.experiment, "prepare_block", second_fails)
    with pytest.raises(ValueError, match="^second block$") as caught:
        train(tagged, dataclasses.replace(cfg, iterations=n))
    assert type(caught.value) is ValueError
    assert calls == []  # the parent built no block
    assert_no_child_left()


def test_the_producer_sends_each_block_before_it_builds_the_next(monkeypatch):
    # 6 classes: a block's pickle ends in a tail shorter than a write buffer
    tagged, cfg, n = two_block_schedule()
    use_block_path(monkeypatch, "producer")
    real = hoimix.experiment.prepare_block
    calls = []  # the producer's own copy

    def slow_second(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            time.sleep(3.0)
        return real(*args, **kwargs)

    real_step = hoimix.experiment.step
    stepped = []

    def timed_step(*args, **kwargs):
        stepped.append(time.monotonic())
        return real_step(*args, **kwargs)

    monkeypatch.setattr(hoimix.experiment, "prepare_block", slow_second)
    monkeypatch.setattr(hoimix.experiment, "step", timed_step)
    start = time.monotonic()
    train(tagged, dataclasses.replace(cfg, iterations=n))
    # the first block trained while the producer was still building the second
    assert stepped[0] - start < 2.0
    assert stepped[BLOCK_ENTRIES] - start >= 3.0


def _diverge(monkeypatch, tagged, cfg):
    params = ModelParams.init(cfg.world.feature_dim, cfg.hidden_dim, cfg.world.n_hoi_classes, seed=0)
    params.w_enc[0, 0] = np.inf  # the first forward is non-finite
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        train(tagged, cfg, init_params=params)


def _bad_block(monkeypatch, tagged, cfg):
    def failing(*args, **kwargs):
        raise ValueError("no block")

    monkeypatch.setattr(hoimix.experiment, "prepare_block", failing)
    train(tagged, cfg)


def _interrupt(monkeypatch, tagged, cfg):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(hoimix.experiment, "step", interrupted)
    train(tagged, cfg)


@pytest.mark.parametrize(
    "way_out, raised",
    [(_diverge, TrainingDiverged), (_bad_block, ValueError), (_interrupt, KeyboardInterrupt)],
)
def test_no_producer_outlives_a_train_that_raises(monkeypatch, way_out, raised):
    tagged, cfg, n = two_block_schedule()
    use_block_path(monkeypatch, "producer")
    with pytest.raises(raised) as caught:
        way_out(monkeypatch, tagged, dataclasses.replace(cfg, iterations=n))
    # the traceback, still held, keeps train's frame alive
    assert caught.tb is not None
    assert_no_child_left()


def test_a_run_many_worker_builds_its_blocks_itself(monkeypatch, tmp_path):
    tagged, cfg, n = two_block_schedule()
    cfg = dataclasses.replace(cfg, iterations=n, n_test_images=8)
    _, test_set = prepared_world(cfg)
    use_block_path(monkeypatch, "producer")
    built = block_builders(monkeypatch, tmp_path / "blocks")
    with returns_within(60.0):
        run_many([partial(fit, tagged, cfg, test_set), partial(fit, tagged, _shared(cfg), test_set)])
    # every block was built by a worker, a child of this process, not by a
    # producer that a worker forked
    assert len(built()) == 4
    assert {ppid for _, ppid, _ in built()} == {os.getpid()}
    assert_no_child_left()


def one_pass_peak_bytes(n_images: int) -> int:
    """tracemalloc's peak over a second train call whose iterations use
    each schedule entry once, on the default world of n_images images."""
    cfg = ExperimentConfig(world=WorldConfig(n_images=n_images), iterations=1)
    tagged, _, _ = prepare_world(cfg)
    cfg = dataclasses.replace(cfg, iterations=len(train(tagged, cfg).schedule.images))
    tracemalloc.start()
    try:
        train(tagged, cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_one_pass_training_memory_does_not_grow_with_the_schedule():
    # one pass holds a block of batches at a time, not the whole schedule
    assert one_pass_peak_bytes(1200) <= 1.25 * one_pass_peak_bytes(600)


def test_non_finite_params_abort_training():
    import warnings

    cfg = tiny_cfg()
    tagged, _, _ = prepare_world(cfg)
    # poison the model init so the loss becomes non-finite immediately
    from hoimix.model import ModelParams

    params = ModelParams.init(cfg.world.feature_dim, cfg.hidden_dim, 6, seed=0)
    params.w_enc[0, 0] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(TrainingDiverged):
            train(tagged, cfg, init_params=params)


@pytest.mark.parametrize("saved_policy", [MomentumPolicy.SHARED, MomentumPolicy.INDEPENDENT])
def test_resume_rejects_a_state_of_the_other_buffer_count(saved_policy):
    cfg = tiny_cfg(iterations=20)
    tagged, _, _ = prepare_world(cfg)
    other = (
        MomentumPolicy.INDEPENDENT if saved_policy == MomentumPolicy.SHARED else MomentumPolicy.SHARED
    )
    saved_cfg = dataclasses.replace(
        cfg, optimizer=dataclasses.replace(cfg.optimizer, policy=saved_policy)
    )
    resume_cfg = dataclasses.replace(
        cfg, iterations=40, optimizer=dataclasses.replace(cfg.optimizer, policy=other)
    )
    half = train(tagged, saved_cfg)
    with pytest.raises(ValueError, match="momentum buffer"):
        train(tagged, resume_cfg, init_params=half.params, init_state=half.state, start_iteration=20)


@pytest.mark.parametrize("start", [-1, 31])
def test_train_rejects_a_start_iteration_outside_the_run(monkeypatch, start):
    cfg = tiny_cfg(iterations=30)
    tagged, _, _ = prepare_world(cfg)
    # rejected before the schedule is drawn
    monkeypatch.setattr(hoimix.experiment, "batch_schedule", None)
    with pytest.raises(ValueError, match=f"start_iteration {start} is outside \\[0, 30\\]"):
        train(tagged, cfg, start_iteration=start)


def test_train_accepts_a_start_iteration_at_the_end_of_the_run():
    cfg = tiny_cfg(iterations=30)
    tagged, _, _ = prepare_world(cfg)
    half = train(tagged, cfg)
    done = train(tagged, cfg, init_params=half.params, init_state=half.state, start_iteration=30)
    assert done.log.losses == [] and done.log.skipped == 0
    assert done.state.t == half.state.t == 30


def test_resume_rejects_params_or_state_of_other_dims():
    from hoimix.model import ModelParams
    from hoimix.optimizer import MomentumState

    cfg = tiny_cfg(iterations=20)
    tagged, _, _ = prepare_world(cfg)
    wide = ModelParams.init(cfg.world.feature_dim, 27, cfg.world.n_hoi_classes, seed=0)
    with pytest.raises(ValueError, match="init_params dims"):
        train(tagged, cfg, init_params=wide)
    with pytest.raises(ValueError, match="init_state dims"):
        train(tagged, cfg, init_state=MomentumState.zeros(wide, cfg.optimizer.policy))


def test_ratio_sweep_produces_rows_and_aggregates(tmp_path):
    cfg = tiny_cfg(iterations=200)
    ratios = [(1.0, 0.0, 0.0), (0.5, 0.5, 0.0), (0.0, 1.0, 0.0)]
    with returns_within(60.0):
        rows, aggregates = run_ratio_sweep(cfg, ratios, seeds=[0, 1], out_dir=str(tmp_path))
    assert len(rows) == 6
    assert len(aggregates) == 3
    sweep = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert sweep[0].startswith("run_id,")
    assert len(sweep) == 7
    agg = (tmp_path / "sweep_aggregate.csv").read_text().strip().splitlines()
    assert agg[1].split(",")[0] == "100/0/0"
    assert agg[1].split(",")[1] == "2"


def test_ratio_sweep_single_cell():
    cfg = tiny_cfg(iterations=200)
    with returns_within(60.0):
        rows, aggregates = run_ratio_sweep(cfg, [(0.5, 0.5, 0.0)], seeds=[3])
    assert len(rows) == 1
    assert len(aggregates) == 1
    assert rows[0].split(",")[4] == "3"


def test_ratio_sweep_needs_seeds():
    with pytest.raises(ValueError):
        run_ratio_sweep(tiny_cfg(), [(1.0, 0.0, 0.0)], seeds=[])


def test_ratio_sweep_needs_ratios(tmp_path):
    with pytest.raises(ValueError, match="at least one ratio"):
        run_ratio_sweep(tiny_cfg(), [], seeds=[0], out_dir=str(tmp_path))
    assert list(tmp_path.iterdir()) == []


def test_ratio_sweep_cells_are_runs_of_their_configs():
    cfg = tiny_cfg(iterations=150)
    ratios = [(1.0, 0.0, 0.0), (0.3, 0.7, 0.0)]
    with returns_within(60.0):
        rows, _ = run_ratio_sweep(cfg, ratios, seeds=[2, 4])
    expected = []
    for ws, fs, us in ratios:
        for seed in (2, 4):
            world = dataclasses.replace(cfg.world, seed=cfg.world.seed + seed)
            cell = dataclasses.replace(
                cfg, ws_fraction=ws, fs_fraction=fs, us_fraction=us, train_seed=seed, world=world
            )
            expected.append(run_experiment(cell, run_id=f"sweep-{cell.ratio_string()}-s{seed}").csv_row)
    assert rows == expected


def _shared(cfg):
    return dataclasses.replace(cfg, optimizer=dataclasses.replace(cfg.optimizer, policy=MomentumPolicy.SHARED))


def test_run_many_equals_serial_fits_in_spec_order(tmp_path):
    cfg = tiny_cfg(iterations=200, eval_every=100)
    tagged, test_set = prepared_world(cfg)
    fs_only = fs_part(tagged)
    calls = [
        # the longest fit first, so that it is not the first to finish
        partial(fit, tagged, dataclasses.replace(cfg, iterations=500), test_set, run_id="long"),
        partial(fit, tagged, _shared(cfg), test_set, run_id="shared", periodic_eval=True),
        partial(fit, tagged, cfg, test_set, run_id="indep", periodic_eval=True),
        partial(fit, fs_only, _shared(cfg), test_set, run_id="shared-fs"),
    ]
    with returns_within(60.0):
        runs = run_many(calls)
    assert_no_child_left()
    assert [run.run_id for run in runs] == [call.keywords["run_id"] for call in calls]
    for call, run in zip(calls, runs):
        serial = call()
        assert run.csv_row == serial.csv_row
        assert run.params.flat.tobytes() == serial.params.flat.tobytes()
        assert run.state.buffers.tobytes() == serial.state.buffers.tobytes()
        assert run.state.t == serial.state.t
        assert run.schedule.images.tolist() == serial.schedule.images.tolist()
        assert run.schedule.leftovers.tolist() == serial.schedule.leftovers.tolist()
        assert run.log.losses == serial.log.losses
        assert [(it, r.map_full) for it, r in run.log.evals] == [
            (it, r.map_full) for it, r in serial.log.evals
        ]
        write_run_outputs(run, str(tmp_path / "pool" / run.run_id))
        write_run_outputs(serial, str(tmp_path / "serial" / run.run_id))
        for name in ("metrics.csv", "checkpoint.ckpt"):
            pooled = (tmp_path / "pool" / run.run_id / name).read_bytes()
            assert pooled == (tmp_path / "serial" / run.run_id / name).read_bytes(), name


def test_run_many_raises_a_workers_divergence():
    cfg = tiny_cfg(iterations=50)
    tagged, test_set = prepared_world(cfg)
    # steps this large overflow the weights within a few iterations
    diverging = dataclasses.replace(cfg, optimizer=OptimizerConfig(alpha_ws=1e300, alpha_fs=1e300))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(TrainingDiverged) as serial:
            fit(tagged, diverging, test_set)
    calls = [partial(fit, tagged, cfg, test_set), partial(fit, tagged, diverging, test_set)]
    with pytest.raises(TrainingDiverged) as pooled, returns_within(60.0):
        run_many(calls)
    assert str(pooled.value) == str(serial.value)
    assert str(pooled.value).startswith("aborted at iteration")
    assert_no_child_left()


def test_run_many_raises_a_failing_spec_without_waiting_for_its_siblings(tmp_path):
    cfg = tiny_cfg(iterations=50)
    tagged, test_set = prepared_world(cfg)
    diverging = dataclasses.replace(cfg, optimizer=OptimizerConfig(alpha_ws=1e300, alpha_fs=1e300))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(TrainingDiverged) as serial:
            fit(tagged, diverging, test_set)
    marker = tmp_path / "sibling-finished"

    def marking_fit(*args, **kwargs):
        run = fit(*args, **kwargs)
        marker.write_text(run.run_id)  # in the forked child, which inherits this call
        return run

    calls = [
        partial(marking_fit, tagged, diverging, test_set, run_id="diverging"),
        # seconds of training, which the failure must not wait for
        partial(marking_fit, tagged, dataclasses.replace(cfg, iterations=12000), test_set, run_id="sibling"),
    ]
    with pytest.raises(TrainingDiverged) as pooled, returns_within(60.0):
        run_many(calls)
    assert str(pooled.value) == str(serial.value)
    assert not marker.exists()
    assert_no_child_left()


def _same_runs(runs, serial):
    assert [run.csv_row for run in runs] == [run.csv_row for run in serial]
    for run, expected in zip(runs, serial):
        assert run.params.flat.tobytes() == expected.params.flat.tobytes()
        assert run.state.buffers.tobytes() == expected.state.buffers.tobytes()


def _two_calls():
    cfg = tiny_cfg(iterations=60)
    tagged, test_set = prepared_world(cfg)
    return [
        partial(fit, tagged, cfg, test_set, run_id="indep"),
        partial(fit, tagged, _shared(cfg), test_set, run_id="shared"),
    ]


def test_run_many_workers_inherit_their_specs(monkeypatch):
    calls = _two_calls()
    serial = [call() for call in calls]

    def closure(call):
        return lambda: call()

    closures = [closure(call) for call in calls]
    # pickle stores a function by its importable name, which a closure lacks
    with pytest.raises((pickle.PicklingError, AttributeError)):
        pickle.dumps(closures[0])

    def unpicklable(self, protocol):
        raise AssertionError(f"{type(self).__name__} was pickled")

    monkeypatch.setattr(World, "__reduce_ex__", unpicklable, raising=False)
    with returns_within(60.0):
        _same_runs(run_many(closures), serial)
    assert_no_child_left()


def _threads() -> int:
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("Threads:"))


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_run_many_forks_a_process_with_blas_threads_without_hanging():
    calls = _two_calls()
    serial = [call() for call in calls]
    product = np.random.default_rng(0).random((400, 400))
    with returns_within(60.0):
        for _ in range(3):
            # a product this large starts the OpenBLAS thread pool, which
            # the fork must then find running
            product @ product
            if len(os.sched_getaffinity(0)) >= 2:
                assert _threads() >= 2
            _same_runs(run_many(calls), serial)
            assert_no_child_left()


def test_class_split_reports_four_subset_maps():
    cfg = tiny_cfg(iterations=400, n_test_images=24)
    with returns_within(60.0):
        result = run_class_split(cfg)
    assert sorted(result["classes_fs"] + result["classes_ws"]) == list(range(6))
    for arm in ("separate", "joint"):
        for half in ("fs_half", "ws_half"):
            assert 0.0 <= result[arm][half] <= 1.0 or np.isnan(result[arm][half])


def test_class_split_deterministic():
    cfg = tiny_cfg(iterations=200, n_test_images=16)
    with returns_within(60.0):
        a = run_class_split(cfg)
        b = run_class_split(cfg)
    assert a == b


def test_permute_labels_breaks_association_but_keeps_marginals():
    world = generate_world(TINY_WORLD)
    images, permuted = images_of(world), images_of(permute_labels(world, seed=0))
    old = sorted(t.hoi_class for im in images for t in triplet_objects(im.gt_triplets))
    new = sorted(t.hoi_class for im in permuted for t in triplet_objects(im.gt_triplets))
    assert old == new
    changed = 0
    for a, b in zip(images, permuted):
        for ta, tb in zip(triplet_objects(a.gt_triplets), triplet_objects(b.gt_triplets)):
            # only the class moves; the boxes stay with their image
            assert (ta.human_box, ta.object_box) == (tb.human_box, tb.object_box)
            changed += ta.hoi_class != tb.hoi_class
    assert changed > 0
    for im in permuted:
        assert im.image_labels == frozenset(im.gt_triplets.hoi_classes.tolist())


def test_permute_labels_shuffles_weak_image_labels():
    world = split_supervision(generate_world(TINY_WORLD), 0.5, 0.5, 0.0, seed=0)
    tagged, permuted = images_of(world), images_of(permute_labels(world, seed=0))
    weak = [k for k, im in enumerate(tagged) if im.supervision == SupervisionTag.WS]
    assert weak and all(not tagged[k].gt_triplets for k in weak)
    # WS label sets move between WS images: marginals kept, association broken
    assert any(permuted[k].image_labels != tagged[k].image_labels for k in weak)
    assert sorted(sorted(permuted[k].image_labels) for k in weak) == sorted(
        sorted(tagged[k].image_labels) for k in weak
    )
    for k in weak:
        assert permuted[k].image_id == tagged[k].image_id and not permuted[k].gt_triplets
    # images with triplets are permuted as if the WS images were absent
    strong = world_of([im for im in tagged if im.supervision != SupervisionTag.WS], TINY_WORLD.n_hoi_classes)
    assert [triplet_objects(im.gt_triplets) for im in images_of(permute_labels(strong, seed=0))] == [
        triplet_objects(im.gt_triplets) for im in permuted if im.supervision != SupervisionTag.WS
    ]


@pytest.mark.parametrize(
    "field, value",
    [
        ("iterations", 0),
        ("hidden_dim", 0),
        ("top_k", 0),
        ("n_test_images", 0),
        ("eval_every", -1),
        ("pseudo_threshold", 0.0),
        ("pseudo_threshold", 1.5),
        ("pseudo_cycles", 0),
    ],
)
def test_config_rejects_out_of_range_fields_naming_them(field, value, tmp_path):
    with pytest.raises(ValueError, match=f"^{field}: "):
        tiny_cfg(**{field: value})
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**tiny_cfg().to_dict(), field: value}))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {field}: "):
        load_config(path)


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize(
    "section, field",
    [
        (None, "ws_fraction"),
        (None, "fs_fraction"),
        (None, "us_fraction"),
        ("optimizer", "alpha_ws"),
        ("optimizer", "alpha_fs"),
        ("world", "feature_noise_sigma"),
        ("world", "detection_jitter_sigma"),
    ],
)
def test_non_finite_fields_rejected_naming_the_file_and_the_field(section, field, value, tmp_path):
    # json reads NaN and Infinity, which pass a plain `x < 0.0` check
    entry = f'"{field}": {value}'
    path = tmp_path / "config.json"
    path.write_text("{" + (f'"{section}": {{{entry}}}' if section else entry) + "}")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {field}: "):
        load_config(path)


@pytest.mark.parametrize("field", ["humans_per_image", "objects_per_image"])
@pytest.mark.parametrize(
    "value", [[1], 3, [1, "2"], [1.5, 2], [1, 2, 3], [True, 2], None], ids=repr
)
def test_malformed_range_rejected_naming_its_field(field, value, tmp_path):
    as_given = tuple(value) if isinstance(value, list) else value
    with pytest.raises(ValueError, match=f"^{field}: must be a pair of ints"):
        WorldConfig(**{field: as_given})
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"world": {field: value}}))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {field}: must be a pair of ints"):
        load_config(path)


BAD_CONFIGS = {
    "unknown_field": '{"bogus": 1}',
    "truncated_json": '{"iterations": ',
    "mistyped_field": '{"world": {"n_images": "ten"}}',
    "not_an_object": "[1, 2]",
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_load_config_names_the_file_of_a_bad_config(case, tmp_path):
    path = tmp_path / f"{case}.json"
    path.write_text(BAD_CONFIGS[case])
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
        load_config(path)


def _us_mix():
    cfg = tiny_cfg(ws_fraction=0.4, fs_fraction=0.3, us_fraction=0.3)
    tagged, _, _ = prepare_world(cfg)
    # the US images' stripped ground truth stands in for pseudo labels
    truth = images_of(generate_world(cfg.world))
    us = np.flatnonzero(tagged.supervision == SupervisionTag.US.code).tolist()
    return cfg, tagged.with_triplets(us, [truth[k].gt_triplets for k in us])


@pytest.mark.parametrize("setting", ["shared", "sequence_fs_first", "no_swap", "us_mix"])
def test_train_matches_the_reference_step_bytewise(setting):
    if setting == "us_mix":
        cfg, tagged = _us_mix()
    else:
        optimizer = OptimizerConfig(alpha_ws=0.012, alpha_fs=0.05)
        overrides = {
            "shared": dict(optimizer=dataclasses.replace(optimizer, policy=MomentumPolicy.SHARED)),
            "sequence_fs_first": dict(
                optimizer=dataclasses.replace(
                    optimizer,
                    policy=MomentumPolicy.SEQUENCE_FS_FIRST,
                    sequence_switch_iteration=120,
                )
            ),
            "no_swap": dict(element_swap=False),
        }[setting]
        cfg = tiny_cfg(iterations=300, **overrides)
        tagged, _, _ = prepare_world(cfg)
    result = train(tagged, cfg)
    params, state, losses = reference_train(tagged, cfg, result.schedule)
    assert result.params.flat.tobytes() == params.flat.tobytes()
    assert result.state.buffers.tobytes() == state.buffers.tobytes()
    assert result.state.t == state.t
    assert result.log.losses == losses
    tags = {tag for _, tag, _ in losses}
    assert tags == ({"WS", "FS", "US"} if setting == "us_mix" else {"WS", "FS"})
    if setting == "sequence_fs_first":
        assert result.log.skipped > 0


def test_us_images_excluded_until_pseudo_labeled():
    cfg, labelled = _us_mix()
    tagged, _, _ = prepare_world(cfg)
    images = images_of(labelled)
    base = world_of(
        [im for im in images_of(tagged) if im.supervision != SupervisionTag.US], cfg.world.n_hoi_classes
    )
    us = np.flatnonzero(tagged.supervision == SupervisionTag.US.code).tolist()
    entries = train(base, cfg).schedule.images
    index = np.flatnonzero(tagged.supervision != SupervisionTag.US.code)  # base image k's index
    assert base.supervision.tolist() == tagged.supervision[index].tolist()

    def with_pseudo_labels(ks):
        return tagged.with_triplets(ks, [images[k].gt_triplets for k in ks])

    # no US image with pseudo labels, or a lone one: the schedule of the
    # images without them
    for world in (tagged, with_pseudo_labels(us[:1])):
        result = train(world, cfg)
        assert "US" not in {tag for _, tag, _ in result.log.losses}
        assert index[entries].tolist() == result.schedule.images.tolist()
    us_pairs = [
        set(pair)
        for pair in train(with_pseudo_labels(us[:2]), cfg).schedule.images.tolist()
        if tagged.supervision[pair[0]] == SupervisionTag.US.code
    ]
    assert us_pairs == [{us[0], us[1]}]


CLI = [sys.executable, "-m", "hoimix.cli"]
SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def cli_config(tmp_path):
    cfg = tiny_cfg(iterations=120, n_test_images=8)
    write_outputs(tmp_path, {"config.json": [json_text(cfg.to_dict())]})
    return tmp_path / "config.json"


def run_cli(args, cwd):
    # the child runs in cwd, so a relative PYTHONPATH would no longer find
    # the package: put the absolute src directory first
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC_DIR, env.get("PYTHONPATH")]))
    return subprocess.run(CLI + args, capture_output=True, text=True, cwd=cwd, env=env)


def test_cli_names_the_file_of_a_bad_config(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"bogus": 1}')
    result = run_cli(["train", "--config", str(path)], tmp_path)
    assert result.returncode == 1
    assert f"error: {path}: " in result.stderr


def test_cli_train_eval(tmp_path):
    cfg_path = cli_config(tmp_path)
    tr = run_cli(
        ["train", "--config", str(cfg_path), "--out-dir", str(tmp_path / "r"), "--run-id", "t1"],
        tmp_path,
    )
    assert tr.returncode == 0, tr.stderr
    assert (tmp_path / "r" / "metrics.csv").exists()
    assert tr.stdout.strip().splitlines()[-1].startswith("t1,")

    ev = run_cli(
        [
            "eval",
            "--config",
            str(cfg_path),
            "--checkpoint",
            str(tmp_path / "r" / "checkpoint.ckpt"),
            "--out-dir",
            str(tmp_path / "e"),
        ],
        tmp_path,
    )
    assert ev.returncode == 0, ev.stderr
    # same checkpoint, same test world: metrics must agree with the train run
    assert ev.stdout.strip().split(",")[5] == tr.stdout.strip().splitlines()[-1].split(",")[5]


def test_cli_train_ratio_flag(tmp_path):
    cfg_path = cli_config(tmp_path)
    tr = run_cli(
        ["train", "--config", str(cfg_path), "--out-dir", str(tmp_path / "r"),
         "--ratio", "100/0"],
        tmp_path,
    )
    assert tr.returncode == 0, tr.stderr
    assert ",100/0/0," in tr.stdout.strip().splitlines()[-1]


@pytest.mark.parametrize(
    "with_config, ratio, fractions",
    [
        (False, None, (0.3, 0.4, 0.3)),
        (True, None, (0.5, 0.2, 0.3)),
        (False, "20/50/30", (0.2, 0.5, 0.3)),
        (True, "20/50/30", (0.2, 0.5, 0.3)),
    ],
)
def test_cli_pseudo_cycle_ratio_is_the_flag_then_the_file_then_30_40_30(
    with_config, ratio, fractions, monkeypatch, tmp_path
):
    path = tmp_path / "fractions.json"
    path.write_text('{"ws_fraction": 0.5, "fs_fraction": 0.2, "us_fraction": 0.3}')
    resolved = []

    def stop_before_training(cfg):
        resolved.append(cfg)
        raise RuntimeError("stopped before training")

    monkeypatch.setattr(hoimix.cli, "prepare_world", stop_before_training)
    argv = ["pseudo-cycle", "--out-dir", str(tmp_path / "pc")]
    argv += ["--config", str(path)] if with_config else []
    argv += ["--ratio", ratio] if ratio else []
    assert hoimix.cli.main(argv) == 1
    (cfg,) = resolved
    assert (cfg.ws_fraction, cfg.fs_fraction, cfg.us_fraction) == fractions


def test_cli_nonzero_exit_on_bad_input(tmp_path):
    bad = run_cli(["train", "--config", str(tmp_path / "missing.json")], tmp_path)
    assert bad.returncode == 1
    assert "error:" in bad.stderr


def test_cli_bad_ratio_rejected(tmp_path):
    cfg_path = cli_config(tmp_path)
    bad = run_cli(["train", "--config", str(cfg_path), "--ratio", "80/40"], tmp_path)
    assert bad.returncode == 1


@pytest.mark.parametrize("ratio", ["70/", "70/x"])
def test_cli_names_a_ratio_it_cannot_parse(ratio, capsys):
    assert hoimix.cli.main(["train", "--ratio", ratio]) == 1
    assert capsys.readouterr().err == f"error: cannot parse ratio {ratio!r}\n"


def test_cli_sweep_seeds_start_at_the_seed_flag(tmp_path):
    cfg_path = cli_config(tmp_path)
    out = tmp_path / "sweep"
    sweep = run_cli(
        ["sweep", "--config", str(cfg_path), "--ratios", "50/50", "--n-seeds", "2",
         "--seed", "5", "--out-dir", str(out)],
        tmp_path,
    )
    assert sweep.returncode == 0, sweep.stderr
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert [row.split(",")[4] for row in rows] == ["5", "6"]
    with returns_within(60.0):
        expected, _ = run_ratio_sweep(load_config(cfg_path), [(0.5, 0.5, 0.0)], seeds=[5, 6])
    assert rows == expected


def test_cli_eval_rejects_a_checkpoint_of_other_dims(tmp_path):
    # a 4-class checkpoint against the default 24-class world
    ckpt = tmp_path / "four_classes.ckpt"
    save_checkpoint(ckpt, ModelParams.init(23, 8, 4, seed=0))
    bad = run_cli(["eval", "--checkpoint", str(ckpt), "--out-dir", str(tmp_path / "e")], tmp_path)
    assert bad.returncode == 1
    message = bad.stderr.strip().splitlines()[-1]
    assert str(ckpt) in message
    assert "(23, 4)" in message and "(23, 24)" in message
    assert not (tmp_path / "e").exists()
