import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from hoimix.checkpoint import load_checkpoint
from hoimix.experiment import (
    ExperimentConfig,
    TrainingDiverged,
    config_diff,
    fit,
    load_config,
    permute_labels,
    prepare_world,
    run_class_split,
    run_experiment,
    run_ratio_sweep,
    save_config,
    train,
)
from hoimix.optimizer import MomentumPolicy, OptimizerConfig
from hoimix.supervision import SupervisionTag
from hoimix.synth_world import WorldConfig, generate_world, split_supervision

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
    path = tmp_path / "config.json"
    save_config(cfg, path)
    loaded = load_config(path)
    assert loaded == cfg
    assert loaded.optimizer.policy == MomentumPolicy.SEQUENCE_FS_FIRST
    assert loaded.world.humans_per_image == (1, 2)


def test_config_diff_reports_dotted_fields():
    a = tiny_cfg()
    b = dataclasses.replace(a, optimizer=dataclasses.replace(a.optimizer, policy=MomentumPolicy.SHARED))
    assert config_diff(a, b) == ["optimizer.policy"]
    c = dataclasses.replace(a, ws_fraction=0.7, fs_fraction=0.3)
    assert config_diff(a, c) == ["fs_fraction", "ws_fraction"]
    assert config_diff(a, a) == []


def test_train_logs_losses_and_periodic_eval():
    cfg = tiny_cfg(eval_every=100)
    tagged, test_images, rare_ids = prepare_world(cfg)
    result = train(tagged, cfg, test_images=test_images, rare_ids=rare_ids)
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


def test_run_experiment_is_fit_on_the_prepared_world():
    cfg = tiny_cfg()
    tagged, test_images, rare_ids = prepare_world(cfg)
    run = fit(tagged, cfg, test_images, rare_ids)
    assert run.csv_row == run_experiment(cfg).csv_row
    # the run keeps its schedule, drawn from the images it was given
    assert len(run.schedule.entries) == run.log.header["schedule_entries"]
    trained = {i for e in run.schedule.entries for i in (e.image_a, e.image_b)}
    assert trained <= {im.image_id for im in tagged}
    fs_only = [im for im in tagged if im.supervision == SupervisionTag.FS]
    fs_run = fit(fs_only, cfg, test_images, rare_ids, run_id="fs")
    assert {e.supervision for e in fs_run.schedule.entries} == {SupervisionTag.FS}
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
    rows, aggregates = run_ratio_sweep(cfg, [(0.5, 0.5, 0.0)], seeds=[3])
    assert len(rows) == 1
    assert len(aggregates) == 1
    assert rows[0].split(",")[4] == "3"


def test_ratio_sweep_needs_seeds():
    with pytest.raises(ValueError):
        run_ratio_sweep(tiny_cfg(), [(1.0, 0.0, 0.0)], seeds=[])


def test_class_split_reports_four_subset_maps():
    cfg = tiny_cfg(iterations=400, n_test_images=24)
    result = run_class_split(cfg)
    assert sorted(result["classes_fs"] + result["classes_ws"]) == list(range(6))
    for arm in ("separate", "joint"):
        for half in ("fs_half", "ws_half"):
            assert 0.0 <= result[arm][half] <= 1.0 or np.isnan(result[arm][half])


def test_class_split_deterministic():
    cfg = tiny_cfg(iterations=200, n_test_images=16)
    a = run_class_split(cfg)
    b = run_class_split(cfg)
    assert a == b


def test_permute_labels_breaks_association_but_keeps_marginals():
    images = generate_world(TINY_WORLD)
    permuted = permute_labels(images, seed=0)
    old = sorted(t.hoi_class for im in images for t in im.gt_triplets)
    new = sorted(t.hoi_class for im in permuted for t in im.gt_triplets)
    assert old == new
    changed = sum(
        1
        for a, b in zip(images, permuted)
        for ta, tb in zip(a.gt_triplets, b.gt_triplets)
        if ta.hoi_class != tb.hoi_class
    )
    assert changed > 0
    for im in permuted:
        assert im.image_labels == frozenset(t.hoi_class for t in im.gt_triplets)


def test_permute_labels_shuffles_weak_image_labels():
    tagged = split_supervision(generate_world(TINY_WORLD), 0.5, 0.5, 0.0, seed=0)
    permuted = permute_labels(tagged, seed=0)
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
    strong = [im for im in tagged if im.supervision != SupervisionTag.WS]
    assert [im.gt_triplets for im in permute_labels(strong, seed=0)] == [
        im.gt_triplets for im in permuted if im.supervision != SupervisionTag.WS
    ]


def test_us_images_excluded_until_pseudo_labeled():
    cfg = tiny_cfg(ws_fraction=0.4, fs_fraction=0.3, us_fraction=0.3)
    tagged, _, _ = prepare_world(cfg)
    result = train(tagged, cfg)
    tags = {tag for _, tag, _ in result.log.losses}
    assert "US" not in tags


CLI = [sys.executable, "-m", "hoimix.cli"]
SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def cli_config(tmp_path):
    cfg = tiny_cfg(iterations=120, n_test_images=8)
    path = tmp_path / "config.json"
    save_config(cfg, path)
    return path


def run_cli(args, cwd):
    # the child runs in cwd, so a relative PYTHONPATH would no longer find
    # the package: put the absolute src directory first
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC_DIR, env.get("PYTHONPATH")]))
    return subprocess.run(CLI + args, capture_output=True, text=True, cwd=cwd, env=env)


def test_cli_gen_world_train_eval(tmp_path):
    cfg_path = cli_config(tmp_path)
    gen = run_cli(["gen-world", "--config", str(cfg_path), "--out-dir", str(tmp_path / "w")], tmp_path)
    assert gen.returncode == 0, gen.stderr
    dataset = tmp_path / "w" / "dataset.jsonl"
    assert dataset.exists()
    record = json.loads(dataset.read_text().splitlines()[0])
    assert {"image_id", "supervision", "detections", "gt_triplets", "image_labels"} <= set(record)

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


def test_cli_nonzero_exit_on_bad_input(tmp_path):
    bad = run_cli(["train", "--config", str(tmp_path / "missing.json")], tmp_path)
    assert bad.returncode == 1
    assert "error:" in bad.stderr


def test_cli_bad_ratio_rejected(tmp_path):
    cfg_path = cli_config(tmp_path)
    bad = run_cli(["train", "--config", str(cfg_path), "--ratio", "80/40"], tmp_path)
    assert bad.returncode == 1
