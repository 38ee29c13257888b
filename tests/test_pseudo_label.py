import json

import numpy as np
import pytest

from hoimix.batching import build_pairs
from hoimix.experiment import ExperimentConfig, prepare_world
from hoimix.model import ModelParams
from hoimix.pseudo_label import (
    dump_pseudo_triplets,
    iterate_cycles,
    select_label_argmax_triplets,
    threshold_triplets,
    us_to_pseudo_fs,
    ws_to_pseudo_fs,
)
from hoimix.supervision import SupervisionTag
from hoimix.synth_world import WorldConfig, generate_world, split_supervision

SMALL = WorldConfig(
    n_object_classes=3, n_verb_classes=2, n_hoi_classes=6, n_images=60, seed=21
)


def small_cfg(**overrides):
    base = dict(
        world=SMALL,
        ws_fraction=0.3,
        fs_fraction=0.4,
        us_fraction=0.3,
        iterations=600,
        n_test_images=16,
        pseudo_cycles=2,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def pairs_of(image):
    return build_pairs(image, SMALL.feature_dim)


def test_argmax_selection_per_label():
    images = generate_world(SMALL)
    pairs = pairs_of(images[0])
    P = np.zeros((len(pairs), 6))
    P[:, 2] = np.linspace(0.1, 0.9, len(pairs))
    P[0, 4] = 0.7
    out = select_label_argmax_triplets(P, {2, 4}, pairs)
    assert len(out) == 2
    assert out[0].hoi_class == 2
    assert out[0].human_box == pairs[-1].human.box  # argmax of column 2
    assert out[1].hoi_class == 4
    assert out[1].human_box == pairs[0].human.box


def test_argmax_ties_break_to_lowest_pair_index():
    images = generate_world(SMALL)
    pairs = pairs_of(images[0])
    P = np.full((len(pairs), 6), 0.5)
    out = select_label_argmax_triplets(P, {1}, pairs)
    assert out[0].human_box == pairs[0].human.box
    assert out[0].object_box == pairs[0].object.box


def test_ws_to_pseudo_fs_emits_one_triplet_per_label():
    images = split_supervision(generate_world(SMALL), 1.0, 0.0, 0.0, seed=0)
    params = ModelParams.init(SMALL.feature_dim, 16, 6, seed=1)
    for image in images[:10]:
        out = ws_to_pseudo_fs(params, image, feature_dim=SMALL.feature_dim)
        assert len(out) == len(image.image_labels)
        assert {t.hoi_class for t in out} == set(image.image_labels)


def test_pseudo_boxes_come_from_image_detections():
    images = split_supervision(generate_world(SMALL), 1.0, 0.0, 0.0, seed=0)
    params = ModelParams.init(SMALL.feature_dim, 16, 6, seed=1)
    for image in images[:10]:
        human_boxes = {d.box for d in image.human_detections}
        object_boxes = {d.box for d in image.object_detections}
        for t in ws_to_pseudo_fs(params, image, feature_dim=SMALL.feature_dim):
            assert t.human_box in human_boxes
            assert t.object_box in object_boxes


def test_threshold_triplets_strictly_above():
    images = generate_world(SMALL)
    pairs = pairs_of(images[0])
    P = np.zeros((len(pairs), 6))
    P[0, 1] = 0.5
    P[1, 2] = 0.50001
    assert threshold_triplets(P, 0.5, pairs) == [
        type(images[0].gt_triplets[0])(pairs[1].human.box, pairs[1].object.box, 2)
    ]


def test_threshold_all_below_gives_empty():
    images = generate_world(SMALL)
    pairs = pairs_of(images[0])
    assert threshold_triplets(np.full((len(pairs), 6), 0.4), 0.5, pairs) == []


def test_threshold_boundaries_rejected():
    images = generate_world(SMALL)
    pairs = pairs_of(images[0])
    P = np.zeros((len(pairs), 6))
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            threshold_triplets(P, bad, pairs)


def test_us_output_monotone_in_threshold():
    images = split_supervision(generate_world(SMALL), 0.0, 0.5, 0.5, seed=0)
    us_images = [im for im in images if im.supervision == SupervisionTag.US]
    params = ModelParams.init(SMALL.feature_dim, 16, 6, seed=2)
    rng = np.random.default_rng(0)
    for image in us_images[:8]:
        thresholds = sorted(rng.uniform(0.01, 0.99, size=4))
        sizes = [
            len(us_to_pseudo_fs(params, image, t, feature_dim=SMALL.feature_dim))
            for t in thresholds
        ]
        assert sizes == sorted(sizes, reverse=True)


def test_pseudo_dump_format(tmp_path):
    images = split_supervision(generate_world(SMALL), 1.0, 0.0, 0.0, seed=0)
    params = ModelParams.init(SMALL.feature_dim, 16, 6, seed=1)
    pseudo = {
        im.image_id: ws_to_pseudo_fs(params, im, feature_dim=SMALL.feature_dim)
        for im in images[:3]
    }
    path = tmp_path / "pseudo.jsonl"
    dump_pseudo_triplets(path, pseudo)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 3
    record = json.loads(lines[0])
    assert record["pseudo"] is True
    assert {"h_box", "o_box", "hoi_class"} <= set(record["gt_triplets"][0])


def test_failed_dump_keeps_the_previous_file(tmp_path):
    images = split_supervision(generate_world(SMALL), 1.0, 0.0, 0.0, seed=0)
    params = ModelParams.init(SMALL.feature_dim, 16, 6, seed=1)
    pseudo = {
        im.image_id: ws_to_pseudo_fs(params, im, feature_dim=SMALL.feature_dim)
        for im in images[:4]
    }
    path = tmp_path / "pseudo.jsonl"
    dump_pseudo_triplets(path, {k: pseudo[k] for k in list(pseudo)[:2]})
    before = path.read_bytes()
    # the last record is not a triplet, so the dump raises after writing the others
    with pytest.raises(AttributeError):
        dump_pseudo_triplets(path, {**pseudo, 10**9: [None]})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["pseudo.jsonl"]


def test_iterate_cycles_reports_and_early_stops():
    cfg = small_cfg()
    tagged, test_images, rare_ids = prepare_world(cfg)
    params, reports, base = iterate_cycles(
        tagged, cfg, 3, mode="unlabeled", test_images=test_images, rare_ids=rare_ids
    )
    assert 1 <= len(reports) <= 3
    assert all(np.isfinite(r.map_full) for r in reports)
    assert reports[0].cycle == 1
    if len(reports) < 3:
        assert reports[-1].converged
    # converged flag implies the pseudo sets reached a fixed point; rerunning
    # one more cycle from the same state must not change the labels
    if reports[-1].converged and len(reports) >= 2:
        assert reports[-1].n_pseudo == reports[-1].n_pseudo


def test_each_cycle_trains_and_evaluates_once_through_fit(monkeypatch):
    import hoimix.experiment as experiment

    calls = []

    def counting(name):
        real = getattr(experiment, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return wrapper

    for name in ("train", "evaluate"):
        monkeypatch.setattr(experiment, name, counting(name))
    cfg = small_cfg()
    tagged, test_images, rare_ids = prepare_world(cfg)
    _, reports, _ = iterate_cycles(
        tagged, cfg, 2, mode="unlabeled", test_images=test_images, rare_ids=rare_ids
    )
    assert calls == ["train", "evaluate"] * (1 + len(reports))


def test_iterate_cycles_multistage_mode():
    cfg = small_cfg(ws_fraction=0.5, fs_fraction=0.5, us_fraction=0.0)
    tagged, test_images, rare_ids = prepare_world(cfg)
    params, reports, base = iterate_cycles(
        tagged, cfg, 2, mode="multistage", test_images=test_images, rare_ids=rare_ids
    )
    assert len(reports) >= 1
    ws_count = sum(1 for im in tagged if im.supervision == SupervisionTag.WS)
    labels = sum(len(im.image_labels) for im in tagged if im.supervision == SupervisionTag.WS)
    # the multistage baseline pseudo-labels every weak image, one triplet per label
    assert reports[0].n_pseudo == labels
    assert ws_count > 0


def test_iterate_cycles_validates_input():
    cfg = small_cfg()
    tagged, test_images, rare_ids = prepare_world(cfg)
    with pytest.raises(ValueError):
        iterate_cycles(tagged, cfg, 0, test_images=test_images, rare_ids=rare_ids)
    with pytest.raises(ValueError):
        iterate_cycles(tagged, cfg, 1, mode="bogus", test_images=test_images, rare_ids=rare_ids)


def test_single_cycle_equals_one_retraining_with_initial_labels():
    cfg = small_cfg()
    tagged, test_images, rare_ids = prepare_world(cfg)
    params_a, reports_a, _ = iterate_cycles(
        tagged, cfg, 1, mode="unlabeled", test_images=test_images, rare_ids=rare_ids
    )
    params_b, reports_b, _ = iterate_cycles(
        tagged, cfg, 3, mode="unlabeled", test_images=test_images, rare_ids=rare_ids
    )
    # cycle 1 is identical regardless of how many further cycles follow
    assert reports_a[0].map_full == reports_b[0].map_full
    assert reports_a[0].n_pseudo == reports_b[0].n_pseudo
