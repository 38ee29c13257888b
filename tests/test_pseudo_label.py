import hashlib
import json
import os

import numpy as np
import pytest

from hoimix.batching import pair_grids
from hoimix.checkpoint import write_outputs
from hoimix.experiment import ExperimentConfig, prepare_world
from hoimix.model import ModelParams
from hoimix.pseudo_label import (
    iterate_cycles,
    pseudo_triplet_lines,
    same_pseudo_labels,
    select_label_argmax_triplets,
    threshold_triplets,
    us_to_pseudo_fs,
    ws_to_pseudo_fs,
)
from hoimix.supervision import SupervisionTag
from hoimix.synth_world import TripletArrays, WorldConfig, generate_world, split_supervision, stack_triplets

from box_reference import Box, GroundTruthTriplet, triplet_objects
from experiment_helpers import record_preparations
from image_reference import images_of, world_of

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


def grid_of(image):
    return pair_grids(world_of([image], SMALL.n_hoi_classes), [0], SMALL.feature_dim).image(0)


def human_box(grid, i):
    return Box.from_list(grid.human_boxes[i])


def object_box(grid, i):
    return Box.from_list(grid.object_boxes[i])


def test_argmax_selection_per_label():
    grid = grid_of(images_of(generate_world(SMALL))[0])
    n = len(grid.features)
    P = np.zeros((n, 6))
    P[:, 2] = np.linspace(0.1, 0.9, n)
    P[0, 4] = 0.7
    out = triplet_objects(select_label_argmax_triplets(P, {2, 4}, grid))
    assert len(out) == 2
    assert out[0].hoi_class == 2
    assert out[0].human_box == human_box(grid, -1)  # argmax of column 2
    assert out[1].hoi_class == 4
    assert out[1].human_box == human_box(grid, 0)


def test_argmax_ties_break_to_lowest_pair_index():
    grid = grid_of(images_of(generate_world(SMALL))[0])
    P = np.full((len(grid.features), 6), 0.5)
    out = triplet_objects(select_label_argmax_triplets(P, {1}, grid))
    assert out[0].human_box == human_box(grid, 0)
    assert out[0].object_box == object_box(grid, 0)


def test_ws_to_pseudo_fs_emits_one_triplet_per_label():
    images = images_of(split_supervision(generate_world(SMALL), 1.0, 0.0, 0.0, seed=0))
    params = ModelParams.init(SMALL.feature_dim, 16, 6, seed=1)
    for image in images[:10]:
        out = ws_to_pseudo_fs(params, image.image_labels, grid_of(image))
        assert len(out) == len(image.image_labels)
        assert set(out.hoi_classes.tolist()) == set(image.image_labels)


def test_pseudo_boxes_come_from_image_detections():
    images = images_of(split_supervision(generate_world(SMALL), 1.0, 0.0, 0.0, seed=0))
    params = ModelParams.init(SMALL.feature_dim, 16, 6, seed=1)
    for image in images[:10]:
        human_boxes = {Box.from_list(b) for b in image.humans.boxes}
        object_boxes = {Box.from_list(b) for b in image.objects.boxes}
        for t in triplet_objects(ws_to_pseudo_fs(params, image.image_labels, grid_of(image))):
            assert t.human_box in human_boxes
            assert t.object_box in object_boxes


def test_threshold_triplets_strictly_above():
    grid = grid_of(images_of(generate_world(SMALL))[0])
    P = np.zeros((len(grid.features), 6))
    P[0, 1] = 0.5
    P[1, 2] = 0.50001
    assert triplet_objects(threshold_triplets(P, 0.5, grid)) == (
        GroundTruthTriplet(human_box(grid, 1), object_box(grid, 1), 2),
    )


def test_threshold_all_below_gives_empty():
    grid = grid_of(images_of(generate_world(SMALL))[0])
    assert len(threshold_triplets(np.full((len(grid.features), 6), 0.4), 0.5, grid)) == 0


def test_threshold_boundaries_rejected():
    grid = grid_of(images_of(generate_world(SMALL))[0])
    P = np.zeros((len(grid.features), 6))
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            threshold_triplets(P, bad, grid)


def test_us_output_monotone_in_threshold():
    images = split_supervision(generate_world(SMALL), 0.0, 0.5, 0.5, seed=0)
    us_images = [im for im in images_of(images) if im.supervision == SupervisionTag.US]
    params = ModelParams.init(SMALL.feature_dim, 16, 6, seed=2)
    rng = np.random.default_rng(0)
    for image in us_images[:8]:
        thresholds = sorted(rng.uniform(0.01, 0.99, size=4))
        sizes = [
            len(us_to_pseudo_fs(params, grid_of(image), t))
            for t in thresholds
        ]
        assert sizes == sorted(sizes, reverse=True)


WS_WORLD = split_supervision(generate_world(SMALL), 1.0, 0.0, 0.0, seed=0)


def ws_pseudo_labels(n_images):
    """Fresh pseudo triplets of the first n_images of WS_WORLD, one per label."""
    params = ModelParams.init(SMALL.feature_dim, 16, 6, seed=1)
    return [
        ws_to_pseudo_fs(params, im.image_labels, grid_of(im)) for im in images_of(WS_WORLD)[:n_images]
    ]


def test_pseudo_dump_format(tmp_path):
    # images 1, 3 and 4 have pseudo labels; WS images have no other triplets
    parts = ws_pseudo_labels(5)
    world = WS_WORLD.with_triplets([1, 3, 4], [parts[1], parts[3], parts[4]])
    write_outputs(tmp_path, {"pseudo.jsonl": pseudo_triplet_lines(world, np.arange(len(world)))})
    records = [json.loads(line) for line in (tmp_path / "pseudo.jsonl").read_text().splitlines()]
    assert [r["image_id"] for r in records] == WS_WORLD.image_ids[[1, 3, 4]].tolist()
    record = records[0]
    assert record["pseudo"] is True
    assert {"h_box", "o_box", "hoi_class"} <= set(record["gt_triplets"][0])
    image = images_of(world)[1]
    assert [t["hoi_class"] for t in record["gt_triplets"]] == image.gt_triplets.hoi_classes.tolist()
    assert [t["h_box"] for t in record["gt_triplets"]] == image.gt_triplets.human_boxes.tolist()


def test_failed_dump_keeps_the_previous_file(tmp_path):
    world = WS_WORLD.with_triplets(range(4), ws_pseudo_labels(4))
    path = tmp_path / "pseudo.jsonl"
    write_outputs(tmp_path, {"pseudo.jsonl": pseudo_triplet_lines(world, [0, 1])})
    before = path.read_bytes()
    # the last image is not in the world, so the lines raise after the others are written
    with pytest.raises(IndexError):
        write_outputs(tmp_path, {"pseudo.jsonl": pseudo_triplet_lines(world, [0, 1, 2, 3, len(world)])})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["pseudo.jsonl"]


def test_iterate_cycles_reports_and_early_stops(monkeypatch):
    import hoimix.pseudo_label as pseudo_label

    labelled = []

    def recording(params, grid, threshold):
        out = us_to_pseudo_fs(params, grid, threshold)
        labelled.append((int(grid.image_ids[0]), triplet_objects(out)))
        return out

    monkeypatch.setattr(pseudo_label, "us_to_pseudo_fs", recording)
    cfg = small_cfg()
    tagged, test_images, rare_ids = prepare_world(cfg)
    params, reports, base = iterate_cycles(
        tagged, cfg, 3, mode="unlabeled", test_images=test_images, rare_ids=rare_ids
    )
    assert 1 <= len(reports) <= 3
    assert all(np.isfinite(r.map_full) for r in reports)
    assert [r.cycle for r in reports] == list(range(1, len(reports) + 1))
    if len(reports) < 3:
        assert reports[-1].converged
    # one relabelling after the base fit and after each cycle's fit; a cycle
    # trains on the labels before it and has converged iff the labels after
    # it equal them, compared here as triplet objects
    n_sources = np.count_nonzero(tagged.supervision == SupervisionTag.US.code)
    assert len(labelled) == n_sources * (1 + len(reports))
    sets = [
        {i: t for i, t in labelled[k : k + n_sources] if t}
        for k in range(0, len(labelled), n_sources)
    ]
    for report, before, after in zip(reports, sets, sets[1:]):
        assert report.n_pseudo == sum(len(t) for t in before.values())
        assert report.converged == (after == before)


def test_equal_pseudo_label_sets_compare_by_value():
    parts = ws_pseudo_labels(4)
    pseudo = WS_WORLD.with_triplets(range(4), parts)
    again = WS_WORLD.with_triplets(range(4), ws_pseudo_labels(4))
    assert again.triplets.human_boxes is not pseudo.triplets.human_boxes
    assert same_pseudo_labels(pseudo, again) and same_pseudo_labels(again, pseudo)
    # no image has pseudo labels in either
    assert same_pseudo_labels(WS_WORLD, WS_WORLD.with_triplets([], []))
    assert not same_pseudo_labels(WS_WORLD, pseudo)

    def changed(k, triplets):
        """The pseudo labels with image k's replaced by triplets."""
        return WS_WORLD.with_triplets(range(4), [triplets if j == k else t for j, t in enumerate(parts)])

    t = parts[2]
    assert len(t) > 1
    moved = TripletArrays(t.human_boxes, t.object_boxes.copy(), t.hoi_classes)
    moved.object_boxes[0, 2] += 1e-9
    relabelled = TripletArrays(t.human_boxes, t.object_boxes, (t.hoi_classes + 1) % 6)
    shorter = t.take(np.arange(len(t) - 1))
    fewer = WS_WORLD.with_triplets([0, 1, 3], [parts[0], parts[1], parts[3]])
    # the same rows in the same order, with image 2's last triplet on image 3
    shifted = WS_WORLD.with_triplets(
        range(4), [parts[0], parts[1], shorter, stack_triplets([t.take([-1]), parts[3]])]
    )
    assert shifted.triplets.hoi_classes.tolist() == pseudo.triplets.hoi_classes.tolist()
    for other in (changed(2, moved), changed(2, relabelled), changed(2, shorter), fewer, shifted):
        assert not same_pseudo_labels(pseudo, other)
        assert not same_pseudo_labels(other, pseudo)


def test_iterate_cycles_prepares_one_test_set_for_all_its_fits(monkeypatch, tmp_path):
    preparations = record_preparations(monkeypatch, tmp_path / "preparations")
    cfg = small_cfg(iterations=200)
    tagged, test_images, rare_ids = prepare_world(cfg)
    _, reports, _ = iterate_cycles(
        tagged, cfg, 3, mode="unlabeled", test_images=test_images, rare_ids=rare_ids
    )
    assert len(reports) > 1
    assert preparations() == [os.getpid()]


def test_iterate_cycles_makes_a_missing_dump_dir(tmp_path):
    cfg = small_cfg(iterations=200)
    tagged, test_images, rare_ids = prepare_world(cfg)
    dump_dir = tmp_path / "missing" / "dumps"
    _, reports, _ = iterate_cycles(
        tagged, cfg, 2, test_images=test_images, rare_ids=rare_ids, dump_dir=str(dump_dir)
    )
    assert sorted(os.listdir(dump_dir)) == [f"pseudo_cycle_{r.cycle}.jsonl" for r in reports]


def test_a_dump_dir_that_cannot_be_made_fails_before_the_base_fit(monkeypatch, tmp_path):
    import hoimix.pseudo_label as pseudo_label

    def no_fit(*args, **kwargs):
        raise AssertionError("trained before the dump directory was made")

    monkeypatch.setattr(pseudo_label, "fit", no_fit)
    cfg = small_cfg(iterations=200)
    tagged, test_images, rare_ids = prepare_world(cfg)
    (tmp_path / "file").write_text("")
    dump_dir = tmp_path / "file" / "dumps"
    with pytest.raises(NotADirectoryError, match=str(dump_dir)):
        iterate_cycles(tagged, cfg, 1, test_images=test_images, rare_ids=rare_ids, dump_dir=str(dump_dir))


def test_iterate_cycles_converges_on_equal_but_separately_built_labels(monkeypatch):
    import hoimix.pseudo_label as pseudo_label

    runs = []
    real_fit = pseudo_label.fit

    def base_model_fit(*args, **kwargs):
        # every cycle gets the base model back, so each relabelling builds
        # new arrays holding the same pseudo labels
        if not runs:
            runs.append(real_fit(*args, **kwargs))
        return runs[0]

    monkeypatch.setattr(pseudo_label, "fit", base_model_fit)
    cfg = small_cfg()
    tagged, test_images, rare_ids = prepare_world(cfg)
    _, reports, _ = iterate_cycles(
        tagged, cfg, 3, mode="unlabeled", test_images=test_images, rare_ids=rare_ids
    )
    assert len(reports) == 1 and reports[0].converged and reports[0].n_pseudo > 0


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
    ws = tagged.supervision == SupervisionTag.WS.code
    ws_count, labels = np.count_nonzero(ws), np.count_nonzero(tagged.labels[ws])
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


@pytest.mark.parametrize("mode", ["unlabeled", "multistage"])
def test_iterate_cycles_builds_the_pseudo_source_grids_once(monkeypatch, mode):
    import hoimix.pseudo_label as pseudo_label

    built, relabelled = [], []
    real_pair_grids = pseudo_label.pair_grids

    def counting_pair_grids(world, images, *args, **kwargs):
        built.append(world.image_ids[images].tolist())
        return real_pair_grids(world, images, *args, **kwargs)

    def recording(real):
        def wrapper(params, *args):
            relabelled.append(args[-1 if real is ws_to_pseudo_fs else 0].image_ids.tolist())
            return real(params, *args)

        return wrapper

    monkeypatch.setattr(pseudo_label, "pair_grids", counting_pair_grids)
    monkeypatch.setattr(pseudo_label, "us_to_pseudo_fs", recording(us_to_pseudo_fs))
    monkeypatch.setattr(pseudo_label, "ws_to_pseudo_fs", recording(ws_to_pseudo_fs))
    cfg, source = small_cfg(), SupervisionTag.US
    if mode == "multistage":
        cfg = small_cfg(ws_fraction=0.5, fs_fraction=0.5, us_fraction=0.0)
        source = SupervisionTag.WS
    tagged, test_images, rare_ids = prepare_world(cfg)
    _, reports, _ = iterate_cycles(
        tagged, cfg, 2, mode=mode, test_images=test_images, rare_ids=rare_ids
    )
    sources = tagged.image_ids[tagged.supervision == source.code].tolist()
    # one set-level pass before the base fit; every relabelling reuses it
    assert built == [sources]
    assert relabelled == [[i] for i in sources] * (1 + len(reports))


# iterate_cycles(mode="multistage") on the default world at 50/50 with 800
# iterations and 3 cycles: the base map_full, the cycle reports, the sha256
# of the final params.flat and of each dump; recorded before the pseudo
# labels became triplet rows of a World (numpy 2.x + scipy-openblas 0.3.31
# on x86-64)
MULTISTAGE_BASE_MAP_FULL = 0.5683677637782556
MULTISTAGE_REPORTS = [
    "CycleReport(cycle=1, map_full=0.56905148750089, map_rare=0.41749558320616326, "
    "map_nonrare=0.619570122265799, n_pseudo=222, converged=False)",
    "CycleReport(cycle=2, map_full=0.5670262642661513, map_rare=0.4148212154584104, "
    "map_nonrare=0.6177612805353984, n_pseudo=222, converged=True)",
]
MULTISTAGE_PARAMS_SHA256 = "369c031e3967551c"
MULTISTAGE_DUMP_SHA256 = {
    "pseudo_cycle_1.jsonl": "1c65d6af7e3a1fa4",
    "pseudo_cycle_2.jsonl": "13718d7ed9b07904",
}


def test_multistage_cycles_are_pinned(tmp_path):
    cfg = ExperimentConfig(ws_fraction=0.5, fs_fraction=0.5, us_fraction=0.0, iterations=800)
    tagged, test_images, rare_ids = prepare_world(cfg)
    params, reports, base = iterate_cycles(
        tagged, cfg, 3, mode="multistage", test_images=test_images, rare_ids=rare_ids, dump_dir=tmp_path
    )
    assert base.map_full == MULTISTAGE_BASE_MAP_FULL
    assert [repr(r) for r in reports] == MULTISTAGE_REPORTS
    assert hashlib.sha256(params.flat.tobytes()).hexdigest()[:16] == MULTISTAGE_PARAMS_SHA256
    dumps = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16] for p in tmp_path.iterdir()}
    assert dumps == MULTISTAGE_DUMP_SHA256
