import collections
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoimix.supervision import SupervisionTag
from hoimix.synth_world import (
    Detection,
    SynthImage,
    WorldConfig,
    WorldGenerationError,
    feature_layout,
    generate_eval_images,
    generate_world,
    image_to_record,
    load_dataset,
    pair_features,
    rare_classes,
    save_dataset,
    split_supervision,
)

SMALL = WorldConfig(
    n_object_classes=4,
    n_verb_classes=3,
    n_hoi_classes=12,
    n_images=80,
    seed=11,
)


def dataset_bytes(images, cfg):
    return "\n".join(
        json.dumps(image_to_record(im, cfg.human_class_id), sort_keys=True) for im in images
    )


def test_generation_is_deterministic():
    a = generate_world(SMALL)
    b = generate_world(SMALL)
    assert dataset_bytes(a, SMALL) == dataset_bytes(b, SMALL)


def test_different_seed_changes_world():
    a = generate_world(SMALL)
    b = generate_world(WorldConfig(**{**SMALL.__dict__, "seed": 12}))
    assert dataset_bytes(a, SMALL) != dataset_bytes(b, SMALL)


def test_rare_fraction_honored_exactly():
    images = generate_world(SMALL)
    counts = collections.Counter(c for im in images for c in im.image_labels)
    rare = rare_classes(images)
    assert len(rare) == round(SMALL.rare_class_fraction * SMALL.n_hoi_classes)
    for c in range(SMALL.n_hoi_classes):
        if c in rare:
            assert 0 < counts[c] < 10
        else:
            assert counts[c] >= 10


def test_paper_scale_rare_split():
    # 600 interaction classes at fraction 0.23 -> exactly 138 rare classes
    cfg = WorldConfig(
        n_object_classes=80,
        n_verb_classes=8,
        n_hoi_classes=600,
        n_images=2600,
        objects_per_image=(1, 3),
        rare_class_fraction=0.23,
        seed=1,
    )
    images = generate_world(cfg)
    assert len(rare_classes(images)) == 138


def test_range_collapse_gives_exact_counts():
    cfg = WorldConfig(
        n_object_classes=3,
        n_verb_classes=2,
        n_hoi_classes=6,
        n_images=70,
        humans_per_image=(1, 1),
        objects_per_image=(1, 1),
        seed=2,
    )
    for image in generate_world(cfg):
        assert len(image.gt_triplets) == 1
        gt_humans = 1
        gt_objects = 1
        # detections beyond the ground-truth-backed ones are distractors
        assert len(image.human_detections) + len(image.object_detections) >= gt_humans + gt_objects
        assert len(image.human_detections) >= 1
        assert len(image.object_detections) >= 1


def test_infeasible_config_names_a_field():
    with pytest.raises(WorldGenerationError) as err:
        generate_world(
            WorldConfig(n_object_classes=4, n_verb_classes=3, n_hoi_classes=12, n_images=20, seed=0)
        )
    assert "n_images" in str(err.value)


def test_invalid_configs_rejected():
    with pytest.raises(WorldGenerationError):
        WorldConfig(n_hoi_classes=30, n_object_classes=4, n_verb_classes=3)
    with pytest.raises(WorldGenerationError):
        WorldConfig(feature_dim=3)
    with pytest.raises(WorldGenerationError):
        WorldConfig(humans_per_image=(2, 1))
    with pytest.raises(WorldGenerationError):
        WorldConfig(rare_class_fraction=1.0)


def test_gt_classes_in_range_and_labels_match():
    for image in generate_world(SMALL):
        for t in image.gt_triplets:
            assert 0 <= t.hoi_class < SMALL.n_hoi_classes
        assert image.image_labels == frozenset(t.hoi_class for t in image.gt_triplets)


def test_feature_layout_partitions_dimension():
    for dim in range(4, 40):
        app, spatial, pad = feature_layout(dim)
        assert app >= 1 and spatial >= 2 and pad >= 0
        assert 2 * app + spatial + pad == dim


def test_features_deterministic_and_correct_dim():
    images = generate_world(SMALL)
    im = images[0]
    human = im.human_detections[0]
    obj = im.object_detections[0]
    f1 = pair_features(human, obj, SMALL.feature_dim)
    f2 = pair_features(human, obj, SMALL.feature_dim)
    np.testing.assert_array_equal(f1, f2)
    assert f1.shape == (SMALL.feature_dim,)


def test_feature_noise_bounded_for_same_class_detections():
    # two detections with identical class differ only by their noise draws;
    # the fixed seed makes the 3-sigma-per-draw bound deterministic here
    cfg = WorldConfig(
        n_object_classes=2,
        n_verb_classes=2,
        n_hoi_classes=4,
        n_images=400,
        humans_per_image=(1, 1),
        objects_per_image=(1, 1),
        seed=3,
    )
    images = generate_world(cfg)
    by_class = collections.defaultdict(list)
    for im in images:
        for det in im.object_detections:
            by_class[det.class_id].append(det.appearance)
    checked = 0
    for apps in by_class.values():
        for k in range(len(apps) - 1):
            diff = np.abs(apps[k] - apps[k + 1])
            assert np.all(diff <= 6 * cfg.feature_noise_sigma)
            checked += 1
    assert checked >= 1000


def test_swapped_pair_layout_uses_boxes_as_is():
    images = generate_world(SMALL)
    h = images[0].human_detections[0]
    o = images[1].object_detections[0]
    cross = pair_features(h, o, SMALL.feature_dim)
    app, spatial, _ = feature_layout(SMALL.feature_dim)
    same_human_other_object = pair_features(h, images[0].object_detections[0], SMALL.feature_dim)
    np.testing.assert_array_equal(cross[:app], same_human_other_object[:app])
    assert not np.array_equal(cross[2 * app :], same_human_other_object[2 * app :])


def test_appearance_dim_mismatch_rejected():
    images = generate_world(SMALL)
    h = images[0].human_detections[0]
    o = images[0].object_detections[0]
    with pytest.raises(ValueError):
        pair_features(h, o, SMALL.feature_dim + 2)


def test_split_fractions_with_rounding():
    images = generate_world(SMALL)
    tagged = split_supervision(images, 0.7, 0.3, 0.0, seed=5)
    counts = collections.Counter(im.supervision for im in tagged)
    assert abs(counts[SupervisionTag.WS] - 0.7 * len(images)) <= 1
    assert abs(counts[SupervisionTag.FS] - 0.3 * len(images)) <= 1
    assert counts[SupervisionTag.US] == 0


SMALL_WORLD = generate_world(SMALL)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(0, SMALL.n_images),
    cuts=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_split_counts_are_within_one_of_their_fractions(n, cuts, seed):
    low, high = sorted(cuts)
    fractions = (low, high - low, 1.0 - high)
    tagged = split_supervision(SMALL_WORLD[:n], *fractions, seed=seed)
    counts = collections.Counter(im.supervision for im in tagged)
    for tag, fraction in zip((SupervisionTag.WS, SupervisionTag.FS, SupervisionTag.US), fractions):
        assert abs(counts[tag] - fraction * n) <= 1
    assert sum(counts.values()) == n


def test_split_all_fs():
    images = generate_world(SMALL)
    tagged = split_supervision(images, 0.0, 1.0, 0.0, seed=5)
    assert all(im.supervision == SupervisionTag.FS for im in tagged)
    assert all(im.gt_triplets for im in tagged)


def test_three_way_split():
    images = generate_world(SMALL)
    tagged = split_supervision(images, 0.3, 0.4, 0.3, seed=5)
    counts = collections.Counter(im.supervision for im in tagged)
    assert abs(counts[SupervisionTag.WS] - 24) <= 1
    assert abs(counts[SupervisionTag.FS] - 32) <= 1
    assert abs(counts[SupervisionTag.US] - 24) <= 1


def test_split_strips_annotations_per_tag():
    images = generate_world(SMALL)
    tagged = split_supervision(images, 0.4, 0.3, 0.3, seed=6)
    for im in tagged:
        if im.supervision == SupervisionTag.WS:
            assert im.gt_triplets == () and im.image_labels
        elif im.supervision == SupervisionTag.US:
            assert im.gt_triplets == () and im.image_labels == frozenset()
        else:
            assert im.gt_triplets


def test_split_rejects_bad_fractions():
    images = generate_world(SMALL)
    with pytest.raises(ValueError):
        split_supervision(images, 0.5, 0.6, 0.0, seed=0)
    with pytest.raises(ValueError):
        split_supervision(images, -0.1, 1.1, 0.0, seed=0)


def test_split_is_deterministic():
    images = generate_world(SMALL)
    a = split_supervision(images, 0.5, 0.5, 0.0, seed=9)
    b = split_supervision(images, 0.5, 0.5, 0.0, seed=9)
    assert [im.supervision for im in a] == [im.supervision for im in b]


def test_eval_images_share_latent_structure_and_cover_classes():
    train = generate_world(SMALL)
    test = generate_eval_images(SMALL, 40)
    assert {im.image_id for im in test}.isdisjoint({im.image_id for im in train})
    covered = set()
    for im in test:
        covered |= im.image_labels
    assert len(covered) == SMALL.n_hoi_classes
    # same class id -> same appearance prototype across train and test:
    # noisy appearance vectors of one class must cluster around one point
    train_means = {}
    for im in train:
        for det in im.object_detections:
            train_means.setdefault(det.class_id, []).append(det.appearance)
    for im in test:
        for det in im.object_detections:
            mean = np.mean(train_means[det.class_id], axis=0)
            assert np.linalg.norm(det.appearance - mean) < 1.0


def test_jsonl_roundtrip_preserves_everything(tmp_path):
    images = split_supervision(generate_world(SMALL), 0.5, 0.3, 0.2, seed=1)
    path = tmp_path / "dataset.jsonl"
    save_dataset(images, path, SMALL.human_class_id)
    loaded = load_dataset(path)
    assert dataset_bytes(loaded, SMALL) == dataset_bytes(images, SMALL)
    save_dataset(loaded, tmp_path / "again.jsonl", SMALL.human_class_id)
    assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()


def test_failed_save_keeps_the_previous_dataset(tmp_path):
    images = generate_world(SMALL)
    path = tmp_path / "dataset.jsonl"
    save_dataset(images[:5], path, SMALL.human_class_id)
    before = path.read_bytes()
    # the last entry is not an image, so the save raises after writing the others
    with pytest.raises(AttributeError):
        save_dataset(images[:3] + [None], path, SMALL.human_class_id)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["dataset.jsonl"]


def test_record_fields_match_format_contract(tmp_path):
    images = generate_world(SMALL)
    path = tmp_path / "dataset.jsonl"
    save_dataset(images, path, SMALL.human_class_id)
    with open(path) as fh:
        record = json.loads(fh.readline())
    assert {"image_id", "supervision", "detections", "gt_triplets", "image_labels"} <= set(record)
    det = record["detections"][0]
    assert {"box", "class_id", "confidence"} <= set(det)
    assert len(det["box"]) == 4
    trip = record["gt_triplets"][0]
    assert {"h_box", "o_box", "hoi_class"} <= set(trip)


def test_every_image_has_detections_and_valid_confidence():
    for im in generate_world(SMALL):
        for det in list(im.human_detections) + list(im.object_detections):
            assert 0.0 < det.confidence <= 1.0
            assert det.box.area > 0


def test_detection_confidence_validated():
    images = generate_world(SMALL)
    det = images[0].human_detections[0]
    with pytest.raises(ValueError):
        Detection(box=det.box, class_id=0, confidence=0.0, appearance=det.appearance)


def test_image_requires_detections():
    images = generate_world(SMALL)
    im = images[0]
    with pytest.raises(ValueError):
        SynthImage(
            image_id=1,
            human_detections=(),
            object_detections=im.object_detections,
            gt_triplets=(),
            image_labels=frozenset(),
        )
