import collections
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoimix.batching import (
    ScheduleError,
    assemble_minibatch,
    batch_schedule,
    build_pairs,
    confidence_product,
    element_swap,
    make_fs_targets,
    make_ws_targets,
)
from hoimix.geometry import Box
from hoimix.supervision import SupervisionTag
from hoimix.synth_world import (
    Detection,
    GroundTruthTriplet,
    SynthImage,
    WorldConfig,
    feature_layout,
    generate_world,
    pair_features,
    split_supervision,
)

FEATURE_DIM = 23
APP_DIM = feature_layout(FEATURE_DIM)[0]


def det(x, y, class_id=0, confidence=0.9, size=0.1):
    rng = np.random.default_rng(int(x * 1000 + y * 7919) % (2**31))
    return Detection(
        box=Box(x, y, x + size, y + size),
        class_id=class_id,
        confidence=confidence,
        appearance=rng.normal(size=APP_DIM),
    )


def image(image_id, n_humans, n_objects, confs_h=None, confs_o=None, triplets=(), labels=None):
    humans = tuple(
        det(0.1 + 0.05 * k, 0.1, class_id=2, confidence=(confs_h or [0.9] * n_humans)[k])
        for k in range(n_humans)
    )
    objects = tuple(
        det(0.5 + 0.05 * k, 0.5, class_id=0, confidence=(confs_o or [0.8] * n_objects)[k])
        for k in range(n_objects)
    )
    return SynthImage(
        image_id=image_id,
        human_detections=humans,
        object_detections=objects,
        gt_triplets=tuple(triplets),
        image_labels=frozenset(labels if labels is not None else (t.hoi_class for t in triplets)),
        supervision=SupervisionTag.WS,
    )


def test_cross_product_count():
    pairs = build_pairs(image(0, 2, 3), FEATURE_DIM)
    assert len(pairs) == 6
    assert all(not p.swapped for p in pairs)
    assert all(p.source == (0, 0) for p in pairs)


def test_single_pair():
    pairs = build_pairs(image(0, 1, 1), FEATURE_DIM)
    assert len(pairs) == 1
    assert pairs[0].swapped is False


def test_top_k_truncates_per_class_by_confidence():
    im = image(0, 1, 5, confs_o=[0.5, 0.9, 0.7, 0.95, 0.6])
    pairs = build_pairs(im, FEATURE_DIM, top_k=2)
    kept = {p.object_index for p in pairs}
    assert kept == {1, 3}  # two most confident objects of the single class
    assert len(pairs) == 2


def test_top_k_is_per_class():
    humans = (det(0.1, 0.1, class_id=2, confidence=0.9),)
    objects = tuple(
        det(0.4 + 0.03 * k, 0.5, class_id=k % 2, confidence=0.5 + 0.1 * k) for k in range(4)
    )
    im = SynthImage(
        image_id=0,
        human_detections=humans,
        object_detections=objects,
        gt_triplets=(),
        image_labels=frozenset(),
        supervision=SupervisionTag.WS,
    )
    pairs = build_pairs(im, FEATURE_DIM, top_k=1)
    assert len(pairs) == 2  # one object kept per class
    assert {pairs[0].object.class_id, pairs[1].object.class_id} == {0, 1}


def test_element_swap_counting_exhaustive():
    for h1, o1, h2, o2 in itertools.product(range(1, 5), repeat=4):
        pairs1 = build_pairs(image(0, h1, o1), FEATURE_DIM)
        pairs2 = build_pairs(image(1, h2, o2), FEATURE_DIM)
        out = element_swap(pairs1, pairs2)
        assert len(out) == h1 * o1 + h2 * o2
        for p in out:
            assert p.swapped == (p.source[0] != p.source[1])


def test_element_swap_keeps_top_candidates_by_scorer():
    # single human and object per image with chosen confidences: the four
    # candidates rank by confidence product and the top two are kept
    im1 = image(0, 1, 1, confs_h=[0.9], confs_o=[0.5])
    im2 = image(1, 1, 1, confs_h=[0.6], confs_o=[0.95])
    pairs1 = build_pairs(im1, FEATURE_DIM)
    pairs2 = build_pairs(im2, FEATURE_DIM)
    out = element_swap(pairs1, pairs2)
    assert len(out) == 2
    scores = sorted(
        [0.9 * 0.5, 0.6 * 0.95, 0.9 * 0.95, 0.6 * 0.5], reverse=True
    )
    got = sorted((confidence_product(p) for p in out), reverse=True)
    assert got == pytest.approx(scores[:2])
    # the strongest candidate here is the swapped (h1, o2) pair
    best = max(out, key=confidence_product)
    assert best.swapped and best.source == (0, 1)


def test_element_swap_prefers_same_image_pairs_on_ties():
    im1 = image(0, 1, 1, confs_h=[0.8], confs_o=[0.8])
    im2 = image(1, 1, 1, confs_h=[0.8], confs_o=[0.8])
    out = element_swap(build_pairs(im1, FEATURE_DIM), build_pairs(im2, FEATURE_DIM))
    assert len(out) == 2
    assert all(not p.swapped for p in out)


# dyadic confidences, so that equal confidence products are exactly equal
confidence_lists = st.lists(st.sampled_from([0.25, 0.5, 0.75, 1.0]), min_size=1, max_size=4)


@settings(max_examples=200, deadline=None)
@given(h1=confidence_lists, o1=confidence_lists, h2=confidence_lists, o2=confidence_lists)
def test_element_swap_keeps_the_pair_count_and_same_image_pairs_first_on_ties(h1, o1, h2, o2):
    pairs1 = build_pairs(image(0, len(h1), len(o1), confs_h=h1, confs_o=o1), FEATURE_DIM)
    pairs2 = build_pairs(image(1, len(h2), len(o2), confs_h=h2, confs_o=o2), FEATURE_DIM)
    out = element_swap(pairs1, pairs2)
    assert len(out) == len(pairs1) + len(pairs2)
    for k, kept in enumerate(out):
        if kept.swapped:
            # every same-image pair tied with it is kept, and ahead of it
            ahead = {id(p) for p in out[:k]}
            tied = [p for p in pairs1 + pairs2 if confidence_product(p) == confidence_product(kept)]
            assert all(id(p) in ahead for p in tied)


def confident_swap_images():
    # image 0's humans and image 1's objects are confident, the rest are not:
    # every swapped (image-0 human, image-1 object) pair outranks every
    # same-image pair by confidence product
    im1 = image(0, 2, 1, confs_h=[0.9, 0.8], confs_o=[0.1])
    im2 = image(1, 1, 2, confs_h=[0.1], confs_o=[0.9, 0.8])
    return build_pairs(im1, FEATURE_DIM), build_pairs(im2, FEATURE_DIM)


def test_element_swap_confident_swapped_pairs_displace_originals():
    out = element_swap(*confident_swap_images())
    assert len(out) == 4
    assert all(p.swapped and p.source == (0, 1) for p in out)
    assert {(p.human_index, p.object_index) for p in out} == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_element_swap_rejects_empty_or_same_image():
    pairs = build_pairs(image(0, 1, 1), FEATURE_DIM)
    with pytest.raises(ValueError):
        element_swap(pairs, [])
    with pytest.raises(ValueError):
        element_swap(pairs, pairs)


def test_element_swap_features_recomputed_for_swapped_pairs():
    out = element_swap(*confident_swap_images())
    assert all(p.swapped for p in out)
    for p in out:
        assert p.features.shape == (FEATURE_DIM,)
        np.testing.assert_array_equal(p.features[:APP_DIM], p.human.appearance)
        np.testing.assert_array_equal(p.features, pair_features(p.human, p.object, FEATURE_DIM))


def triplet(hx, hy, ox, oy, hoi_class, size=0.1):
    return GroundTruthTriplet(
        Box(hx, hy, hx + size, hy + size), Box(ox, oy, ox + size, oy + size), hoi_class
    )


def test_fs_targets_exact_match_sets_single_column():
    im = image(0, 1, 1)
    pairs = build_pairs(im, FEATURE_DIM)
    gt = [GroundTruthTriplet(pairs[0].human.box, pairs[0].object.box, 7)]
    Y = make_fs_targets(pairs, gt, n_classes=10)
    assert Y.shape == (1, 10)
    assert Y[0, 7] == 1.0
    assert Y.sum() == 1.0


def test_fs_targets_min_rule_below_threshold():
    h = Box(0, 0, 10, 10)
    o = Box(0, 0, 10, 10)
    # human IoU 0.6 > 0.5, object IoU ~0.43 < 0.5 -> joint match fails
    h_gt = Box(0, 0, 10, 12.5)  # IoU 100/125 = 0.8 with h? area 125 -> 100/125 = 0.8
    o_gt = Box(0, 4, 10, 14)  # IoU = 60/140 ~ 0.43 with o
    app = np.zeros(APP_DIM)
    pair_h = Detection(box=h, class_id=2, confidence=0.9, appearance=app)
    pair_o = Detection(box=o, class_id=0, confidence=0.9, appearance=app)
    im = SynthImage(
        image_id=0,
        human_detections=(pair_h,),
        object_detections=(pair_o,),
        gt_triplets=(GroundTruthTriplet(h_gt, o_gt, 3),),
        image_labels=frozenset({3}),
        supervision=SupervisionTag.FS,
    )
    pairs = build_pairs(im, FEATURE_DIM)
    Y = make_fs_targets(pairs, im.gt_triplets, n_classes=5)
    assert Y.sum() == 0.0


def test_fs_targets_no_gt_gives_zero_matrix():
    pairs = build_pairs(image(0, 2, 2), FEATURE_DIM)
    Y = make_fs_targets(pairs, [], n_classes=6)
    assert Y.shape == (4, 6)
    assert Y.sum() == 0.0


def test_fs_targets_class_out_of_range_rejected():
    pairs = build_pairs(image(0, 1, 1), FEATURE_DIM)
    gt = [GroundTruthTriplet(pairs[0].human.box, pairs[0].object.box, 12)]
    with pytest.raises(ValueError):
        make_fs_targets(pairs, gt, n_classes=10)


def test_fs_targets_monotone_in_threshold():
    rng = np.random.default_rng(0)
    images = generate_world(
        WorldConfig(n_object_classes=3, n_verb_classes=2, n_hoi_classes=6, n_images=60, seed=4)
    )
    for im in images[:10]:
        pairs = build_pairs(im, FEATURE_DIM)
        thresholds = sorted(rng.uniform(0.1, 0.95, size=4))
        previous = None
        for t in thresholds:
            Y = make_fs_targets(pairs, im.gt_triplets, n_classes=6, iou_threshold=t)
            if previous is not None:
                assert np.all(Y <= previous)  # raising threshold never adds a 1
            previous = Y


def test_ws_targets_union_and_symmetry():
    y = make_ws_targets({3, 5}, {5, 9}, n_classes=12)
    assert set(np.nonzero(y)[0]) == {3, 5, 9}
    np.testing.assert_array_equal(y, make_ws_targets({5, 9}, {3, 5}, n_classes=12))


def test_ws_targets_empty_and_zero_class():
    np.testing.assert_array_equal(make_ws_targets(set(), set(), 4), np.zeros(4))
    y = make_ws_targets({0}, set(), 4)
    assert y[0] == 1.0 and y.sum() == 1.0


def test_schedule_pairs_groups_homogeneously():
    images = generate_world(
        WorldConfig(n_object_classes=3, n_verb_classes=2, n_hoi_classes=6, n_images=60, seed=5)
    )
    tagged = split_supervision(images, 0.5, 0.5, 0.0, seed=0)
    schedule = batch_schedule(tagged, seed=1)
    counts = collections.Counter(e.supervision for e in schedule.entries)
    assert counts[SupervisionTag.WS] == 15
    assert counts[SupervisionTag.FS] == 15
    assert schedule.leftovers == ()
    by_id = {im.image_id: im for im in tagged}
    for e in schedule.entries:
        assert by_id[e.image_a].supervision == by_id[e.image_b].supervision == e.supervision
        assert e.image_a != e.image_b


def test_schedule_deterministic_and_seed_sensitive():
    images = generate_world(
        WorldConfig(n_object_classes=3, n_verb_classes=2, n_hoi_classes=6, n_images=60, seed=5)
    )
    tagged = split_supervision(images, 0.5, 0.5, 0.0, seed=0)
    assert batch_schedule(tagged, seed=1) == batch_schedule(tagged, seed=1)
    assert batch_schedule(tagged, seed=1) != batch_schedule(tagged, seed=2)


def test_schedule_reports_leftover_for_odd_group():
    images = generate_world(
        WorldConfig(n_object_classes=3, n_verb_classes=2, n_hoi_classes=6, n_images=61, seed=5)
    )
    tagged = split_supervision(images, 0.0, 1.0, 0.0, seed=0)
    schedule = batch_schedule(tagged, seed=3)
    assert len(schedule.entries) == 30
    assert len(schedule.leftovers) == 1
    tag, leftover_id = schedule.leftovers[0]
    assert tag == SupervisionTag.FS
    scheduled = {e.image_a for e in schedule.entries} | {e.image_b for e in schedule.entries}
    assert leftover_id not in scheduled


def test_schedule_single_image_group_is_error():
    images = generate_world(
        WorldConfig(n_object_classes=3, n_verb_classes=2, n_hoi_classes=6, n_images=61, seed=5)
    )
    tagged = split_supervision(images, 0.0, 1.0, 0.0, seed=0)
    lone_ws = [
        tagged[0].__class__(**{**tagged[0].__dict__, "supervision": SupervisionTag.WS})
    ] + tagged[1:]
    with pytest.raises(ScheduleError):
        batch_schedule(lone_ws, seed=0)


def test_schedule_excludes_us_by_default():
    images = generate_world(
        WorldConfig(n_object_classes=3, n_verb_classes=2, n_hoi_classes=6, n_images=60, seed=5)
    )
    tagged = split_supervision(images, 0.4, 0.3, 0.3, seed=0)
    schedule = batch_schedule(tagged, seed=1)
    assert all(e.supervision != SupervisionTag.US for e in schedule.entries)


def test_assemble_ws_batch_with_swap():
    cfg = WorldConfig(n_object_classes=3, n_verb_classes=2, n_hoi_classes=6, n_images=60, seed=6)
    images = generate_world(cfg)
    tagged = split_supervision(images, 1.0, 0.0, 0.0, seed=0)
    a, b = tagged[0], tagged[1]
    batch = assemble_minibatch(
        a, b, n_classes=6, feature_dim=cfg.feature_dim, element_swap_enabled=True
    )
    assert batch.supervision == SupervisionTag.WS
    assert batch.ws_targets is not None and batch.fs_targets is None
    n_a = len(build_pairs(a, cfg.feature_dim))
    n_b = len(build_pairs(b, cfg.feature_dim))
    assert len(batch.pairs) == n_a + n_b
    assert batch.features.shape == (n_a + n_b, cfg.feature_dim)
    assert set(np.nonzero(batch.ws_targets)[0]) == set(a.image_labels | b.image_labels)


def test_assemble_fs_batch_matches_per_image_targets():
    cfg = WorldConfig(n_object_classes=3, n_verb_classes=2, n_hoi_classes=6, n_images=60, seed=6)
    images = generate_world(cfg)
    a, b = images[0], images[1]
    batch = assemble_minibatch(a, b, n_classes=6, feature_dim=cfg.feature_dim)
    assert batch.supervision == SupervisionTag.FS
    assert batch.fs_targets is not None and batch.ws_targets is None
    pairs_a = build_pairs(a, cfg.feature_dim)
    Y_a = make_fs_targets(pairs_a, a.gt_triplets, 6)
    np.testing.assert_array_equal(batch.fs_targets[: len(pairs_a)], Y_a)
    # pairs from image a are never matched against image b's ground truth
    pairs_b = build_pairs(b, cfg.feature_dim)
    Y_cross = make_fs_targets(pairs_a, b.gt_triplets, 6)
    assert batch.fs_targets[: len(pairs_a)].sum() == Y_a.sum()
    assert len(batch.pairs) == len(pairs_a) + len(pairs_b)


def test_assemble_rejects_mixed_supervision():
    cfg = WorldConfig(n_object_classes=3, n_verb_classes=2, n_hoi_classes=6, n_images=60, seed=6)
    images = generate_world(cfg)
    tagged = split_supervision(images, 0.5, 0.5, 0.0, seed=0)
    ws = next(im for im in tagged if im.supervision == SupervisionTag.WS)
    fs = next(im for im in tagged if im.supervision == SupervisionTag.FS)
    with pytest.raises(ValueError):
        assemble_minibatch(ws, fs, n_classes=6, feature_dim=cfg.feature_dim)


def test_assemble_us_requires_pseudo_triplets():
    cfg = WorldConfig(n_object_classes=3, n_verb_classes=2, n_hoi_classes=6, n_images=60, seed=6)
    images = generate_world(cfg)
    tagged = split_supervision(images, 0.0, 0.5, 0.5, seed=0)
    us = [im for im in tagged if im.supervision == SupervisionTag.US]
    with pytest.raises(ValueError):
        assemble_minibatch(us[0], us[1], n_classes=6, feature_dim=cfg.feature_dim)
    pairs0 = build_pairs(us[0], cfg.feature_dim)
    pseudo = {
        us[0].image_id: [GroundTruthTriplet(pairs0[0].human.box, pairs0[0].object.box, 2)],
        us[1].image_id: [],
    }
    batch = assemble_minibatch(
        us[0], us[1], n_classes=6, feature_dim=cfg.feature_dim, pseudo_triplets=pseudo
    )
    assert batch.supervision == SupervisionTag.US
    assert batch.fs_targets is not None
    assert batch.fs_targets[0, 2] == 1.0
