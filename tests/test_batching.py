import collections
import dataclasses
import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hoimix import batching
from hoimix.batching import (
    BLOCK_ENTRIES,
    DEFAULT_TOP_K,
    MiniBatch,
    Schedule,
    ScheduleError,
    assemble_minibatch,
    batch_schedule,
    element_swap,
    make_fs_targets,
    pair_grids,
    prepare_block,
)
from hoimix.experiment import ExperimentConfig, _train_seeds, prepare_world
from hoimix.geometry import MATCH_CHUNK
from hoimix.supervision import TAGS, SupervisionTag
from hoimix.synth_world import (
    NO_TRIPLETS,
    WorldConfig,
    feature_layout,
    generate_world,
    pair_feature_matrix,
    split_supervision,
    stack_triplets,
)
from box_reference import Box, GroundTruthTriplet, triplet_arrays, triplet_objects
from image_reference import SynthImage, images_of, world_of
from pair_reference import (
    Detection,
    block_swap,
    build_pairs,
    confidence_product,
    detection_arrays,
    make_ws_targets,
    reference_assemble_minibatch,
    reference_element_swap,
    reference_pair_features,
    reference_top_k,
)
from pair_reference import fs_targets as reference_fs_targets
from pair_reference import pair_grid as reference_pair_grid
from step_reference import schedule_batches

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
        humans=detection_arrays(humans),
        objects=detection_arrays(objects),
        gt_triplets=triplet_arrays(triplets),
        image_labels=frozenset(labels if labels is not None else (t.hoi_class for t in triplets)),
        supervision=SupervisionTag.WS,
    )


N_CLASSES = 16  # label columns of the worlds of images built here


def grids_of(images, feature_dim=FEATURE_DIM, top_k=DEFAULT_TOP_K):
    """The grid of the images, each a world's image, built in one pass."""
    return pair_grids(world_of(images, N_CLASSES), range(len(images)), feature_dim, top_k)


def grid_of(im, feature_dim=FEATURE_DIM, top_k=DEFAULT_TOP_K):
    """The image's grid, built by the set-level pass over it alone."""
    return grids_of([im], feature_dim, top_k).image(0)


def pairs_of(im, feature_dim=FEATURE_DIM, top_k=DEFAULT_TOP_K):
    return build_pairs(im, grid_of(im, feature_dim, top_k))


def assemble(a, b, *, n_classes, feature_dim, element_swap_enabled=False):
    """The batch of the one schedule entry (a, b), through its own block."""
    block = prepare_block(
        world_of([a, b], n_classes),
        [(0, 1)],
        n_classes=n_classes,
        feature_dim=feature_dim,
        element_swap_enabled=element_swap_enabled,
    )
    return assemble_minibatch(block, 0)


def test_cross_product_count():
    pairs = pairs_of(image(0, 2, 3))
    assert len(pairs) == 6
    assert all(not p.swapped for p in pairs)
    assert all(p.source == (0, 0) for p in pairs)


def test_single_pair():
    pairs = pairs_of(image(0, 1, 1))
    assert len(pairs) == 1
    assert pairs[0].swapped is False


def test_top_k_truncates_per_class_by_confidence():
    im = image(0, 1, 5, confs_o=[0.5, 0.9, 0.7, 0.95, 0.6])
    pairs = pairs_of(im, top_k=2)
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
        humans=detection_arrays(humans),
        objects=detection_arrays(objects),
        gt_triplets=NO_TRIPLETS,
        image_labels=frozenset(),
        supervision=SupervisionTag.WS,
    )
    pairs = pairs_of(im, top_k=1)
    assert len(pairs) == 2  # one object kept per class
    assert {int(p.objects.class_ids[p.object_index]) for p in pairs} == {0, 1}


def test_element_swap_counting_exhaustive():
    for h1, o1, h2, o2 in itertools.product(range(1, 5), repeat=4):
        pairs1 = pairs_of(image(0, h1, o1))
        pairs2 = pairs_of(image(1, h2, o2))
        out = block_swap(pairs1, pairs2)
        assert len(out) == h1 * o1 + h2 * o2
        for p in out:
            assert p.swapped == (p.source[0] != p.source[1])


def test_element_swap_keeps_top_candidates_by_scorer():
    # single human and object per image with chosen confidences: the four
    # candidates rank by confidence product and the top two are kept
    im1 = image(0, 1, 1, confs_h=[0.9], confs_o=[0.5])
    im2 = image(1, 1, 1, confs_h=[0.6], confs_o=[0.95])
    pairs1 = pairs_of(im1)
    pairs2 = pairs_of(im2)
    out = block_swap(pairs1, pairs2)
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
    out = block_swap(pairs_of(im1), pairs_of(im2))
    assert len(out) == 2
    assert all(not p.swapped for p in out)


# dyadic confidences, so that equal confidence products are exactly equal
confidence_lists = st.lists(st.sampled_from([0.25, 0.5, 0.75, 1.0]), min_size=1, max_size=4)


@settings(max_examples=200, deadline=None)
@given(h1=confidence_lists, o1=confidence_lists, h2=confidence_lists, o2=confidence_lists)
def test_element_swap_keeps_the_pair_count_and_same_image_pairs_first_on_ties(h1, o1, h2, o2):
    pairs1 = pairs_of(image(0, len(h1), len(o1), confs_h=h1, confs_o=o1))
    pairs2 = pairs_of(image(1, len(h2), len(o2), confs_h=h2, confs_o=o2))
    out = block_swap(pairs1, pairs2)
    assert len(out) == len(pairs1) + len(pairs2)
    for k, kept in enumerate(out):
        if kept.swapped:
            # every same-image pair tied with it is kept, and ahead of it
            ahead = {id(p) for p in out[:k]}
            tied = [p for p in pairs1 + pairs2 if confidence_product(p) == confidence_product(kept)]
            assert all(id(p) in ahead for p in tied)


def drawn_image(image_id, humans, objects):
    """An image from drawn (confidence, class id) detections."""
    return SynthImage(
        image_id=image_id,
        humans=detection_arrays(
            [
                det(0.1 + 0.05 * k, 0.1 + 0.02 * image_id, class_id=cls, confidence=c)
                for k, (c, cls) in enumerate(humans)
            ]
        ),
        objects=detection_arrays(
            [
                det(0.5 + 0.05 * k, 0.5 - 0.02 * image_id, class_id=cls, confidence=c)
                for k, (c, cls) in enumerate(objects)
            ]
        ),
        gt_triplets=NO_TRIPLETS,
        image_labels=frozenset(),
        supervision=SupervisionTag.WS,
    )


# dyadic confidences tie often, within an image and across the two; two
# classes per side let the top-k filter drop detections from inside the list
drawn_detections = st.lists(
    st.tuples(st.sampled_from([0.25, 0.5, 0.75, 1.0]), st.integers(0, 1)), min_size=1, max_size=4
)


@settings(max_examples=200, deadline=None)
@given(
    h1=drawn_detections,
    o1=drawn_detections,
    h2=drawn_detections,
    o2=drawn_detections,
    top_k=st.sampled_from([1, 2, DEFAULT_TOP_K]),
)
# one kept human: the only one, or the one of three that top-k keeps
@example(h1=[(0.5, 0)], o1=[(0.5, 0), (0.75, 1), (0.25, 0)], h2=[(1.0, 0), (0.25, 1)],
         o2=[(0.5, 0), (1.0, 1)], top_k=DEFAULT_TOP_K)
@example(h1=[(0.5, 0), (0.75, 0), (0.25, 0)], o1=[(0.5, 0), (1.0, 1)], h2=[(0.25, 0), (1.0, 1)],
         o2=[(0.75, 0)], top_k=1)
# one kept object: the only one, or the one of three that top-k keeps
@example(h1=[(0.25, 0), (1.0, 1), (0.5, 0)], o1=[(0.75, 0)], h2=[(0.5, 0), (1.0, 1)],
         o2=[(0.5, 0), (1.0, 0)], top_k=DEFAULT_TOP_K)
@example(h1=[(0.5, 0), (1.0, 1)], o1=[(0.25, 1), (0.75, 1), (0.5, 1)], h2=[(0.75, 0)],
         o2=[(1.0, 0), (0.25, 1)], top_k=1)
# every confidence product of one image also occurs in the other, same-image
# and swapped alike
@example(h1=[(0.5, 0), (1.0, 0)], o1=[(1.0, 0), (0.5, 0)], h2=[(1.0, 0), (0.5, 0)],
         o2=[(0.5, 0), (1.0, 0)], top_k=DEFAULT_TOP_K)
def test_element_swap_matches_the_per_pair_reference(h1, o1, h2, o2, top_k):
    pairs1 = pairs_of(drawn_image(0, h1, o1), top_k=top_k)
    pairs2 = pairs_of(drawn_image(1, h2, o2), top_k=top_k)
    got = block_swap(pairs1, pairs2, top_k=top_k)
    want = reference_element_swap(pairs1, pairs2)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.human_index, g.object_index, g.source, g.swapped) == (
            w.human_index, w.object_index, w.source, w.swapped,
        )
        assert g.humans is w.humans and g.objects is w.objects
        assert g.features.tobytes() == w.features.tobytes()
        if not g.swapped:
            assert g is w  # same-image pairs are passed through, not rebuilt


def test_element_swap_rejects_a_grid_that_is_not_a_full_product():
    # image 0 has 2 humans x 2 objects; its grid without the last pair
    # would read as 2 kept humans and 2 kept objects
    world = world_of([image(0, 2, 2), image(1, 1, 1)], N_CLASSES)
    grid1, grid2 = grid_of(image(0, 2, 2)), grid_of(image(1, 1, 1))
    rows = ("human_index", "object_index", "human_boxes", "object_boxes", "features")
    partial = dataclasses.replace(
        grid1, offsets=np.array([0, 3]), **{name: getattr(grid1, name)[:3] for name in rows}
    )
    with pytest.raises(ValueError, match="not a full human x object product"):
        element_swap(partial, grid2, world, 0, 1)
    with pytest.raises(ValueError, match="not a full human x object product"):
        element_swap(grid2, partial, world, 1, 0)


@settings(max_examples=200, deadline=None)
@given(
    objects=st.lists(
        st.tuples(st.sampled_from([0.25, 0.5, 0.75, 1.0]), st.integers(0, 2)),
        min_size=1,
        max_size=8,
    ),
    top_k=st.integers(1, 4),
)
def test_top_k_matches_the_per_class_sort(objects, top_k):
    im = drawn_image(0, [(0.9, 3)], objects)
    kept = [p.object_index for p in pairs_of(im, top_k=top_k)]
    assert kept == reference_top_k(im.objects, top_k)


def confident_swap_images():
    # image 0's humans and image 1's objects are confident, the rest are not:
    # every swapped (image-0 human, image-1 object) pair outranks every
    # same-image pair by confidence product
    im1 = image(0, 2, 1, confs_h=[0.9, 0.8], confs_o=[0.1])
    im2 = image(1, 1, 2, confs_h=[0.1], confs_o=[0.9, 0.8])
    return pairs_of(im1), pairs_of(im2)


def test_element_swap_confident_swapped_pairs_displace_originals():
    out = block_swap(*confident_swap_images())
    assert len(out) == 4
    assert all(p.swapped and p.source == (0, 1) for p in out)
    assert {(p.human_index, p.object_index) for p in out} == {(0, 0), (0, 1), (1, 0), (1, 1)}


def without_pairs(grid):
    """The grid of the same image with none of its pairs."""
    rows = ("human_index", "object_index", "human_boxes", "object_boxes", "features")
    return dataclasses.replace(
        grid, offsets=np.array([0, 0]), **{name: getattr(grid, name)[:0] for name in rows}
    )


def test_element_swap_rejects_empty_or_same_image():
    im1, im2 = image(0, 1, 1), image(1, 1, 1)
    grid1, grid2 = grid_of(im1), grid_of(im2)
    world = world_of([im1, im2], N_CLASSES)
    with pytest.raises(ValueError, match="non-empty pair lists"):
        element_swap(grid1, without_pairs(grid2), world, 0, 1)
    with pytest.raises(ValueError, match="two distinct images"):
        element_swap(grid1, grid1, world, 0, 0)


def test_element_swap_rejects_the_grid_of_another_image():
    world = world_of([image(0, 1, 2), image(1, 2, 1)], N_CLASSES)
    grid = pair_grids(world, [0, 1], FEATURE_DIM)
    with pytest.raises(ValueError, match="grid of images \\[1\\] is not image 0's"):
        element_swap(grid.image(1), grid.image(0), world, 0, 1)
    with pytest.raises(ValueError, match="grid of images \\[0, 1\\] is not image 1's"):
        element_swap(grid.image(0), grid, world, 0, 1)


def test_element_swap_features_recomputed_for_swapped_pairs():
    out = block_swap(*confident_swap_images())
    assert all(p.swapped for p in out)
    for p in out:
        assert p.features.shape == (FEATURE_DIM,)
        np.testing.assert_array_equal(p.features[:APP_DIM], p.humans.appearance[p.human_index])
        np.testing.assert_array_equal(
            p.features,
            reference_pair_features(p.humans, p.human_index, p.objects, p.object_index, FEATURE_DIM),
        )


def triplet(hx, hy, ox, oy, hoi_class, size=0.1):
    return GroundTruthTriplet(
        Box(hx, hy, hx + size, hy + size), Box(ox, oy, ox + size, oy + size), hoi_class
    )


def boxes_of(grid, i):
    """The human and object boxes of the grid's pair i."""
    return Box.from_list(grid.human_boxes[i]), Box.from_list(grid.object_boxes[i])


def stacked_truths(truths):
    """The rows of every image's ground truth, TripletArrays, as one set,
    and the image (its place k in truths) of each row."""
    owner = np.repeat(np.arange(len(truths)), [len(t) for t in truths])
    return stack_triplets(truths), owner


def fs_targets(image, gt, n_classes, **kwargs):
    """The targets of the image's pairs against gt, GroundTruthTriplets."""
    return make_fs_targets(grids_of([image]), *stacked_truths([triplet_arrays(gt)]), n_classes, **kwargs)


def test_fs_targets_exact_match_sets_single_column():
    im = image(0, 1, 1)
    gt = [GroundTruthTriplet(*boxes_of(grid_of(im), 0), 7)]
    Y = fs_targets(im, gt, n_classes=10)
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
        humans=detection_arrays([pair_h]),
        objects=detection_arrays([pair_o]),
        gt_triplets=triplet_arrays([GroundTruthTriplet(h_gt, o_gt, 3)]),
        image_labels=frozenset({3}),
        supervision=SupervisionTag.FS,
    )
    Y = fs_targets(im, triplet_objects(im.gt_triplets), n_classes=5)
    assert Y.sum() == 0.0


def test_fs_targets_no_gt_gives_zero_matrix():
    Y = fs_targets(image(0, 2, 2), [], n_classes=6)
    assert Y.shape == (4, 6)
    assert Y.sum() == 0.0


def test_fs_targets_class_out_of_range_rejected():
    im = image(0, 1, 1)
    gt = [GroundTruthTriplet(*boxes_of(grid_of(im), 0), 12)]
    with pytest.raises(ValueError):
        fs_targets(im, gt, n_classes=10)


def test_fs_targets_monotone_in_threshold():
    rng = np.random.default_rng(0)
    images = images_of(generate_world(
        WorldConfig(n_object_classes=3, n_verb_classes=2, n_hoi_classes=6, n_images=60, seed=4)
    ))
    for im in images[:10]:
        thresholds = sorted(rng.uniform(0.1, 0.95, size=4))
        previous = None
        for t in thresholds:
            Y = fs_targets(im, triplet_objects(im.gt_triplets), n_classes=6, iou_threshold=t)
            if previous is not None:
                assert np.all(Y <= previous)  # raising threshold never adds a 1
            previous = Y


def ws_targets(labels_a, labels_b, n_classes):
    """The targets of the WS batch of two images with these labels."""
    a, b = image(0, 1, 1, labels=labels_a), image(1, 1, 1, labels=labels_b)
    return assemble(a, b, n_classes=n_classes, feature_dim=FEATURE_DIM).targets


def test_ws_targets_union_and_symmetry():
    y = ws_targets({3, 5}, {5, 9}, n_classes=12)
    assert set(np.nonzero(y)[0]) == {3, 5, 9}
    np.testing.assert_array_equal(y, ws_targets({5, 9}, {3, 5}, n_classes=12))
    assert y.tobytes() == make_ws_targets({3, 5}, {5, 9}, 12).tobytes()


def test_ws_targets_empty_and_zero_class():
    np.testing.assert_array_equal(ws_targets(set(), set(), 4), np.zeros(4))
    y = ws_targets({0}, set(), 4)
    assert y[0] == 1.0 and y.sum() == 1.0


def test_schedule_pairs_groups_homogeneously():
    images = generate_world(
        WorldConfig(n_object_classes=3, n_verb_classes=2, n_hoi_classes=6, n_images=60, seed=5)
    )
    tagged = split_supervision(images, 0.5, 0.5, 0.0, seed=0)
    schedule = batch_schedule(tagged, seed=1)
    assert schedule.images.shape == (30, 2) and schedule.leftovers.shape == (0,)
    tags = [im.supervision for im in images_of(tagged)]
    counts = collections.Counter(tags[a] for a, _ in schedule.images.tolist())
    assert counts[SupervisionTag.WS] == 15
    assert counts[SupervisionTag.FS] == 15
    for a, b in schedule.images.tolist():
        assert tags[a] == tags[b]
        assert a != b


def schedule_rows(schedule):
    """The schedule's entries and leftovers as lists."""
    return schedule.images.tolist(), schedule.leftovers.tolist()


def test_schedule_deterministic_and_seed_sensitive():
    images = generate_world(
        WorldConfig(n_object_classes=3, n_verb_classes=2, n_hoi_classes=6, n_images=60, seed=5)
    )
    tagged = split_supervision(images, 0.5, 0.5, 0.0, seed=0)
    assert schedule_rows(batch_schedule(tagged, seed=1)) == schedule_rows(batch_schedule(tagged, seed=1))
    assert schedule_rows(batch_schedule(tagged, seed=1)) != schedule_rows(batch_schedule(tagged, seed=2))


def test_schedule_reports_leftover_for_odd_group():
    images = generate_world(
        WorldConfig(n_object_classes=3, n_verb_classes=2, n_hoi_classes=6, n_images=61, seed=5)
    )
    tagged = split_supervision(images, 0.0, 1.0, 0.0, seed=0)
    schedule = batch_schedule(tagged, seed=3)
    assert len(schedule.images) == 30
    assert len(schedule.leftovers) == 1
    leftover = int(schedule.leftovers[0])
    assert images_of(tagged)[leftover].supervision == SupervisionTag.FS
    assert leftover not in set(schedule.images.ravel().tolist())


def test_schedule_single_image_group_is_error():
    images = generate_world(
        WorldConfig(n_object_classes=3, n_verb_classes=2, n_hoi_classes=6, n_images=61, seed=5)
    )
    tagged = split_supervision(images, 0.0, 1.0, 0.0, seed=0)
    supervision = tagged.supervision.copy()
    supervision[0] = SupervisionTag.WS.code
    with pytest.raises(ScheduleError, match="WS has a single image"):
        batch_schedule(tagged.tagged(supervision), seed=0)


@pytest.mark.parametrize("n_images", [0, 1])
def test_schedule_of_fewer_than_two_images_is_error(n_images):
    world = world_of([image(k, 1, 1) for k in range(n_images)], N_CLASSES)
    with pytest.raises(ScheduleError, match=f"needs two images; the world has {n_images}"):
        batch_schedule(world, seed=0)


def test_schedule_without_entries_is_error():
    # two US images, neither pseudo-labelled, form no group
    world = world_of([image(k, 1, 1).with_supervision(SupervisionTag.US) for k in range(2)], N_CLASSES)
    with pytest.raises(ScheduleError, match="schedule is empty"):
        batch_schedule(world, seed=0)


def schedule_digest(schedule, world):
    """The digest of the schedule's text: each entry's two images and their
    tag, then each leftover's tag and image."""
    tags = [TAGS[code] for code in world.supervision.tolist()]
    text = ";".join(f"{a},{b},{tags[a]}" for a, b in schedule.images.tolist())
    text += "|" + ";".join(f"{tags[i]},{i}" for i in schedule.leftovers.tolist())
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_schedule_adds_us_pairs_without_moving_the_fs_and_ws_pairs():
    cfg = ExperimentConfig(ws_fraction=0.3, fs_fraction=0.4, us_fraction=0.3)
    tagged, _, _ = prepare_world(cfg)
    _, seed, _ = _train_seeds(cfg.train_seed)
    truth = images_of(generate_world(cfg.world))
    us = np.flatnonzero(tagged.supervision == SupervisionTag.US.code).tolist()
    without = batch_schedule(tagged, seed)
    # the schedule these images had when batch_schedule left US images out
    # unless asked to include them (recipe: schedule_digest); US images
    # without pseudo labels are left out
    assert schedule_digest(without, tagged) == "dc80cbeb9bff4a8c"
    assert (tagged.supervision[without.images] != SupervisionTag.US.code).all()

    def labelled(n_us):
        """The tagged world with the first n_us US images pseudo-labelled."""
        return tagged.with_triplets(us[:n_us], [truth[k].gt_triplets for k in us[:n_us]])

    # a lone pseudo-labelled image is left out
    assert schedule_rows(batch_schedule(labelled(1), seed)) == schedule_rows(without)

    def pairs(schedule, tag):
        return {(a, b) for a, b in schedule.images.tolist() if tagged.supervision[a] == tag.code}

    for n_us in (2, 3, len(us)):
        schedule = batch_schedule(labelled(n_us), seed)
        assert len(pairs(schedule, SupervisionTag.US)) == n_us // 2
        for tag in (SupervisionTag.FS, SupervisionTag.WS):
            assert pairs(schedule, tag) == pairs(without, tag)


def test_assemble_ws_batch_with_swap():
    cfg = WorldConfig(n_object_classes=3, n_verb_classes=2, n_hoi_classes=6, n_images=60, seed=6)
    images = generate_world(cfg)
    tagged = images_of(split_supervision(images, 1.0, 0.0, 0.0, seed=0))
    a, b = tagged[0], tagged[1]
    batch = assemble(
        a, b, n_classes=6, feature_dim=cfg.feature_dim, element_swap_enabled=True
    )
    assert batch.supervision == SupervisionTag.WS
    assert batch.targets.shape == (6,)
    n_a = len(pairs_of(a, cfg.feature_dim))
    n_b = len(pairs_of(b, cfg.feature_dim))
    assert batch.features.shape[0] == n_a + n_b
    assert batch.features.shape == (n_a + n_b, cfg.feature_dim)
    assert set(np.nonzero(batch.targets)[0]) == set(a.image_labels | b.image_labels)


def test_assemble_fs_batch_matches_per_image_targets():
    cfg = WorldConfig(n_object_classes=3, n_verb_classes=2, n_hoi_classes=6, n_images=60, seed=6)
    images = images_of(generate_world(cfg))
    a, b = images[0], images[1]
    batch = assemble(a, b, n_classes=6, feature_dim=cfg.feature_dim)
    assert batch.supervision == SupervisionTag.FS
    grid_a, grid_b = (reference_pair_grid(im, cfg.feature_dim) for im in (a, b))
    Y_a, Y_b = (
        reference_fs_targets(grid.human_boxes, grid.object_boxes, triplet_objects(im.gt_triplets), 6)
        for grid, im in ((grid_a, a), (grid_b, b))
    )
    n_a = len(grid_a.features)
    np.testing.assert_array_equal(batch.targets[:n_a], Y_a)
    # pairs from image b are matched against image b's ground truth only
    np.testing.assert_array_equal(batch.targets[n_a:], Y_b)
    assert batch.features.shape[0] == n_a + len(grid_b.features)


def test_assemble_rejects_mixed_supervision():
    cfg = WorldConfig(n_object_classes=3, n_verb_classes=2, n_hoi_classes=6, n_images=60, seed=6)
    images = generate_world(cfg)
    tagged = images_of(split_supervision(images, 0.5, 0.5, 0.0, seed=0))
    ws = next(im for im in tagged if im.supervision == SupervisionTag.WS)
    fs = next(im for im in tagged if im.supervision == SupervisionTag.FS)
    with pytest.raises(ValueError):
        assemble(ws, fs, n_classes=6, feature_dim=cfg.feature_dim)


def test_assemble_us_batch_targets_the_images_own_triplets():
    cfg = WorldConfig(n_object_classes=3, n_verb_classes=2, n_hoi_classes=6, n_images=60, seed=6)
    images = generate_world(cfg)
    tagged = images_of(split_supervision(images, 0.0, 0.5, 0.5, seed=0))
    us = [im for im in tagged if im.supervision == SupervisionTag.US]
    assert not us[0].gt_triplets and not us[1].gt_triplets
    # without pseudo labels a US batch has no positive target
    batch = assemble(us[0], us[1], n_classes=6, feature_dim=cfg.feature_dim)
    assert batch.targets.ndim == 2 and not batch.targets.any()
    grid = grid_of(us[0], cfg.feature_dim)
    pseudo = triplet_arrays([GroundTruthTriplet(*boxes_of(grid, 0), 2)])
    labelled = dataclasses.replace(us[0], gt_triplets=pseudo)
    batch = assemble(labelled, us[1], n_classes=6, feature_dim=cfg.feature_dim)
    assert batch.supervision == SupervisionTag.US
    assert batch.targets[0, 2] == 1.0
    # us[1]'s pairs are matched against its own triplets only: none
    assert not batch.targets[len(grid.features) :].any()


def minibatch(tag, features, targets):
    return MiniBatch(supervision=tag, features=features, targets=targets)


@pytest.mark.parametrize(
    "tag, features, targets, message",
    [
        (SupervisionTag.FS, np.ones((2, 3)), np.array([[0.0, 0.5], [1.0, 0.0]]), "binary"),
        (SupervisionTag.WS, np.ones((2, 3)), np.array([0.0, 2.0]), "binary"),
        (SupervisionTag.WS, np.array([[1.0, np.nan, 0.0]]), np.array([1.0]), "finite"),
        (SupervisionTag.FS, np.array([[np.inf, 0.0]]), np.array([[1.0]]), "finite"),
        (SupervisionTag.FS, np.ones((3, 2)), np.zeros((2, 4)), "2 rows for 3 feature rows"),
        (SupervisionTag.US, np.ones((3, 2)), np.zeros((4, 4)), "4 rows for 3 feature rows"),
        (SupervisionTag.WS, np.ones((3, 2)), np.zeros((1, 4)), "must be 1-d"),
        (SupervisionTag.FS, np.ones((3, 2)), np.zeros(4), "must be 2-d"),
        (SupervisionTag.FS, np.ones((0, 2)), np.zeros((0, 4)), "non-empty 2-d"),
        (SupervisionTag.WS, np.ones(3), np.zeros(4), "non-empty 2-d"),
    ],
)
def test_minibatch_rejects_unchecked_arrays(tag, features, targets, message):
    with pytest.raises(ValueError, match=message):
        minibatch(tag, features, targets)


@pytest.mark.parametrize("tag", [SupervisionTag.FS, SupervisionTag.WS])
def test_built_minibatch_is_read_only(tag):
    targets = np.array([[1.0, 0.0], [0.0, 0.0]]) if tag.region_level else np.array([0.0, 1.0])
    batch = minibatch(tag, np.ones((2, 3)), targets)
    with pytest.raises(ValueError, match="read-only"):
        batch.features[0, 0] = 2.0
    with pytest.raises(ValueError, match="read-only"):
        batch.targets[0] = 0.5
    with pytest.raises(AttributeError):
        batch.features = np.zeros((2, 3))


def test_assembled_batches_are_read_only():
    cfg = WorldConfig(n_object_classes=3, n_verb_classes=2, n_hoi_classes=6, n_images=60, seed=6)
    tagged = images_of(split_supervision(generate_world(cfg), 0.5, 0.5, 0.0, seed=0))
    for tag in (SupervisionTag.WS, SupervisionTag.FS):
        a, b = [im for im in tagged if im.supervision == tag][:2]
        batch = assemble(
            a, b, n_classes=6, feature_dim=cfg.feature_dim, element_swap_enabled=True
        )
        assert not batch.features.flags.writeable and not batch.targets.flags.writeable


def assert_same_batches(got, want):
    """Supervision, features, targets and read-only flags, byte for byte."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.supervision == w.supervision
        for name in ("features", "targets"):
            a, b = getattr(g, name), getattr(w, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
            assert not a.flags.writeable and not b.flags.writeable


def reference_batches(world, schedule, cfg):
    images = images_of(world)
    return [
        reference_assemble_minibatch(
            images[a],
            images[b],
            n_classes=cfg.world.n_hoi_classes,
            feature_dim=cfg.world.feature_dim,
            top_k=cfg.top_k,
            element_swap_enabled=cfg.element_swap,
        )
        for a, b in schedule.images.tolist()
    ]


def scheduled(cfg, world=None):
    """The tagged world of cfg, or the given one, and the schedule that
    batch_schedule draws for it at train's seed."""
    if world is None:
        world, _, _ = prepare_world(cfg)
    _, schedule_seed, _ = _train_seeds(cfg.train_seed)
    return world, batch_schedule(world, schedule_seed)


def us_mix():
    """A 40/30/30 mix whose US images carry their own stripped ground truth
    as pseudo labels, but for every fifth, which has none."""
    cfg = ExperimentConfig(ws_fraction=0.4, fs_fraction=0.3, us_fraction=0.3)
    tagged, _, _ = prepare_world(cfg)
    truth = images_of(generate_world(cfg.world))
    us = np.flatnonzero(tagged.supervision == SupervisionTag.US.code)
    labelled = [k for n, k in enumerate(us.tolist()) if n % 5]
    return (cfg, *scheduled(cfg, tagged.with_triplets(labelled, [truth[k].gt_triplets for k in labelled])))


@pytest.mark.parametrize(
    "case", ["seed0", "seed1", "seed2", "us_mix", "no_element_swap", "top_k_1"]
)
def test_build_batches_matches_the_per_entry_reference(case):
    if case == "us_mix":
        cfg, tagged, schedule = us_mix()
        assert (tagged.supervision[schedule.images] == SupervisionTag.US.code).any()
    else:
        overrides = {
            "seed0": {},
            "seed1": {"train_seed": 1},
            "seed2": {"train_seed": 2},
            "no_element_swap": {"element_swap": False},
            "top_k_1": {"top_k": 1},
        }[case]
        seed = overrides.get("train_seed", 0)
        cfg = ExperimentConfig(world=WorldConfig(seed=seed), **overrides)
        tagged, schedule = scheduled(cfg)
    assert len(schedule.images) > BLOCK_ENTRIES  # more than one block
    got = schedule_batches(tagged, schedule, cfg)
    assert_same_batches(got, reference_batches(tagged, schedule, cfg))


@pytest.mark.parametrize("n_entries", [1, BLOCK_ENTRIES - 1, BLOCK_ENTRIES, BLOCK_ENTRIES + 1])
def test_build_batches_matches_the_reference_at_block_edges(n_entries):
    cfg = ExperimentConfig()
    tagged, full = scheduled(cfg)
    schedule = Schedule(full.images[:n_entries], full.leftovers[:0])
    got = schedule_batches(tagged, schedule, cfg)
    assert len(got) == n_entries
    assert_same_batches(got, reference_batches(tagged, schedule, cfg))


def swapped_block_batches(world, entries, *, n_classes, feature_dim):
    """The batches of the entries through one block with element swapping on."""
    block = prepare_block(
        world, entries, n_classes=n_classes, feature_dim=feature_dim, element_swap_enabled=True
    )
    return [assemble_minibatch(block, k) for k in range(len(entries))]


def test_a_block_that_keeps_no_swapped_pair_equals_the_reference(monkeypatch):
    # equal confidences tie every candidate, and a tie keeps the same-image pairs
    images = [image(k, 1 + k % 3, 1 + k // 3 % 3) for k in range(8)]
    entries = [(k, k + 1) for k in range(0, 8, 2)]
    rows = []

    def counted(humans, h, objects, o, feature_dim):
        rows.append(len(h))
        return pair_feature_matrix(humans, h, objects, o, feature_dim)

    monkeypatch.setattr(batching, "pair_feature_matrix", counted)
    got = swapped_block_batches(world_of(images, 6), entries, n_classes=6, feature_dim=FEATURE_DIM)
    monkeypatch.undo()
    assert rows[1:] == [0]  # the grid's call, then the swapped pairs' call
    want = [
        reference_assemble_minibatch(
            images[a], images[b], n_classes=6, feature_dim=FEATURE_DIM, element_swap_enabled=True
        )
        for a, b in entries
    ]
    assert_same_batches(got, want)


def test_an_fs_and_us_block_with_swap_on_equals_the_reference(monkeypatch):
    cfg = ExperimentConfig(ws_fraction=0.0, fs_fraction=0.5, us_fraction=0.5, element_swap=True)
    tagged, _, _ = prepare_world(cfg)
    truth = images_of(generate_world(cfg.world))
    # every other US image carries its stripped ground truth as pseudo labels
    us = np.flatnonzero(tagged.supervision == SupervisionTag.US.code)
    labelled = [k for k in us.tolist() if k % 2]
    tagged, schedule = scheduled(cfg, tagged.with_triplets(labelled, [truth[k].gt_triplets for k in labelled]))
    fs, us = SupervisionTag.FS.code, SupervisionTag.US.code
    assert set(tagged.supervision[schedule.images].ravel().tolist()) == {fs, us}
    monkeypatch.setattr(batching, "element_swap", None)  # a call would raise
    got = schedule_batches(tagged, schedule, cfg)
    monkeypatch.undo()
    assert_same_batches(got, reference_batches(tagged, schedule, cfg))


def test_the_last_partial_block_of_data_pass_equals_the_reference():
    cfg = ExperimentConfig(world=WorldConfig(n_images=2400, seed=0), train_seed=0)
    tagged, schedule = scheduled(cfg)
    n_last = len(schedule.images) % BLOCK_ENTRIES
    assert (len(schedule.images), n_last) == (1200, 48)
    last = Schedule(schedule.images[-n_last:], schedule.leftovers[:0])
    assert (tagged.supervision[last.images] == SupervisionTag.WS.code).any()
    got = schedule_batches(tagged, schedule, cfg)[-n_last:]
    assert_same_batches(got, reference_batches(tagged, last, cfg))


def assert_same_grid(got, want):
    for name in ("image_ids", "offsets", "human_index", "object_index", "human_boxes",
                 "object_boxes", "features"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


# dyadic confidences tie often; three classes per side
grid_detections = st.lists(
    st.tuples(st.sampled_from([0.25, 0.5, 0.75, 1.0]), st.integers(0, 2)), min_size=1, max_size=6
)


@settings(max_examples=150, deadline=None)
@given(
    sides=st.lists(st.tuples(grid_detections, grid_detections), min_size=1, max_size=5),
    top_k=st.sampled_from([1, 2, DEFAULT_TOP_K]),
    picks=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 5), st.booleans()), max_size=12),
)
def test_pair_grids_and_targets_match_the_per_image_reference(sides, top_k, picks):
    images = [drawn_image(k, h, o) for k, (h, o) in enumerate(sides)]
    grid = grids_of(images, FEATURE_DIM, top_k)
    want = [reference_pair_grid(im, FEATURE_DIM, top_k) for im in images]
    for k, w in enumerate(want):
        assert_same_grid(grid.image(k), w)
    # ground truth per image: boxes of its own pairs (hits) or of another
    # image's pairs, shifted (mostly misses)
    truths = [[] for _ in images]
    for row, hoi_class, own in picks:
        k = row % len(images)
        source = want[k if own else (k + 1) % len(images)]
        i = row % len(source.features)
        shift = 0.0 if own else 0.03
        truths[k].append(
            GroundTruthTriplet(
                Box.from_list(source.human_boxes[i] + shift),
                Box.from_list(source.object_boxes[i]),
                hoi_class,
            )
        )
    Y = make_fs_targets(grid, *stacked_truths([triplet_arrays(truth) for truth in truths]), 6)
    for k, (w, truth) in enumerate(zip(want, truths)):
        expected = reference_fs_targets(w.human_boxes, w.object_boxes, truth, 6)
        assert Y[grid.offsets[k] : grid.offsets[k + 1]].tobytes() == expected.tobytes()


def test_fs_targets_across_chunks_equal_the_per_image_reference():
    # enough ground-truth rows for several chunks, with images of no ground
    # truth between them, so that an image's rows straddle chunk edges
    cfg = WorldConfig(n_images=120)
    world = generate_world(cfg)
    truths = [NO_TRIPLETS if k % 3 == 1 else im.gt_triplets for k, im in enumerate(images_of(world))]
    assert sum(map(len, truths)) > 2 * MATCH_CHUNK
    grid = pair_grids(world, range(len(world)), cfg.feature_dim)
    Y = make_fs_targets(grid, *stacked_truths(truths), cfg.n_hoi_classes)
    assert Y.any()
    for k, truth in enumerate(truths):
        w = grid.image(k)
        expected = reference_fs_targets(
            w.human_boxes, w.object_boxes, triplet_objects(truth), cfg.n_hoi_classes
        )
        assert Y[grid.offsets[k] : grid.offsets[k + 1]].tobytes() == expected.tobytes()


def test_pair_grids_names_the_image_left_without_pairs():
    images = [image(5, 1, 2), image(7, 2, 1)]
    with pytest.raises(ValueError, match="image 5: empty human or object set"):
        grids_of(images, FEATURE_DIM, top_k=0)
    with pytest.raises(ValueError, match="image 5: empty human or object set"):
        reference_pair_grid(images[0], FEATURE_DIM, top_k=0)
    with pytest.raises(ValueError, match="image 5: empty human or object set"):
        prepare_block(world_of(images, 6), [(0, 1)], n_classes=6, feature_dim=FEATURE_DIM, top_k=0)


def test_block_rejects_an_out_of_range_class():
    fs = [dataclasses.replace(image(k, 1, 1), supervision=SupervisionTag.FS) for k in range(4)]
    bad = triplet(0.1, 0.1, 0.5, 0.5, 12)
    fs[3] = dataclasses.replace(fs[3], gt_triplets=triplet_arrays([bad]))
    with pytest.raises(ValueError, match=r"hoi_class 12 out of range \[0, 10\)"):
        prepare_block(world_of(fs, 10), [(0, 1), (2, 3)], n_classes=10, feature_dim=FEATURE_DIM)
    us = [im.with_supervision(SupervisionTag.US) for im in fs[:2]]
    negative = triplet_arrays([triplet(0.1, 0.1, 0.5, 0.5, -1)])
    us[1] = dataclasses.replace(us[1], gt_triplets=negative)
    with pytest.raises(ValueError, match=r"hoi_class -1 out of range"):
        prepare_block(world_of(us, 10), [(0, 1)], n_classes=10, feature_dim=FEATURE_DIM)


def test_block_rejects_a_world_of_another_class_count():
    world = world_of([image(k, 1, 1) for k in range(2)], 10)
    with pytest.raises(ValueError, match="the world has 10 label classes, not 6"):
        prepare_block(world, [(0, 1)], n_classes=6, feature_dim=FEATURE_DIM)


def test_build_pairs_rejects_the_grid_of_another_image():
    images = [image(0, 1, 2), image(1, 2, 1)]
    grid = grids_of(images, FEATURE_DIM)
    with pytest.raises(ValueError, match="not image 0's"):
        build_pairs(images[0], grid.image(1))
    with pytest.raises(ValueError, match="not image 0's"):
        build_pairs(images[0], grid)


# Recipe of the data_pass batch digests: the 2 400-image world of the
# data_pass workload at a seed (world.seed and train_seed both the seed,
# every other setting the default), the schedule train draws for it, and
# its batches, built block by block as train builds them; then sha256 over
# every batch's features.tobytes() in schedule order, and separately over
# its targets (a region-level matrix
# or an image-level vector). The prefixes hold for numpy 2.x Generator
# streams on x86-64.
DATA_PASS_BATCH_DIGESTS = {
    0: ("fff29e92e29cc520", "55faa521e0019930"),
    1: ("d737c3ff721e1092", "5d2e1544ed0bdf4d"),
}


@pytest.mark.parametrize("seed", sorted(DATA_PASS_BATCH_DIGESTS))
def test_data_pass_batch_digests_are_pinned(seed):
    cfg = ExperimentConfig(world=WorldConfig(n_images=2400, seed=seed), train_seed=seed)
    tagged, schedule = scheduled(cfg)
    features, targets = hashlib.sha256(), hashlib.sha256()
    for batch in schedule_batches(tagged, schedule, cfg):
        features.update(batch.features.tobytes())
        targets.update(batch.targets.tobytes())
    assert len(schedule.images) == 1200
    digests = (features.hexdigest()[:16], targets.hexdigest()[:16])
    assert digests == DATA_PASS_BATCH_DIGESTS[seed]
