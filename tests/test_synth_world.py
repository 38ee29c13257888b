import collections
import dataclasses
import hashlib
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoimix import synth_world
from hoimix.supervision import TAGS, SupervisionTag
from hoimix.synth_world import (
    NO_TRIPLETS,
    DetectionArrays,
    TripletArrays,
    WorldConfig,
    WorldGenerationError,
    feature_layout,
    generate_eval_images,
    generate_world,
    pair_feature_matrix,
    rare_classes,
    split_supervision,
)
from box_reference import Box, GroundTruthTriplet, box_array, triplet_arrays
from image_reference import SynthImage, images_of, world_of
from pair_reference import Detection, detection_arrays, reference_pair_features, take_detections
import world_reference

SMALL = WorldConfig(
    n_object_classes=4,
    n_verb_classes=3,
    n_hoi_classes=12,
    n_images=80,
    seed=11,
)


def image_bytes(image):
    """Everything an image holds, with every array as its exact bytes."""
    gt = image.gt_triplets
    columns = [gt.human_boxes, gt.object_boxes, gt.hoi_classes] + [
        getattr(d, name)
        for d in (image.humans, image.objects)
        for name in ("boxes", "class_ids", "confidences", "appearance")
    ]
    return (
        image.image_id,
        image.supervision,
        sorted(image.image_labels),
        [(column.dtype.str, column.shape, column.tobytes()) for column in columns],
    )


def world_bytes(world):
    return [image_bytes(im) for im in images_of(world)]


def test_generation_is_deterministic():
    a = generate_world(SMALL)
    b = generate_world(SMALL)
    assert world_bytes(a) == world_bytes(b)


def test_different_seed_changes_world():
    a = generate_world(SMALL)
    b = generate_world(WorldConfig(**{**SMALL.__dict__, "seed": 12}))
    assert world_bytes(a) != world_bytes(b)


def test_rare_fraction_honored_exactly():
    world = generate_world(SMALL)
    counts = collections.Counter(c for im in images_of(world) for c in im.image_labels)
    rare = rare_classes(world)
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
    for image in images_of(generate_world(cfg)):
        assert len(image.gt_triplets) == 1
        gt_humans = 1
        gt_objects = 1
        # detections beyond the ground-truth-backed ones are distractors
        assert len(image.humans) + len(image.objects) >= gt_humans + gt_objects
        assert len(image.humans) >= 1
        assert len(image.objects) >= 1


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
    for image in images_of(generate_world(SMALL)):
        classes = image.gt_triplets.hoi_classes.tolist()
        assert all(0 <= c < SMALL.n_hoi_classes for c in classes)
        assert image.image_labels == frozenset(classes)


def test_feature_layout_partitions_dimension():
    for dim in range(4, 40):
        app, spatial, pad = feature_layout(dim)
        assert app >= 1 and spatial >= 2 and pad >= 0
        assert 2 * app + spatial + pad == dim


def pair_features(humans, h, objects, o, feature_dim):
    """Feature vector of the pair (humans row h, objects row o)."""
    return pair_feature_matrix(humans, [h], objects, [o], feature_dim)[0]


def test_features_deterministic_and_correct_dim():
    images = images_of(generate_world(SMALL))
    im = images[0]
    f1 = pair_features(im.humans, 0, im.objects, 0, SMALL.feature_dim)
    f2 = pair_features(im.humans, 0, im.objects, 0, SMALL.feature_dim)
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
    images = images_of(generate_world(cfg))
    by_class = collections.defaultdict(list)
    for im in images:
        for class_id, appearance in zip(im.objects.class_ids.tolist(), im.objects.appearance):
            by_class[class_id].append(appearance)
    checked = 0
    for apps in by_class.values():
        for k in range(len(apps) - 1):
            diff = np.abs(apps[k] - apps[k + 1])
            assert np.all(diff <= 6 * cfg.feature_noise_sigma)
            checked += 1
    assert checked >= 1000


def test_swapped_pair_layout_uses_boxes_as_is():
    images = images_of(generate_world(SMALL))
    humans = images[0].humans
    cross = pair_features(humans, 0, images[1].objects, 0, SMALL.feature_dim)
    app, spatial, _ = feature_layout(SMALL.feature_dim)
    same_human_other_object = pair_features(humans, 0, images[0].objects, 0, SMALL.feature_dim)
    np.testing.assert_array_equal(cross[:app], same_human_other_object[:app])
    assert not np.array_equal(cross[2 * app :], same_human_other_object[2 * app :])


def test_appearance_dim_mismatch_rejected():
    images = images_of(generate_world(SMALL))
    with pytest.raises(ValueError):
        pair_features(images[0].humans, 0, images[0].objects, 0, SMALL.feature_dim + 2)


# boxes on an eighth-unit grid, so that boxes touching at an edge or a
# corner, and boxes nested in one another, are common
grid_box = st.builds(
    lambda x, y, w, h: Box(x / 8, y / 8, (x + w) / 8, (y + h) / 8),
    st.integers(0, 6),
    st.integers(0, 6),
    st.integers(1, 4),
    st.integers(1, 4),
)


def grid_detections(app_dim):
    return st.lists(
        st.builds(
            lambda box, conf, app: Detection(box, 0, conf, np.array(app)),
            grid_box,
            st.sampled_from([0.25, 0.5, 1.0]),
            st.lists(st.floats(-1, 1), min_size=app_dim, max_size=app_dim),
        ),
        min_size=1,
        max_size=3,
    )


@st.composite
def two_images_of_detections(draw):
    # 4 truncates the spatial block to 2 columns, 9 keeps all 7 with no
    # pad, 16 and 23 add a pad column or a wider appearance
    feature_dim = draw(st.sampled_from([4, 5, 9, 16, 23]))
    app_dim = feature_layout(feature_dim)[0]
    images = [
        (draw(grid_detections(app_dim)), draw(grid_detections(app_dim))) for _ in range(2)
    ]
    return feature_dim, images


def assert_rows_match_reference(humans, objects, feature_dim):
    """humans and objects are aligned: row k of each makes pair k."""
    aligned = np.arange(len(humans))
    rows = pair_feature_matrix(humans, aligned, objects, aligned, feature_dim)
    assert rows.shape == (len(humans), feature_dim)
    for k, row in enumerate(rows):
        assert row.tobytes() == reference_pair_features(humans, k, objects, k, feature_dim).tobytes()


@settings(max_examples=300, deadline=None)
@given(drawn=two_images_of_detections())
def test_pair_feature_rows_equal_the_per_pair_reference(drawn):
    feature_dim, ((h1, o1), (h2, o2)) = drawn
    # every human of both images against every object of both: same-image
    # pairs and swapped pairs that mix the two images' detections
    pool = [(h, o) for h in h1 + h2 for o in o1 + o2]
    assert_rows_match_reference(
        detection_arrays([h for h, _ in pool]), detection_arrays([o for _, o in pool]), feature_dim
    )


def test_pair_feature_rows_at_touching_and_nested_boxes():
    app = np.array([0.5])
    human = Detection(Box(0.0, 0.0, 0.5, 0.5), 0, 0.5, app)
    objects = [
        Detection(Box(0.5, 0.0, 1.0, 0.5), 0, 0.5, app),  # shares an edge
        Detection(Box(0.5, 0.5, 1.0, 1.0), 0, 0.5, app),  # shares a corner
        Detection(Box(0.5, 0.75, 1.0, 1.0), 0, 0.5, app),  # in line with an edge, apart
        Detection(Box(0.125, 0.125, 0.25, 0.25), 0, 0.5, app),  # nested inside
    ]
    humans, objects = detection_arrays([human] * 4), detection_arrays(objects)
    assert_rows_match_reference(humans, objects, 9)
    rows = pair_feature_matrix(humans, np.arange(4), objects, np.arange(4), 9)
    overlap = rows[:, 2 + 4]
    assert overlap.tolist() == [0.0, 0.0, 0.0, 0.0625] and not np.signbit(overlap).any()


def test_pair_feature_rows_equal_the_reference_on_a_default_world():
    cfg = WorldConfig()
    for image in images_of(generate_world(cfg)):
        n_humans, n_objects = len(image.humans), len(image.objects)
        assert_rows_match_reference(
            take_detections(image.humans, np.repeat(np.arange(n_humans), n_objects)),
            take_detections(image.objects, np.tile(np.arange(n_objects), n_humans)),
            cfg.feature_dim,
        )


def test_split_fractions_with_rounding():
    images = generate_world(SMALL)
    tagged = images_of(split_supervision(images, 0.7, 0.3, 0.0, seed=5))
    counts = collections.Counter(im.supervision for im in tagged)
    assert abs(counts[SupervisionTag.WS] - 0.7 * len(images)) <= 1
    assert abs(counts[SupervisionTag.FS] - 0.3 * len(images)) <= 1
    assert counts[SupervisionTag.US] == 0


SMALL_WORLD = generate_world(SMALL)
SMALL_IMAGES = images_of(SMALL_WORLD)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(0, SMALL.n_images),
    cuts=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_split_counts_are_within_one_of_their_fractions(n, cuts, seed):
    low, high = sorted(cuts)
    fractions = (low, high - low, 1.0 - high)
    tagged = images_of(split_supervision(world_of(SMALL_IMAGES[:n], SMALL.n_hoi_classes), *fractions, seed=seed))
    counts = collections.Counter(im.supervision for im in tagged)
    for tag, fraction in zip((SupervisionTag.WS, SupervisionTag.FS, SupervisionTag.US), fractions):
        assert abs(counts[tag] - fraction * n) <= 1
    assert sum(counts.values()) == n


def test_split_all_fs():
    images = generate_world(SMALL)
    tagged = images_of(split_supervision(images, 0.0, 1.0, 0.0, seed=5))
    assert all(im.supervision == SupervisionTag.FS for im in tagged)
    assert all(im.gt_triplets for im in tagged)


def test_three_way_split():
    images = generate_world(SMALL)
    tagged = images_of(split_supervision(images, 0.3, 0.4, 0.3, seed=5))
    counts = collections.Counter(im.supervision for im in tagged)
    assert abs(counts[SupervisionTag.WS] - 24) <= 1
    assert abs(counts[SupervisionTag.FS] - 32) <= 1
    assert abs(counts[SupervisionTag.US] - 24) <= 1


def test_split_strips_annotations_per_tag():
    images = generate_world(SMALL)
    tagged = images_of(split_supervision(images, 0.4, 0.3, 0.3, seed=6))
    for im in tagged:
        if im.supervision == SupervisionTag.WS:
            assert len(im.gt_triplets) == 0 and im.image_labels
        elif im.supervision == SupervisionTag.US:
            assert len(im.gt_triplets) == 0 and im.image_labels == frozenset()
        else:
            assert len(im.gt_triplets) > 0


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
    assert world_bytes(a) == world_bytes(b)


def test_eval_images_share_latent_structure_and_cover_classes():
    train = images_of(generate_world(SMALL))
    test = images_of(generate_eval_images(SMALL, 40))
    assert {im.image_id for im in test}.isdisjoint({im.image_id for im in train})
    covered = set()
    for im in test:
        covered |= im.image_labels
    assert len(covered) == SMALL.n_hoi_classes
    # same class id -> same appearance prototype across train and test:
    # noisy appearance vectors of one class must cluster around one point
    train_means = {}
    for im in train:
        for class_id, appearance in zip(im.objects.class_ids.tolist(), im.objects.appearance):
            train_means.setdefault(class_id, []).append(appearance)
    for im in test:
        for class_id, appearance in zip(im.objects.class_ids.tolist(), im.objects.appearance):
            mean = np.mean(train_means[class_id], axis=0)
            assert np.linalg.norm(appearance - mean) < 1.0


def test_pickle_roundtrip_preserves_every_detection_array():
    world = split_supervision(generate_world(SMALL), 0.5, 0.3, 0.2, seed=1)
    loaded = pickle.loads(pickle.dumps(world))
    for name in ("boxes", "class_ids", "confidences", "appearance"):
        a, b = getattr(world.detections, name), getattr(loaded.detections, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        assert b.flags.c_contiguous
    assert world_bytes(loaded) == world_bytes(world)


def test_every_image_has_detections_and_valid_confidence():
    for im in images_of(generate_world(SMALL)):
        for detections in (im.humans, im.objects):
            assert np.all((0.0 < detections.confidences) & (detections.confidences <= 1.0))
            for box in detections.boxes.tolist():
                assert Box.from_list(box).area > 0


def test_detection_confidence_validated():
    images = SMALL_IMAGES
    det = images[0].humans
    with pytest.raises(ValueError):
        DetectionArrays(det.boxes, det.class_ids, np.zeros(len(det)), det.appearance)


def test_image_requires_detections():
    im = SMALL_IMAGES[0]
    with pytest.raises(ValueError):
        SynthImage(
            image_id=1,
            humans=take_detections(im.humans, np.array([], dtype=np.intp)),
            objects=im.objects,
            gt_triplets=NO_TRIPLETS,
            image_labels=frozenset(),
        )


def test_detection_arrays_reject_rows_of_mismatched_length():
    d = SMALL_IMAGES[0].objects
    with pytest.raises(ValueError, match="rows disagree"):
        DetectionArrays(d.boxes, d.class_ids, d.confidences[1:], d.appearance)
    with pytest.raises(ValueError, match="rows disagree"):
        DetectionArrays(d.boxes, d.class_ids, d.confidences, d.appearance[:, 0])
    with pytest.raises(ValueError, match="rows disagree"):
        DetectionArrays(d.boxes[:, :3], d.class_ids, d.confidences, d.appearance)


# edges that sit on the checks' boundaries come up often: zero and negative
# extents, confidences of exactly 0 and 1 and just beyond, and NaN
coordinate = st.one_of(st.sampled_from([0.0, 0.5, math.nan]), st.floats(-1, 2))
extent = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -0.25]), st.floats(-1, 1))
confidence = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 1.0000000000000002, 5e-324, math.nan]), st.floats(-0.5, 1.5)
)
detection_row = st.tuples(coordinate, coordinate, extent, extent, confidence)


def reference_accepts(row):
    x, y, w, h, conf = row
    try:
        Detection(Box(x, y, x + w, y + h), 0, conf, np.zeros(2))
    except ValueError:
        return False
    return True


def arrays_accept(rows):
    try:
        DetectionArrays(
            np.array([(x, y, x + w, y + h) for x, y, w, h, _ in rows]),
            np.zeros(len(rows), dtype=np.intp),
            np.array([conf for *_, conf in rows]),
            np.zeros((len(rows), 2)),
        )
    except ValueError:
        return False
    return True


@settings(max_examples=500, deadline=None)
@given(rows=st.lists(detection_row, min_size=1, max_size=6))
def test_detection_arrays_accept_exactly_the_rows_the_per_detection_checks_accept(rows):
    for row in rows:
        assert arrays_accept([row]) == reference_accepts(row)
    assert arrays_accept(rows) == all(reference_accepts(row) for row in rows)


def test_triplet_arrays_reject_rows_of_mismatched_length():
    t = SMALL_IMAGES[0].gt_triplets
    with pytest.raises(ValueError, match="rows disagree"):
        TripletArrays(t.human_boxes, t.object_boxes, np.append(t.hoi_classes, 0))
    with pytest.raises(ValueError, match="rows disagree"):
        TripletArrays(t.human_boxes[:, :3], t.object_boxes, t.hoi_classes)
    with pytest.raises(ValueError, match="rows disagree"):
        TripletArrays(t.human_boxes, t.object_boxes[:-1], t.hoi_classes)


box_row = st.tuples(coordinate, coordinate, extent, extent)


def box_accepted(row):
    x, y, w, h = row
    try:
        Box(x, y, x + w, y + h)
    except ValueError:
        return False
    return True


def triplets_accept(human_rows, object_rows):
    try:
        TripletArrays(
            np.array([(x, y, x + w, y + h) for x, y, w, h in human_rows]),
            np.array([(x, y, x + w, y + h) for x, y, w, h in object_rows]),
            np.zeros(len(human_rows), dtype=np.intp),
        )
    except ValueError:
        return False
    return True


@settings(max_examples=500, deadline=None)
@given(rows=st.lists(st.tuples(box_row, box_row), min_size=1, max_size=6))
def test_triplet_arrays_accept_exactly_the_boxes_a_box_accepts(rows):
    for h, o in rows:
        assert triplets_accept([h], [o]) == (box_accepted(h) and box_accepted(o))
    humans, objects = zip(*rows)
    assert triplets_accept(humans, objects) == all(map(box_accepted, humans + objects))


def test_triplet_rows_stack_and_take_in_order():
    triplets = [
        GroundTruthTriplet(
            Box(0.1 * k, 0.0, 0.1 * k + 0.2, 0.3), Box(0.5, 0.1 * k, 0.7, 0.1 * k + 0.1), k
        )
        for k in range(5)
    ]
    parts = [triplet_arrays(triplets[:2]), NO_TRIPLETS, triplet_arrays(triplets[2:])]
    stacked = synth_world.stack_triplets(parts)
    assert len(stacked) == 5 and stacked.hoi_classes.tolist() == list(range(5))
    assert stacked.human_boxes.tobytes() == box_array([t.human_box for t in triplets]).tobytes()
    assert stacked.object_boxes.tobytes() == box_array([t.object_box for t in triplets]).tobytes()
    assert len(synth_world.stack_triplets([])) == 0 and len(NO_TRIPLETS) == 0 and not NO_TRIPLETS
    taken = stacked.take(np.array([4, 1]))
    assert taken.hoi_classes.tolist() == [4, 1]
    want = box_array([triplets[4].object_box, triplets[1].object_box])
    assert taken.object_boxes.tobytes() == want.tobytes()


# --------------------------------------------------------------------------
# world generation against the per-draw reference


WORLD_EDGES = {
    "default": {},
    "one-human": {"humans_per_image": (1, 1)},  # integers(1) draws nothing
    "two-three-humans": {"humans_per_image": (2, 3)},
    "no-jitter": {"detection_jitter_sigma": 0.0},
    "no-feature-noise": {"feature_noise_sigma": 0.0},
    "feature-dim-4": {"feature_dim": 4},
    "no-rare": {"rare_class_fraction": 0.0},
}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("overrides", WORLD_EDGES.values(), ids=WORLD_EDGES)
def test_world_and_eval_images_equal_the_per_draw_reference(monkeypatch, overrides, seed):
    cfg = WorldConfig(n_images=160, seed=seed, **overrides)
    streams = []
    seed_streams = synth_world._seed_streams

    def recorded_streams(s):
        streams.append(seed_streams(s))
        return streams[-1]

    monkeypatch.setattr(synth_world, "_seed_streams", recorded_streams)
    images = images_of(generate_world(cfg))
    eval_images = images_of(generate_eval_images(cfg, 40))
    (_, train_rng, _), (_, _, eval_rng) = streams

    ref_images, ref_train_rng = world_reference.generate_world(cfg)
    ref_eval_images, ref_eval_rng = world_reference.generate_eval_images(cfg, 40)
    assert [image_bytes(im) for im in images] == [image_bytes(im) for im in ref_images]
    assert [image_bytes(im) for im in eval_images] == [image_bytes(im) for im in ref_eval_images]
    assert train_rng.bit_generator.state == ref_train_rng.bit_generator.state
    assert eval_rng.bit_generator.state == ref_eval_rng.bit_generator.state


@pytest.mark.parametrize("seed", range(5))
def test_class_plan_equals_the_per_slot_reference(seed):
    cfg = WorldConfig(n_images=2400, seed=seed)
    slots = np.random.default_rng(seed).integers(1, 4, cfg.n_images)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    plan = synth_world._plan_class_assignments(cfg, slots, rng)
    assert plan == world_reference._plan_class_assignments(cfg, slots, ref_rng)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


# Recipe of the pinned digest: sha256 over the images of the default world
# (generate_world(WorldConfig()), 240 images) in order; per image, the
# ASCII of repr((image_id, sorted(image_labels), number of triplets)), the
# ground-truth human boxes and object boxes as <f8 bytes and their classes
# as <i8 bytes, then per detection set (humans, then objects) the ASCII of
# repr(its length) and its boxes, class ids, confidences and appearance as
# <f8, <i8, <f8 and <f8 bytes. Computed on numpy 2.x Generator streams
# before the triplets became arrays, from the same values as objects.
DEFAULT_WORLD_SHA256 = "3463eb4242748e7d"


def world_digest(world):
    """The recipe above over the world's rows: the same bytes, in the same
    order, that it hashed over the world's images when they were objects."""
    h = hashlib.sha256()
    d, t = world.detection_rows.tolist(), world.triplet_rows.tolist()
    gt = world.triplets
    det = world.detections
    for i, n_humans in enumerate(world.n_humans.tolist()):
        labels = np.flatnonzero(world.labels[i]).tolist()
        h.update(repr((int(world.image_ids[i]), labels, t[i + 1] - t[i])).encode())
        h.update(np.asarray(gt.human_boxes[t[i] : t[i + 1]], dtype="<f8").tobytes())
        h.update(np.asarray(gt.object_boxes[t[i] : t[i + 1]], dtype="<f8").tobytes())
        h.update(np.asarray(gt.hoi_classes[t[i] : t[i + 1]], dtype="<i8").tobytes())
        for rows in (slice(d[i], d[i] + n_humans), slice(d[i] + n_humans, d[i + 1])):
            h.update(repr(rows.stop - rows.start).encode())
            for column, dtype in zip(
                (det.boxes, det.class_ids, det.confidences, det.appearance), ("<f8", "<i8", "<f8", "<f8")
            ):
                h.update(np.asarray(column[rows], dtype=dtype).tobytes())
    return h.hexdigest()


def test_default_world_arrays_are_pinned():
    # the golden run digests rest on the same streams. A change here means
    # the world's draws changed order or kind, or its arithmetic changed
    assert world_digest(generate_world(WorldConfig())).startswith(DEFAULT_WORLD_SHA256)


# Digests of the data_pass workload's worlds, by world_digest's recipe: the
# 2 400-image training world and its 240 test images at seeds 0 and 1
# (every other WorldConfig field the default). Taken from the per-image
# generator that the world-buffer generator replaced.
DATA_PASS_WORLD_SHA256 = {
    0: ("55e0e54f62ebec1f", "defaabf9d6267e5b"),
    1: ("82af763b5b537f4b", "b7f60650bd041f70"),
}


@pytest.mark.parametrize("seed", sorted(DATA_PASS_WORLD_SHA256))
def test_data_pass_worlds_are_pinned(seed):
    cfg = WorldConfig(n_images=2400, seed=seed)
    digests = (
        world_digest(generate_world(cfg))[:16],
        world_digest(generate_eval_images(cfg, 240))[:16],
    )
    assert digests == DATA_PASS_WORLD_SHA256[seed]


def test_no_eval_images_is_an_empty_world():
    world = generate_eval_images(WorldConfig(), 0)
    assert len(world) == 0 and len(world.detections) == 0 and len(world.triplets) == 0


def test_a_world_is_checked_once_whatever_its_size(monkeypatch):
    calls = []
    reject = synth_world._reject_degenerate

    def counted(boxes, what):
        calls.append(len(boxes))
        return reject(boxes, what)

    monkeypatch.setattr(synth_world, "_reject_degenerate", counted)
    per_world = []
    for n_images in (160, 320):
        calls.clear()
        generate_world(WorldConfig(n_images=n_images))
        per_world.append(len(calls))
    assert per_world[0] == per_world[1]
    # a set built by a caller is still checked when it is built
    calls.clear()
    d = SMALL_IMAGES[0].humans
    DetectionArrays(d.boxes, d.class_ids, d.confidences, d.appearance)
    assert calls == [len(d)]


def test_a_pickled_world_is_its_arrays():
    # an image is an index, not an object: the world pickles as its arrays
    # and a few hundred bytes of framing, whatever its number of images
    for world in (SMALL_WORLD, generate_world(WorldConfig(n_images=400))):
        arrays = [
            world.image_ids, world.supervision, world.detection_rows, world.n_humans,
            world.triplet_rows, world.labels,
            *(getattr(world.detections, name) for name in ("boxes", "class_ids", "confidences", "appearance")),
            world.triplets.human_boxes, world.triplets.object_boxes, world.triplets.hoi_classes,
        ]
        assert len(pickle.dumps(world)) <= sum(a.nbytes for a in arrays) + 2048


# coordinates that reach every branch of the box sanitizer: reversed axes,
# corners off the unit canvas, sides at or below _MIN_BOX_SIZE, signed zeros
_MIN = synth_world._MIN_BOX_SIZE
corner = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, _MIN, 0.5 * _MIN, 1.0 - _MIN, 1.0 - 0.5 * _MIN, -0.25, 1.25]),
    st.floats(-0.5, 1.5),
)
side = st.one_of(
    st.sampled_from([0.0, -0.0, _MIN, -_MIN, 0.5 * _MIN, -0.5 * _MIN, 5e-324]),
    st.floats(-1.0, 1.0),
)
unsanitized_box = st.builds(lambda x, y, w, h: (x, y, x + w, y + h), corner, corner, side, side)


@settings(max_examples=500, deadline=None)
@given(boxes=st.lists(unsanitized_box, min_size=1, max_size=8))
def test_column_sanitizer_equals_the_per_box_reference_bit_for_bit(boxes):
    want = np.array([world_reference.sanitize_box(*box) for box in boxes], dtype=np.float64)
    got = synth_world._sanitize_boxes(np.array(boxes, dtype=np.float64))
    assert got.tobytes() == want.tobytes()


# tracemalloc peak of generate_world(WorldConfig(n_images=400)) for the
# per-image generator that the world-buffer generator replaced (CPython
# 3.11.7, numpy 2.4.6, x86-64). The draw buffers and the world's arrays
# must not cost much more than the images they become.
PER_IMAGE_GENERATOR_PEAK_BYTES = 1_373_563


def test_world_generation_peak_memory_stays_near_the_per_image_generators():
    cfg = WorldConfig(n_images=400)
    generate_world(cfg)  # allocations made once per process are not the generator's
    tracemalloc.start()
    try:
        generate_world(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * PER_IMAGE_GENERATOR_PEAK_BYTES


def test_a_world_rejects_offsets_that_disagree_with_its_arrays():
    world = world_of(SMALL_IMAGES[:3], SMALL.n_hoi_classes)
    no_human = world.n_humans.copy()
    no_human[2] = 0
    with pytest.raises(ValueError, match="image 2: every image needs at least one human and one object"):
        dataclasses.replace(world, n_humans=no_human)
    no_object = world.n_humans.copy()
    no_object[1] = world.detection_rows[2] - world.detection_rows[1]
    with pytest.raises(ValueError, match="image 1: every image needs"):
        dataclasses.replace(world, n_humans=no_object)
    decreasing = world.triplet_rows.copy()
    decreasing[1] = decreasing[2] + 1
    for change in (
        {"triplet_rows": world.triplet_rows[:-1]},
        {"triplet_rows": decreasing},
        {"detection_rows": world.detection_rows - 1},
        {"labels": world.labels[:2]},
        {"supervision": world.supervision[:, None]},
    ):
        with pytest.raises(ValueError, match="offsets of a world of 3 images disagree"):
            dataclasses.replace(world, **change)


def test_images_of_and_world_of_are_inverse():
    world = split_supervision(SMALL_WORLD, 0.4, 0.3, 0.3, seed=2)
    back = world_of(images_of(world), SMALL.n_hoi_classes)
    assert world_bytes(back) == world_bytes(world)
    assert world_digest(back) == world_digest(world)


def test_tagging_equals_the_per_image_reference():
    supervision = np.random.default_rng(3).integers(0, 3, len(SMALL_WORLD)).astype(np.int8)
    want = [im.with_supervision(TAGS[c]) for im, c in zip(SMALL_IMAGES, supervision)]
    assert world_bytes(SMALL_WORLD.tagged(supervision)) == [image_bytes(im) for im in want]


def test_with_triplets_replaces_the_rows_of_the_given_images():
    world = split_supervision(SMALL_WORLD, 0.3, 0.4, 0.3, seed=4)
    parts = {9: SMALL_IMAGES[7].gt_triplets, 2: NO_TRIPLETS, 5: SMALL_IMAGES[0].gt_triplets}
    got = world.with_triplets(list(parts), list(parts.values()))
    want = [
        dataclasses.replace(im, gt_triplets=parts.get(k, im.gt_triplets))
        for k, im in enumerate(images_of(world))
    ]
    assert world_bytes(got) == [image_bytes(im) for im in want]
    assert world_bytes(world.with_triplets([], [])) == world_bytes(world)
