import hashlib
import math

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from box_reference import Box, triplet_objects
from image_reference import images_of
from eval_reference import (
    HOIPrediction,
    array_ap,
    as_predictions,
    box_pairs,
    dense_greedy_ap,
    reference_hits,
    reference_match_and_ap,
)
from hoimix.batching import make_fs_targets, pair_grids
from hoimix.evaluation import (
    CSV_HEADER,
    _greedy_ap,
    collect_predictions,
    evaluate,
    evaluate_predictions,
    ground_truth,
    prepare_eval_set,
    report_csv_row,
    report_to_dict,
)
from hoimix.geometry import MATCH_CHUNK, MATCH_IOU, BoxPairs, pair_hits, pair_iou
from hoimix.experiment import ExperimentConfig
from hoimix.model import ModelParams
from hoimix.supervision import SupervisionTag
from hoimix.synth_world import WorldConfig, generate_eval_images, generate_world, rare_classes


def box(x, y, size=1.0):
    return Box(x, y, x + size, y + size)


def pred(image_id, hx, hy, ox, oy, score, hoi_class=0):
    return HOIPrediction(
        image_id=image_id,
        human_box=box(hx, hy),
        object_box=box(ox, oy),
        hoi_class=hoi_class,
        score=score,
    )


def brute_force_ap(predictions, gt_pairs):
    """Independent scalar-loop re-implementation of the matching protocol."""
    if not gt_pairs:
        return None
    ranked = sorted(range(len(predictions)), key=lambda i: (-predictions[i].score, i))
    matched = set()
    flags = []
    for idx in ranked:
        p = predictions[idx]
        best, best_iou = None, 0.5
        for g_idx, (image_id, h, o) in enumerate(gt_pairs):
            if g_idx in matched or image_id != p.image_id:
                continue
            overlap = pair_iou((p.human_box, p.object_box), (h, o))
            if overlap > best_iou or (best is None and overlap == best_iou):
                if overlap >= 0.5:
                    best, best_iou = g_idx, overlap
        if best is not None:
            matched.add(best)
            flags.append(True)
        else:
            flags.append(False)
    ap = 0.0
    tp = 0
    n = len(gt_pairs)
    # all-point interpolation via max precision at recall >= r over steps
    precisions, recalls = [], []
    fp = 0
    for flag in flags:
        tp += flag
        fp += not flag
        precisions.append(tp / (tp + fp))
        recalls.append(tp / n)
    for k, flag in enumerate(flags):
        if flag:
            best_prec = max(precisions[k:])
            ap += best_prec * (1 / n)
    return ap


def test_perfect_single_match_is_one():
    gts = [(0, box(0, 0), box(2, 0))]
    predictions = [pred(0, 0, 0, 2, 0, score=0.9)]
    assert array_ap(predictions, gts) == 1.0


def test_one_tp_one_fp_over_two_gt_is_half():
    gts = [(0, box(0, 0), box(2, 0)), (0, box(5, 5), box(7, 5))]
    predictions = [
        pred(0, 0, 0, 2, 0, score=0.9),
        pred(0, 20, 20, 22, 20, score=0.5),
    ]
    assert array_ap(predictions, gts) == pytest.approx(0.5)


def test_duplicate_detection_counts_as_false_positive():
    gts = [(0, box(0, 0), box(2, 0))]
    predictions = [
        pred(0, 0, 0, 2, 0, score=0.9),
        pred(0, 0.01, 0, 2.01, 0, score=0.8),  # same gt, already matched
        pred(0, 0.02, 0, 2.02, 0, score=0.7),
    ]
    ap = array_ap(predictions, gts)
    assert ap == 1.0  # TP ranked first; later duplicates only add FPs after full recall
    # flipping scores so a duplicate outranks: the high-IoU one wins its match
    predictions_rev = list(reversed(predictions))
    assert array_ap(predictions_rev, gts) == 1.0
    assert brute_force_ap(predictions, gts) == array_ap(predictions, gts)


def test_ap_invariant_under_monotone_score_transforms():
    rng = np.random.default_rng(0)
    gts = [(0, box(0, 0), box(2, 0)), (1, box(1, 1), box(3, 1))]
    predictions = [
        pred(0, 0, 0, 2, 0, score=0.9),
        pred(1, 1.2, 1, 3.2, 1, score=0.6),
        pred(0, 9, 9, 11, 9, score=0.3),
    ]
    base = array_ap(predictions, gts)
    for transform in (lambda s: 2 * s + 1, lambda s: s**3, lambda s: math.exp(s)):
        mapped = [
            HOIPrediction(p.image_id, p.human_box, p.object_box, p.hoi_class, transform(p.score))
            for p in predictions
        ]
        assert array_ap(mapped, gts) == pytest.approx(base, abs=1e-12)


def test_low_score_false_positive_never_increases_ap():
    rng = np.random.default_rng(1)
    for _ in range(20):
        gts = [(0, box(0, 0), box(2, 0)), (0, box(4, 4), box(6, 4))]
        predictions = [
            pred(0, rng.uniform(-0.2, 0.2), 0, 2 + rng.uniform(-0.2, 0.2), 0, score=0.9),
            pred(0, 4, 4 + rng.uniform(-0.2, 0.2), 6, 4, score=0.7),
        ]
        base = array_ap(predictions, gts)
        junk = pred(0, 50, 50, 60, 60, score=0.01)
        assert array_ap(predictions + [junk], gts) <= base + 1e-12


def test_cross_image_matching_forbidden():
    gts = [(0, box(0, 0), box(2, 0))]
    predictions = [pred(1, 0, 0, 2, 0, score=0.9)]  # right boxes, wrong image
    assert array_ap(predictions, gts) == 0.0


def test_no_gt_returns_undefined():
    assert array_ap([pred(0, 0, 0, 2, 0, score=0.5)], []) is None


def test_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(2)
    for _ in range(30):
        gts = [
            (int(rng.integers(2)), box(rng.uniform(0, 4), rng.uniform(0, 4)),
             box(rng.uniform(0, 4), rng.uniform(0, 4)))
            for _ in range(int(rng.integers(1, 4)))
        ]
        predictions = []
        for k in range(10):
            g = gts[int(rng.integers(len(gts)))]
            jitter = rng.uniform(-0.6, 0.6, size=4)
            predictions.append(
                HOIPrediction(
                    image_id=g[0] if rng.random() < 0.8 else int(rng.integers(2)),
                    human_box=box(g[1].x_min + jitter[0], g[1].y_min + jitter[1]),
                    object_box=box(g[2].x_min + jitter[2], g[2].y_min + jitter[3]),
                    hoi_class=0,
                    score=float(rng.random()),
                )
            )
        assert array_ap(predictions, gts) == pytest.approx(
            brute_force_ap(predictions, gts), abs=1e-12
        )


def oracle_predictions(world):
    preds = []
    for im in images_of(world):
        for t in triplet_objects(im.gt_triplets):
            preds.append(
                HOIPrediction(
                    image_id=im.image_id,
                    human_box=t.human_box,
                    object_box=t.object_box,
                    hoi_class=t.hoi_class,
                    score=1.0,
                )
            )
    return preds


def evaluate_on(predictions, images, rare_ids, n_classes):
    """evaluate_predictions against the ground truth of the world's images,
    matched to the predictions' own pairs."""
    truth = ground_truth(predictions.pairs, images)
    return evaluate_predictions(predictions, truth, rare_ids, n_classes)


SMALL = WorldConfig(
    n_object_classes=3, n_verb_classes=2, n_hoi_classes=6, n_images=60, seed=7
)


def test_oracle_predictions_reach_full_map():
    images = generate_eval_images(SMALL, 30)
    report = evaluate_on(as_predictions(oracle_predictions(images), 6), images, set(), 6)
    assert report.map_full == 1.0


def test_random_scores_far_below_oracle():
    rng = np.random.default_rng(3)
    images = generate_eval_images(SMALL, 30)
    values = []
    for _ in range(5):
        preds = []
        for im in images_of(images):
            for t in triplet_objects(im.gt_triplets):
                preds.append(
                    HOIPrediction(im.image_id, t.human_box, t.object_box,
                                  int(rng.integers(6)), float(rng.random()))
                )
        values.append(evaluate_on(as_predictions(preds, 6), images, set(), 6).map_full)
    assert np.mean(values) < 0.6
    assert np.mean(values) > 0.0


def test_map_full_is_unweighted_mean_of_defined_aps():
    images = generate_eval_images(SMALL, 30)
    report = evaluate_on(as_predictions(oracle_predictions(images), 6), images, {0, 1}, 6)
    defined = [v for v in report.ap_per_class if not math.isnan(v)]
    assert report.map_full == pytest.approx(sum(defined) / len(defined), abs=1e-12)


def test_rare_nonrare_partition_means():
    images = generate_eval_images(SMALL, 30)
    preds = oracle_predictions(images)
    # degrade one rare and one non-rare class with junk high-score predictions
    for image_id in images.image_ids.tolist():
        preds.append(pred(image_id, 90, 90, 95, 95, score=2.0, hoi_class=0))
        preds.append(pred(image_id, 90, 90, 95, 95, score=2.0, hoi_class=3))
    rare_ids = {0, 1}
    report = evaluate_on(as_predictions(preds, 6), images, rare_ids, 6)
    ap = report.ap_per_class
    rare_vals = [ap[c] for c in sorted(rare_ids) if not math.isnan(ap[c])]
    nonrare_vals = [ap[c] for c in (2, 3, 4, 5) if not math.isnan(ap[c])]
    assert report.map_rare == pytest.approx(np.mean(rare_vals), abs=1e-12)
    assert report.map_nonrare == pytest.approx(np.mean(nonrare_vals), abs=1e-12)
    assert report.map_rare < 1.0 and report.map_nonrare < 1.0


def test_absent_class_flagged_and_excluded():
    images = generate_eval_images(SMALL, 30)
    report = evaluate_on(as_predictions(oracle_predictions(images), 7), images, set(), 7)
    assert math.isnan(report.ap_per_class[6])
    assert report.map_full == 1.0


def test_evaluate_runs_model_over_images():
    images = generate_world(SMALL)
    test = generate_eval_images(SMALL, 20)
    params = ModelParams.init(SMALL.feature_dim, 16, 6, seed=0)
    test_set = prepare_eval_set(test, rare_classes(images), feature_dim=SMALL.feature_dim)
    report = evaluate(params, test_set)
    assert 0.0 <= report.map_full <= 1.0
    preds = collect_predictions(params, test_set)
    assert len(set(preds.pairs.image_ids.tolist())) == 20


def test_empty_test_set_rejected():
    empty = generate_eval_images(SMALL, 0)
    with pytest.raises(ValueError, match="empty test set"):
        prepare_eval_set(empty, set(), feature_dim=SMALL.feature_dim)
    no_pairs = BoxPairs(np.empty(0, np.int64), np.empty((0, 4)), np.empty((0, 4)))
    with pytest.raises(ValueError, match="no ground-truth triplets"):
        ground_truth(no_pairs, empty)


def test_test_set_without_ground_truth_rejected():
    # WS images keep their labels but carry no triplets: every AP would be
    # undefined and map_full NaN
    test = generate_eval_images(SMALL, 10).tagged(np.full(10, SupervisionTag.WS.code))
    with pytest.raises(ValueError, match="no ground-truth triplets"):
        prepare_eval_set(test, set(), feature_dim=SMALL.feature_dim)


def test_predictions_must_score_the_pairs_the_truth_was_matched_against():
    images = generate_eval_images(SMALL, 10)
    predictions = as_predictions(oracle_predictions(images), 6)
    truth = ground_truth(predictions.pairs, images)
    assert evaluate_predictions(predictions, truth, set(), 6).map_full == 1.0
    fewer = as_predictions(oracle_predictions(images)[1:], 6)
    with pytest.raises(ValueError):
        evaluate_predictions(fewer, truth, set(), 6)


def test_csv_row_matches_header():
    images = generate_eval_images(SMALL, 20)
    report = evaluate_on(as_predictions(oracle_predictions(images), 6), images, {1}, 6)
    row = report_csv_row(report, "run7", "70/30/0", "Independent", True, 3)
    fields = row.split(",")
    assert len(fields) == len(CSV_HEADER.split(","))
    assert fields[0] == "run7"
    assert fields[1] == "70/30/0"
    assert fields[2] == "Independent"
    assert fields[3] == "on"
    assert fields[4] == "3"
    assert float(fields[5]) == report.map_full


def test_report_dict_is_json_friendly():
    import json

    images = generate_eval_images(SMALL, 20)
    report = evaluate_on(as_predictions(oracle_predictions(images), 7), images, {1}, 7)
    payload = json.dumps(report_to_dict(report))
    decoded = json.loads(payload)
    assert decoded["map_full"] == report.map_full
    assert decoded["ap_per_class"][6] is None


def test_iou_exactly_at_threshold_matches():
    # human IoU 1, object IoU 1/2: the pair reaches MATCH_IOU exactly
    gts = [(0, box(0, 0), Box(0, 0, 2, 1))]
    predictions = [HOIPrediction(0, box(0, 0), box(0, 0), 0, 0.9)]
    assert pair_iou((box(0, 0), box(0, 0)), (box(0, 0), Box(0, 0, 2, 1))) == 0.5
    assert array_ap(predictions, gts) == reference_match_and_ap(predictions, gts) == 1.0


def test_iou_tie_matches_the_first_ground_truth_pair():
    # A overlaps both ground-truth pairs at exactly 0.5 and takes the first;
    # B overlaps only the first, finds it matched and is a false positive
    gts = [(0, box(0, 0), Box(0, 0, 2, 1)), (0, box(0, 0), Box(1, 0, 3, 1))]
    predictions = [
        HOIPrediction(0, box(0, 0), Box(1, 0, 2, 1), 0, 0.9),
        HOIPrediction(0, box(0, 0), Box(0, 0, 2, 1), 0, 0.8),
    ]
    assert array_ap(predictions, gts) == reference_match_and_ap(predictions, gts) == 0.5


# boxes on a half-unit grid, so that IoUs of exactly 0.5 and equal IoUs
# against several ground-truth pairs are common
grid_box = st.builds(
    lambda x, y, w, h: Box(x / 2, y / 2, (x + w) / 2, (y + h) / 2),
    st.integers(0, 6),
    st.integers(0, 6),
    st.integers(1, 4),
    st.integers(1, 4),
)


@settings(max_examples=300, deadline=None)
@given(
    gts=st.lists(st.tuples(st.integers(0, 1), grid_box, grid_box), max_size=6),
    raw=st.lists(
        st.tuples(
            st.integers(0, 2),  # image 2 never has ground truth
            grid_box,
            grid_box,
            st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),  # ties are common
        ),
        max_size=20,
    ),
)
@example(
    gts=[(0, Box(0, 0, 1, 1), Box(0, 0, 2, 1)), (0, Box(0, 0, 1, 1), Box(0, 0, 2, 1))],
    raw=[(0, Box(0, 0, 1, 1), Box(0, 0, 1, 1), 0.5), (0, Box(0, 0, 1, 1), Box(0, 0, 1, 1), 0.5)],
)
def test_array_path_equals_object_reference(gts, raw):
    predictions = [HOIPrediction(i, h, o, 0, s) for i, h, o, s in raw]
    assert array_ap(predictions, gts) == reference_match_and_ap(predictions, gts)


@st.composite
def tied_instances(draw):
    """A single-class instance whose scores take a few values, 0.0 and -0.0
    among them, over 30 or more predictions, many of them on ground-truth
    boxes so that tied scores are often hits."""
    gts = draw(st.lists(st.tuples(st.integers(0, 1), grid_box, grid_box), min_size=1, max_size=6))
    score = st.sampled_from([0.0, -0.0, 0.25, 1.0])
    on_gt = st.builds(
        lambda g, s: HOIPrediction(g[0], g[1], g[2], 0, s), st.sampled_from(gts), score
    )
    elsewhere = st.builds(
        lambda i, h, o, s: HOIPrediction(i, h, o, 0, s), st.integers(0, 2), grid_box, grid_box, score
    )
    return gts, draw(st.lists(on_gt | elsewhere, min_size=30, max_size=60))


@settings(max_examples=200, deadline=None)
@given(instance=tied_instances())
def test_array_path_equals_object_reference_under_ties(instance):
    gts, predictions = instance
    assert array_ap(predictions, gts) == reference_match_and_ap(predictions, gts)


def ap_input(scores, cells, n_gt, overlap=None):
    """_greedy_ap's arguments for these scores and (row, ground truth) hits,
    at IoU 0.75 unless given."""
    rows = np.array([r for r, _ in cells], dtype=np.intp)
    gt_index = np.array([g for _, g in cells], dtype=np.intp)
    overlap = np.full(len(cells), 0.75) if overlap is None else np.array(overlap, dtype=np.float64)
    return np.array(scores, dtype=np.float64), rows, gt_index, overlap, n_gt


@st.composite
def hit_instances(draw):
    """_greedy_ap's input drawn directly: scores from a few values, 0.0 and
    -0.0 among them, so that most hits are tied; distinct (row, ground truth)
    hits, whose rows may include the first and last row, with IoUs on a
    grid so that several ground-truth pairs often tie for a row."""
    n = draw(st.integers(1, 40))
    scores = draw(st.lists(st.sampled_from([0.0, -0.0, 0.25, 1.0, -1.0]), min_size=n, max_size=n))
    n_gt = draw(st.integers(1, 6))
    cells = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n_gt - 1)), unique=True, max_size=3 * n)
    )
    iou = st.sampled_from([0.5, 0.625, 0.75, 1.0])
    return ap_input(scores, cells, n_gt, draw(st.lists(iou, min_size=len(cells), max_size=len(cells))))


@settings(max_examples=400, deadline=None)
@given(instance=hit_instances())
# no true positive at all
@example(instance=ap_input([0.5, 0.25, 0.0], [], 2))
# the only true positive at rank 0, and at rank n - 1
@example(instance=ap_input([0.9, 0.5, 0.25], [(0, 0)], 1))
@example(instance=ap_input([0.9, 0.5, 0.25], [(2, 0)], 3))
# true positives at both ends under ties, signed zeros included
@example(instance=ap_input([0.0, -0.0, 0.0, -0.0], [(0, 0), (3, 1)], 2))
@example(instance=ap_input([-0.0, 0.0, 1.0, 0.0], [(2, 0), (3, 1), (0, 1)], 3))
def test_ap_over_the_true_positives_equals_the_dense_curve_bit_for_bit(instance):
    ap, dense = _greedy_ap(*instance), dense_greedy_ap(*instance)
    assert ap.hex() == dense.hex()


def hit_set(hits):
    return sorted(zip(hits[0].tolist(), hits[1].tolist(), (v.tobytes() for v in hits[2])))


@settings(max_examples=200, deadline=None)
@given(
    pairs=st.lists(st.tuples(st.integers(0, 3), grid_box, grid_box), max_size=20),
    gts=st.lists(st.tuples(st.integers(0, 3), grid_box, grid_box), max_size=8),
)
def test_hits_on_interleaved_image_ids_equal_the_per_image_loop(pairs, gts):
    pairs, gts = box_pairs(pairs), box_pairs(gts)
    assert hit_set(pair_hits(pairs, gts, MATCH_IOU)) == hit_set(reference_hits(pairs, gts))


def test_hits_across_chunks_equal_the_per_image_loop():
    # more ground-truth rows than one chunk, with both sides' image ids shuffled
    rng = np.random.default_rng(5)
    n_gt = 2 * MATCH_CHUNK + 7
    corner = rng.integers(0, 4, size=(n_gt, 2, 2)) / 2.0
    gt = BoxPairs(rng.integers(0, 40, n_gt), np.hstack([corner[:, 0], corner[:, 0] + 1.0]),
                  np.hstack([corner[:, 1], corner[:, 1] + 1.0]))
    take = rng.integers(0, n_gt, 3 * n_gt)
    jitter = rng.uniform(-0.1, 0.1, size=(len(take), 2, 1))
    pairs = BoxPairs(gt.image_ids[take], gt.human_boxes[take] + jitter[:, 0],
                     gt.object_boxes[take] + jitter[:, 1])
    hits = pair_hits(pairs, gt, MATCH_IOU)
    # each pair overlaps the ground-truth pair it was drawn from with IoU > 0.6
    assert len(hits[0]) >= len(take)
    assert hit_set(hits) == hit_set(reference_hits(pairs, gt))


def test_fs_targets_and_ground_truth_find_the_same_hits():
    # the region-level targets and mAP's true-positive candidates follow one
    # rule: on the same grid and truths they hit the same (pair, class) entries
    cfg = ExperimentConfig()
    world = generate_eval_images(cfg.world, cfg.n_test_images)
    grid = pair_grids(world, range(len(world)), cfg.world.feature_dim, cfg.top_k)
    Y = make_fs_targets(grid, world.triplets, world.triplet_owner(), cfg.world.n_hoi_classes)
    pairs = BoxPairs(np.repeat(grid.image_ids, np.diff(grid.offsets)), grid.human_boxes, grid.object_boxes)
    truth = ground_truth(pairs, world)
    assert len(world.triplets) > 2 * MATCH_CHUNK
    from_truth = {(r, c) for c, (rows, _, _, _) in truth.classes.items() for r in rows.tolist()}
    assert from_truth
    assert set(zip(*(axis.tolist() for axis in np.nonzero(Y)))) == from_truth


# Recipe of the evaluation digests: the default test set (the default
# world's generate_eval_images at ExperimentConfig's n_test_images and
# top_k) scored by ModelParams.init(23, 64, 24, 0); then sha256 over
# collect_predictions(...).scores.tobytes() and, separately, over the
# report's ap_per_class.tobytes(). The prefixes hold for numpy 2.x
# Generator streams and scipy-openblas on x86-64.
EVAL_DIGESTS = ("8a54ecc0ead9bd1e", "b9a5e5ef0a889571")


def test_default_test_set_evaluation_digests_are_pinned():
    cfg = ExperimentConfig()
    test = generate_eval_images(cfg.world, cfg.n_test_images)
    test_set = prepare_eval_set(test, set(), feature_dim=cfg.world.feature_dim, top_k=cfg.top_k)
    params = ModelParams.init(cfg.world.feature_dim, cfg.hidden_dim, cfg.world.n_hoi_classes, 0)
    scores = collect_predictions(params, test_set).scores
    report = evaluate(params, test_set)
    digests = tuple(
        hashlib.sha256(a.tobytes()).hexdigest()[:16] for a in (scores, report.ap_per_class)
    )
    assert digests == EVAL_DIGESTS


def test_model_scores_match_reference_per_class():
    """evaluate_predictions on collect_predictions equals the object-based
    reference run per class over the same (pair, class) entries, inserted in
    image order, then pair order."""
    test = generate_eval_images(SMALL, 20)
    test_set = prepare_eval_set(test, set(), feature_dim=SMALL.feature_dim)
    for seed in range(3):
        params = ModelParams.init(SMALL.feature_dim, 16, 6, seed=seed)
        preds = collect_predictions(params, test_set)
        assert len(preds) == preds.scores.shape[0] * 6
        report = evaluate_predictions(preds, test_set.truth, set(), 6)
        pairs = preds.pairs
        boxes = [
            (int(i), Box.from_list(h), Box.from_list(o))
            for i, h, o in zip(pairs.image_ids, pairs.human_boxes, pairs.object_boxes)
        ]
        for c in range(6):
            objects = [
                HOIPrediction(i, h, o, c, float(s)) for (i, h, o), s in zip(boxes, preds.scores[:, c])
            ]
            gts = [
                (im.image_id, t.human_box, t.object_box)
                for im in images_of(test)
                for t in triplet_objects(im.gt_triplets)
                if t.hoi_class == c
            ]
            expected = reference_match_and_ap(objects, gts)
            if expected is None:
                assert math.isnan(report.ap_per_class[c])
            else:
                assert report.ap_per_class[c] == expected


def test_non_finite_scores_rejected():
    test = generate_eval_images(SMALL, 5)
    params = ModelParams.init(SMALL.feature_dim, 16, 6, seed=0)
    params.w_cls[0, 2] = np.nan
    with pytest.raises(ValueError):
        evaluate(params, prepare_eval_set(test, set(), feature_dim=SMALL.feature_dim))
