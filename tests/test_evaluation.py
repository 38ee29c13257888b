import math

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from eval_reference import HOIPrediction, array_ap, as_predictions, reference_match_and_ap
from hoimix.evaluation import (
    CSV_HEADER,
    collect_predictions,
    evaluate,
    evaluate_predictions,
    report_csv_row,
    report_to_dict,
)
from hoimix.geometry import Box, pair_iou
from hoimix.model import ModelParams
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


def oracle_predictions(images):
    preds = []
    for im in images:
        for t in im.gt_triplets:
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


SMALL = WorldConfig(
    n_object_classes=3, n_verb_classes=2, n_hoi_classes=6, n_images=60, seed=7
)


def test_oracle_predictions_reach_full_map():
    images = generate_eval_images(SMALL, 30)
    report = evaluate_predictions(as_predictions(oracle_predictions(images), 6), images, set(), 6)
    assert report.map_full == 1.0


def test_random_scores_far_below_oracle():
    rng = np.random.default_rng(3)
    images = generate_eval_images(SMALL, 30)
    values = []
    for _ in range(5):
        preds = []
        for im in images:
            for t in im.gt_triplets:
                preds.append(
                    HOIPrediction(im.image_id, t.human_box, t.object_box,
                                  int(rng.integers(6)), float(rng.random()))
                )
        values.append(evaluate_predictions(as_predictions(preds, 6), images, set(), 6).map_full)
    assert np.mean(values) < 0.6
    assert np.mean(values) > 0.0


def test_map_full_is_unweighted_mean_of_defined_aps():
    images = generate_eval_images(SMALL, 30)
    report = evaluate_predictions(as_predictions(oracle_predictions(images), 6), images, {0, 1}, 6)
    defined = [v for v in report.ap_per_class if not math.isnan(v)]
    assert report.map_full == pytest.approx(sum(defined) / len(defined), abs=1e-12)


def test_rare_nonrare_partition_means():
    images = generate_eval_images(SMALL, 30)
    preds = oracle_predictions(images)
    # degrade one rare and one non-rare class with junk high-score predictions
    for image_id in {im.image_id for im in images}:
        preds.append(pred(image_id, 90, 90, 95, 95, score=2.0, hoi_class=0))
        preds.append(pred(image_id, 90, 90, 95, 95, score=2.0, hoi_class=3))
    rare_ids = {0, 1}
    report = evaluate_predictions(as_predictions(preds, 6), images, rare_ids, 6)
    ap = report.ap_per_class
    rare_vals = [ap[c] for c in sorted(rare_ids) if not math.isnan(ap[c])]
    nonrare_vals = [ap[c] for c in (2, 3, 4, 5) if not math.isnan(ap[c])]
    assert report.map_rare == pytest.approx(np.mean(rare_vals), abs=1e-12)
    assert report.map_nonrare == pytest.approx(np.mean(nonrare_vals), abs=1e-12)
    assert report.map_rare < 1.0 and report.map_nonrare < 1.0


def test_absent_class_flagged_and_excluded():
    images = generate_eval_images(SMALL, 30)
    report = evaluate_predictions(as_predictions(oracle_predictions(images), 7), images, set(), 7)
    assert math.isnan(report.ap_per_class[6])
    assert report.map_full == 1.0


def test_evaluate_runs_model_over_images():
    images = generate_world(SMALL)
    test = generate_eval_images(SMALL, 20)
    params = ModelParams.init(SMALL.feature_dim, 16, 6, seed=0)
    report = evaluate(params, test, rare_classes(images), feature_dim=SMALL.feature_dim)
    assert 0.0 <= report.map_full <= 1.0
    preds = collect_predictions(params, test, feature_dim=SMALL.feature_dim)
    assert len(set(preds.pairs.image_ids.tolist())) == 20


def test_empty_test_set_rejected():
    with pytest.raises(ValueError):
        evaluate_predictions([], [], set(), 4)


def test_csv_row_matches_header():
    images = generate_eval_images(SMALL, 20)
    report = evaluate_predictions(as_predictions(oracle_predictions(images), 6), images, {1}, 6)
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
    report = evaluate_predictions(as_predictions(oracle_predictions(images), 7), images, {1}, 7)
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


def test_model_scores_match_reference_per_class():
    """evaluate_predictions on collect_predictions equals the object-based
    reference run per class over the same (pair, class) entries, inserted in
    image order, then pair order."""
    test = generate_eval_images(SMALL, 20)
    for seed in range(3):
        params = ModelParams.init(SMALL.feature_dim, 16, 6, seed=seed)
        preds = collect_predictions(params, test, feature_dim=SMALL.feature_dim)
        assert len(preds) == preds.scores.shape[0] * 6
        report = evaluate_predictions(preds, test, set(), 6)
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
                for im in test
                for t in im.gt_triplets
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
        evaluate(params, test, set(), feature_dim=SMALL.feature_dim)
