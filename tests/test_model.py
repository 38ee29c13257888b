import numpy as np
import pytest

from hoimix.checkpoint import load_checkpoint, save_checkpoint
from hoimix.model import (
    ModelParams,
    aggregate_image_level,
    backward,
    forward,
    infer_pairs,
)


def make_params(feature_dim=6, hidden=8, n_classes=4, seed=0):
    return ModelParams.init(feature_dim, hidden, n_classes, seed)


def ranked(params, features):
    """infer_pairs' three arrays as a list of (pair, class, probability)."""
    return list(zip(*(a.tolist() for a in infer_pairs(params, features))))


def test_zero_scores_give_uniform_product():
    # force zero raw scores: zero heads regardless of features
    params = make_params(n_classes=4)
    params.w_cls[:] = 0.0
    params.b_cls[:] = 0.0
    params.w_sel[:] = 0.0
    params.b_sel[:] = 0.0
    sm = forward(params, np.ones((3, 6)))
    np.testing.assert_allclose(sm.sigma_c, 0.25)
    np.testing.assert_allclose(sm.sigma_s, 1 / 3)
    np.testing.assert_allclose(sm.P, 1 / 12)
    np.testing.assert_allclose(aggregate_image_level(sm.P), 0.25)


def test_single_pair_collapses_selection_softmax():
    params = make_params()
    sm = forward(params, np.random.default_rng(0).normal(size=(1, 6)))
    np.testing.assert_allclose(sm.sigma_s, 1.0)
    np.testing.assert_allclose(sm.P, sm.sigma_c)
    np.testing.assert_allclose(aggregate_image_level(sm.P), sm.sigma_c[0])


def test_row_and_column_sums_are_stochastic():
    rng = np.random.default_rng(1)
    params = make_params(n_classes=6)
    for _ in range(50):
        sm = forward(params, rng.normal(size=(5, 6)))
        np.testing.assert_allclose(sm.sigma_c.sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(sm.sigma_s.sum(axis=0), 1.0, atol=1e-9)
        assert np.all(sm.P >= 0.0)
        assert np.all(sm.P <= np.minimum(sm.sigma_c, sm.sigma_s) + 1e-15)


def test_extreme_magnitudes_stay_finite():
    params = make_params()
    for scale in (1e4, -1e4):
        sm = forward(params, np.full((4, 6), scale))
        assert np.all(np.isfinite(sm.P))
        np.testing.assert_allclose(sm.sigma_c.sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(sm.sigma_s.sum(axis=0), 1.0, atol=1e-9)


def test_non_finite_features_rejected():
    params = make_params()
    bad = np.ones((2, 6))
    bad[1, 3] = np.nan
    with pytest.raises(ValueError):
        forward(params, bad)


def test_aggregate_bounded_over_random_passes():
    rng = np.random.default_rng(2)
    params = make_params(n_classes=5)
    for _ in range(300):
        n = int(rng.integers(1, 9))
        p = aggregate_image_level(forward(params, rng.normal(size=(n, 6)) * 3).P)
        assert np.all(p >= 0.0) and np.all(p <= 1.0)


def test_zero_upstream_gives_zero_gradients():
    params = make_params()
    X = np.random.default_rng(3).normal(size=(4, 6))
    grads = backward(params, forward(params, X), np.zeros((4, 4)))
    for name, g in grads.items():
        np.testing.assert_array_equal(g, 0.0)


def test_backward_matches_finite_differences_through_P():
    rng = np.random.default_rng(4)
    params = make_params(feature_dim=5, hidden=7, n_classes=3, seed=11)
    X = rng.normal(size=(4, 5))
    W = rng.normal(size=(4, 3))  # arbitrary linear functional of P

    def value(p):
        return float((forward(p, X).P * W).sum())

    grads = backward(params, forward(params, X), W)
    h = 1e-6
    for name, arr in params.items():
        flat = arr.ravel()
        g = grads[name].ravel()
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            up = value(params)
            flat[k] = orig - h
            down = value(params)
            flat[k] = orig
            fd = (up - down) / (2 * h)
            assert fd == pytest.approx(g[k], rel=1e-4, abs=1e-8)


def test_upstream_on_aggregate_broadcasts_over_rows():
    rng = np.random.default_rng(5)
    params = make_params()
    X = rng.normal(size=(3, 6))
    v = rng.normal(size=4)
    g_vec = backward(params, forward(params, X), v)
    g_mat = backward(params, forward(params, X), np.tile(v, (3, 1)))
    for name in g_vec:
        np.testing.assert_allclose(g_vec[name], g_mat[name], atol=1e-14)


def test_selection_columns_are_independent():
    # p_j depends on raw_s only through column j: perturbing another column
    # of the selection head must leave p_j exactly unchanged
    rng = np.random.default_rng(6)
    params = make_params(n_classes=3)
    X = rng.normal(size=(4, 6))
    base = aggregate_image_level(forward(params, X).P)
    params.w_sel[:, 1] += rng.normal(size=params.w_sel.shape[0])
    params.b_sel[1] += 0.73
    bumped = aggregate_image_level(forward(params, X).P)
    assert bumped[0] == base[0]
    assert bumped[2] == base[2]
    assert bumped[1] != base[1]


def test_forward_is_permutation_equivariant():
    rng = np.random.default_rng(7)
    params = make_params()
    X = rng.normal(size=(6, 6))
    perm = rng.permutation(6)
    sm = forward(params, X)
    sm_perm = forward(params, X[perm])
    np.testing.assert_allclose(sm_perm.P, sm.P[perm], atol=1e-12)
    np.testing.assert_allclose(
        aggregate_image_level(sm_perm.P), aggregate_image_level(sm.P), atol=1e-12
    )


def test_infer_pairs_sorted_with_deterministic_ties():
    params = make_params(n_classes=2)
    params.w_cls[:] = 0.0
    params.b_cls[:] = 0.0
    params.w_sel[:] = 0.0
    params.b_sel[:] = 0.0
    entries = ranked(params, np.ones((2, 6)))
    # all probabilities tie at 1/4: order must be (pair, class) ascending
    assert [(i, j) for i, j, _ in entries] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert entries[0][2] == pytest.approx(0.25)


def test_infer_pairs_single_entry_is_certain():
    params = make_params(n_classes=1)
    entries = ranked(params, np.random.default_rng(8).normal(size=(1, 6)))
    assert entries == [(0, 0, 1.0)]


def test_infer_pairs_top_entry_is_argmax():
    rng = np.random.default_rng(9)
    params = make_params(n_classes=5)
    X = rng.normal(size=(4, 6))
    P = forward(params, X).P
    i, j, p = ranked(params, X)[0]
    assert p == float(P.max())
    assert P[i, j] == P.max()


def test_init_is_deterministic_and_scaled():
    a = ModelParams.init(10, 16, 7, seed=123)
    b = ModelParams.init(10, 16, 7, seed=123)
    for (_, x), (_, y) in zip(a.items(), b.items()):
        np.testing.assert_array_equal(x, y)
    assert np.abs(a.w_enc).max() <= 1 / np.sqrt(10)
    assert np.abs(a.w_cls).max() <= 1 / np.sqrt(16)
    np.testing.assert_array_equal(a.b_enc, 0.0)


def test_checkpoint_roundtrip_is_bit_exact(tmp_path):
    params = make_params(seed=5)
    path = tmp_path / "params.ckpt"
    save_checkpoint(path, params, meta={"note": "test"})
    loaded, state, meta = load_checkpoint(path)
    assert state is None
    assert meta["note"] == "test"
    for (_, x), (_, y) in zip(params.items(), loaded.items()):
        np.testing.assert_array_equal(x, y)


def test_checkpoint_files_are_reproducible(tmp_path):
    params = make_params(seed=6)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, params, meta={"k": 1})
    save_checkpoint(p2, params, meta={"k": 1})
    assert p1.read_bytes() == p2.read_bytes()
