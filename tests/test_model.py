import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoimix.checkpoint import load_checkpoint, save_checkpoint
from hoimix.evaluation import prepare_eval_set
from hoimix.experiment import ExperimentConfig
from hoimix.model import ModelParams, backward, forward, infer_pairs
from hoimix.synth_world import generate_eval_images
from step_reference import aggregate_image_level, reference_backward, reference_forward


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


def test_forward_of_a_stack_is_the_forward_of_each_matrix():
    cfg = ExperimentConfig()
    test = generate_eval_images(cfg.world, cfg.n_test_images)
    stacks = prepare_eval_set(test, set(), feature_dim=cfg.world.feature_dim, top_k=cfg.top_k).stacks
    assert len(stacks) > 1 and max(len(features) for _, features in stacks) > 1
    for seed in range(3):
        params = ModelParams.init(cfg.world.feature_dim, cfg.hidden_dim, cfg.world.n_hoi_classes, seed)
        for _, features in stacks:
            P = forward(params, features).P
            assert P.shape == (*features.shape[:2], params.n_classes)
            for i, matrix in enumerate(features):
                assert P[i].tobytes() == forward(params, matrix).P.tobytes()


@pytest.mark.parametrize(
    "shape, message",
    [((0, 3, 6), "non-empty"), ((2, 0, 6), "non-empty"), ((0, 6), "non-empty"), ((6,), "non-empty"),
     ((2, 3, 5), "feature dim 5"), ((3, 5), "feature dim 5")],
)
def test_forward_rejects_empty_stacks_and_the_wrong_feature_dim(shape, message):
    with pytest.raises(ValueError, match=message):
        forward(make_params(), np.ones(shape))


def test_overflowing_finite_inputs_rejected():
    # every input is finite, yet the raw scores overflow to inf - inf
    params = ModelParams.init(4, 3, 2, 0)
    params.flat *= 1e160
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="non-finite"):
            forward(params, np.full((3, 4), 1e3))


# a poison value for the params or the features, or none
poison = st.sampled_from([None, np.inf, -np.inf, np.nan])


@settings(max_examples=300, deadline=None)
@given(
    k=st.sampled_from([None, 1, 3]),
    n=st.integers(1, 6),
    d=st.integers(1, 5),
    h=st.integers(1, 6),
    c=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    param_exponent=st.floats(0.0, 200.0),
    feature_exponent=st.floats(0.0, 200.0),
    param_poison=poison,
    feature_poison=poison,
)
def test_forward_rejects_exactly_the_non_finite_scores_of_the_per_head_reference(
    k, n, d, h, c, seed, param_exponent, feature_exponent, param_poison, feature_poison
):
    # magnitudes up to 1e200 overflow the products; infinities and NaN
    # reach P through every path the poison value takes
    rng = np.random.default_rng(seed)
    params = ModelParams.init(d, h, c, seed)
    params.flat[:] = rng.normal(size=params.flat.size) * 10.0**param_exponent
    X = rng.normal(size=(n, d) if k is None else (k, n, d)) * 10.0**feature_exponent
    if param_poison is not None:
        params.flat[rng.integers(params.flat.size)] = param_poison
    if feature_poison is not None:
        X.flat[rng.integers(X.size)] = feature_poison
    with np.errstate(all="ignore"):
        want = reference_forward(params, X)
        if not np.isfinite(want[-1]).all():
            with pytest.raises(ValueError, match="non-finite"):
                forward(params, X)
            return
        got = forward(params, X)
    for a, b in zip((got.hidden, got.sigma_c, got.sigma_s, got.P), want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 8),
    d=st.integers(1, 5),
    h=st.integers(1, 6),
    c=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    vector=st.booleans(),
)
def test_backward_equals_the_per_head_reference_bit_for_bit(n, d, h, c, seed, vector):
    rng = np.random.default_rng(seed)
    params = ModelParams.init(d, h, c, seed)
    params.flat[:] = rng.normal(size=params.flat.size)
    X = rng.normal(size=(n, d))
    upstream = rng.normal(size=c if vector else (n, c))
    got = backward(params, forward(params, X), upstream)
    assert got.flat.tobytes() == reference_backward(params, X, upstream).flat.tobytes()


@pytest.mark.parametrize("upstream_shape", [(2, 6, 3), (3,)])
def test_backward_rejects_the_scores_of_a_stack(upstream_shape):
    params = ModelParams.init(5, 4, 3, 0)
    scores = forward(params, np.ones((2, 6, 5)))
    with pytest.raises(ValueError, match=r"one \(N, D\) matrix, not of a stack of shape \(2, 6, 5\)"):
        backward(params, scores, np.ones(upstream_shape))


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
        g = getattr(grads, name).ravel()
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
    for name, arr in g_vec.items():
        np.testing.assert_allclose(arr, getattr(g_mat, name), atol=1e-14)


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


@pytest.mark.parametrize(
    "name, shape",
    [("w_enc", (6,)), ("b_enc", (7,)), ("w_cls", (7, 4)), ("b_cls", (1,)), ("w_sel", (7, 4)), ("b_sel", (3,))],
)
def test_constructor_rejects_shapes_that_disagree(name, shape):
    tensors = dict(make_params(feature_dim=6, hidden=8, n_classes=4).items())
    tensors[name] = np.zeros(shape)
    with pytest.raises(ValueError, match=name):
        ModelParams(**tensors)


def test_fields_are_views_into_one_flat_vector():
    params = make_params(feature_dim=3, hidden=2, n_classes=4)
    assert params.flat.dtype == np.float64
    assert params.flat.size == sum(arr.size for _, arr in params.items())
    assert [name for name, _ in params.items()] == list(ModelParams.FIELDS)
    for name, arr in params.items():
        assert getattr(params, name) is arr
        assert np.shares_memory(arr, params.flat)
    params.flat[:] = 0.5
    np.testing.assert_array_equal(params.b_sel, 0.5)
    with pytest.raises(AttributeError):
        params.w_enc = np.zeros((3, 2))


def test_copy_keeps_its_views_on_its_own_vector():
    params = make_params()
    clone = params.copy()
    assert clone.flat.tobytes() == params.flat.tobytes()
    assert not np.shares_memory(clone.flat, params.flat)
    clone.flat[:] = 0.0
    np.testing.assert_array_equal(clone.w_sel, 0.0)
    assert np.any(params.w_sel != 0.0)


def test_unpickled_params_keep_their_views_on_one_vector():
    params = make_params()
    clone = pickle.loads(pickle.dumps(params))
    assert clone.dims == params.dims
    assert clone.flat.tobytes() == params.flat.tobytes()
    for _, arr in clone.items():
        assert np.shares_memory(arr, clone.flat)
    clone.flat[:] = 0.25
    np.testing.assert_array_equal(clone.w_enc, 0.25)
    np.testing.assert_array_equal(clone.b_sel, 0.25)
    assert np.all(params.w_enc != 0.25)


def _saved_and_loaded(params, tmp_path):
    save_checkpoint(tmp_path / "params.ckpt", params, meta={})
    return load_checkpoint(tmp_path / "params.ckpt")[0]


@pytest.mark.parametrize(
    "made_by",
    [
        lambda params, _: params,
        lambda params, _: ModelParams.over(params.flat.copy(), params.dims),
        lambda params, _: params.copy(),
        lambda params, _: params.zeros_like(),
        lambda params, _: pickle.loads(pickle.dumps(params)),
        _saved_and_loaded,
    ],
    ids=["init", "over", "copy", "zeros_like", "unpickled", "load_checkpoint"],
)
def test_stacked_head_views_stay_on_the_flat_vector(made_by, tmp_path):
    params = made_by(make_params(feature_dim=3, hidden=5, n_classes=4, seed=2), tmp_path)
    assert params.w_heads.shape == (2, 5, 4) and params.b_heads.shape == (2, 1, 4)
    for heads in (params.w_heads, params.b_heads):
        assert np.shares_memory(heads, params.flat) and heads.flags.writeable
    pairs = [(params.w_heads[0], params.w_cls), (params.w_heads[1], params.w_sel),
             (params.b_heads[0, 0], params.b_cls), (params.b_heads[1, 0], params.b_sel)]
    for view, field in pairs:
        assert view.tobytes() == field.tobytes()
    # writing through the stacks writes the four head fields, and nothing else
    encoder = params.flat[: params.w_enc.size + params.b_enc.size].copy()
    params.w_heads[0], params.w_heads[1] = 1.5, -2.0
    params.b_heads[0], params.b_heads[1] = 3.0, 4.0
    for field, value in ((params.w_cls, 1.5), (params.w_sel, -2.0), (params.b_cls, 3.0), (params.b_sel, 4.0)):
        np.testing.assert_array_equal(field, value)
    assert params.flat[: encoder.size].tobytes() == encoder.tobytes()
    with pytest.raises(AttributeError, match="cannot rebind ModelParams.w_heads"):
        params.w_heads = params.w_heads.copy()
    with pytest.raises(AttributeError, match="cannot rebind ModelParams.b_heads"):
        params.b_heads = np.zeros((2, 1, 4))


def test_backward_writes_into_the_given_buffer():
    params = make_params()
    X = np.random.default_rng(10).normal(size=(4, 6))
    upstream = np.random.default_rng(11).normal(size=4)
    fresh = backward(params, forward(params, X), upstream)
    out = params.zeros_like()
    out.flat[:] = np.nan
    assert backward(params, forward(params, X), upstream, out) is out
    assert out.flat.tobytes() == fresh.flat.tobytes()


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 12),
    d=st.integers(1, 8),
    h=st.integers(1, 10),
    c=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    param_exponent=st.floats(-50.0, 50.0),
    feature_exponent=st.floats(-100.0, 100.0),
)
def test_columns_of_P_and_the_aggregate_are_bounded(n, d, h, c, seed, param_exponent, feature_exponent):
    # magnitudes up to 1e50 in the parameters and 1e100 in the features
    # keep every raw score finite, yet saturate both softmaxes
    rng = np.random.default_rng(seed)
    params = ModelParams.init(d, h, c, seed)
    params.flat[:] = rng.normal(size=params.flat.size) * 10.0**param_exponent
    X = rng.normal(size=(n, d)) * 10.0**feature_exponent
    P = forward(params, X).P
    # each column of sigma_s sums to 1 up to rounding, and sigma_c <= 1
    assert np.all(P.sum(axis=0) <= 1.0 + n * np.finfo(np.float64).eps)
    p = aggregate_image_level(P)
    assert np.all((p >= 0.0) & (p <= 1.0))
