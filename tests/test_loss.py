import ast
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import hoimix.loss
from hoimix.loss import PROB_CLAMP, fs_loss, ws_loss
from step_reference import aggregate_image_level, reference_fs_loss, reference_ws_loss


def scalar_bce(y, p):
    p = min(max(p, PROB_CLAMP), 1.0 - PROB_CLAMP)
    return -(y * math.log(p) + (1 - y) * math.log(1 - p))


def scalar_fs_loss(P, Y):
    n, c = P.shape
    total = 0.0
    for j in range(c):
        for i in range(n):
            total += scalar_bce(Y[i][j], P[i][j]) / n
    return total


def scalar_ws_loss(p, y):
    return sum(scalar_bce(yj, pj) for yj, pj in zip(y, p))


def test_fs_single_entry_ln2():
    report, grad = fs_loss(np.array([[0.5]]), np.array([[1.0]]))
    assert report.value == pytest.approx(math.log(2), abs=1e-12)
    assert grad[0, 0] == pytest.approx((0.5 - 1.0) / (0.5 * 0.5), abs=1e-12)


def test_fs_perfect_prediction_is_near_zero():
    P = np.array([[1e-7, 1 - 1e-7], [1 - 1e-7, 1e-7]])
    Y = np.round(P)
    report, _ = fs_loss(P, Y)
    assert report.value == pytest.approx(0.0, abs=1e-5)


def test_fs_matches_scalar_loop_oracle():
    P = np.array([[0.9, 0.1], [0.2, 0.8]])
    Y = np.array([[1.0, 0.0], [0.0, 1.0]])
    report, _ = fs_loss(P, Y)
    assert report.value == pytest.approx(scalar_fs_loss(P, Y), abs=1e-12)


def test_fs_matches_oracle_on_random_instances():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        c = int(rng.integers(1, 6))
        P = rng.uniform(1e-4, 1 - 1e-4, size=(n, c))
        Y = (rng.random((n, c)) < 0.4).astype(float)
        report, _ = fs_loss(P, Y)
        assert report.value == pytest.approx(scalar_fs_loss(P, Y), abs=1e-12)


def test_ws_examples():
    report, _ = ws_loss(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
    assert report.value == pytest.approx(2 * math.log(2), abs=1e-12)
    report0, _ = ws_loss(np.array([0.0]), np.array([0.0]))
    assert report0.value == pytest.approx(0.0, abs=1e-5)


def test_ws_gradient_is_bce_derivative():
    _, grad = ws_loss(np.array([0.25]), np.array([1.0]))
    assert grad[0] == pytest.approx(-4.0, abs=1e-12)  # d(-ln p)/dp at 0.25


def test_ws_matches_oracle_on_random_instances():
    rng = np.random.default_rng(1)
    for _ in range(50):
        c = int(rng.integers(1, 9))
        p = rng.uniform(0, 1, size=c)
        y = (rng.random(c) < 0.5).astype(float)
        report, _ = ws_loss(p, y)
        assert report.value == pytest.approx(scalar_ws_loss(p, y), abs=1e-12)


def test_gradients_match_finite_differences_at_interior_points():
    rng = np.random.default_rng(2)
    h = 1e-7
    for _ in range(20):
        P = rng.uniform(0.1, 0.9, size=(3, 4))
        Y = (rng.random((3, 4)) < 0.5).astype(float)
        _, grad = fs_loss(P, Y)
        i, j = int(rng.integers(3)), int(rng.integers(4))
        up = P.copy()
        up[i, j] += h
        down = P.copy()
        down[i, j] -= h
        fd = (fs_loss(up, Y)[0].value - fs_loss(down, Y)[0].value) / (2 * h)
        assert grad[i, j] == pytest.approx(fd, rel=1e-6)

        p = rng.uniform(0.1, 0.9, size=5)
        y = (rng.random(5) < 0.5).astype(float)
        _, gw = ws_loss(p, y)
        k = int(rng.integers(5))
        pu, pd = p.copy(), p.copy()
        pu[k] += h
        pd[k] -= h
        fd = (ws_loss(pu, y)[0].value - ws_loss(pd, y)[0].value) / (2 * h)
        assert gw[k] == pytest.approx(fd, rel=1e-6)


def test_fs_invariant_under_row_permutation():
    rng = np.random.default_rng(3)
    P = rng.uniform(0.05, 0.95, size=(6, 3))
    Y = (rng.random((6, 3)) < 0.5).astype(float)
    perm = rng.permutation(6)
    assert fs_loss(P, Y)[0].value == pytest.approx(
        fs_loss(P[perm], Y[perm])[0].value, abs=1e-12
    )


def hoimix_imports(source: str) -> list[str]:
    """The modules of hoimix that the source imports from, relative imports
    included."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "hoimix"):
            found.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.split(".")[0] == "hoimix"]
    return found


def test_the_import_check_finds_relative_and_absolute_imports():
    source = (
        "import math\nimport hoimix.model\n"
        "from . import batching\nfrom .batching import x\nfrom hoimix import y\n"
    )
    assert hoimix_imports(source) == ["hoimix.model", ".", ".batching", "hoimix"]


def test_the_losses_import_nothing_from_hoimix():
    # the losses are array functions: only batching knows the batch format
    assert hoimix_imports(inspect.getsource(hoimix.loss)) == []


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        fs_loss(np.ones((2, 3)) * 0.5, np.zeros((3, 2)))
    with pytest.raises(ValueError):
        ws_loss(np.array([0.5, 0.5]), np.zeros(3))


def test_loss_finite_at_clamped_extremes():
    report, grad = fs_loss(np.array([[0.0, 1.0]]), np.array([[1.0, 0.0]]))
    assert np.isfinite(report.value)
    assert np.all(np.isfinite(grad))



def bits(report_and_grad):
    report, grad = report_and_grad
    return np.float64(report.value).tobytes(), grad.tobytes()


probabilities = st.one_of(
    st.floats(0.0, 1.0),
    st.sampled_from([0.0, 1.0, PROB_CLAMP, 1.0 - PROB_CLAMP, 5e-324, np.nextafter(1.0, 2.0)]),
    st.floats(-1.0, 2.0),
    st.sampled_from([np.nan, np.inf, -np.inf]),
)


@settings(max_examples=200, deadline=None)
@given(
    P=arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 5)), elements=probabilities),
    seed=st.integers(0, 2**16),
)
def test_losses_compute_the_bits_of_the_reference_formulas(P, seed):
    # the reference is the loss as first written: np.clip, then one
    # temporary per operation; the loss must round exactly like it
    rng = np.random.default_rng(seed)
    Y = (rng.random(P.shape) < 0.5).astype(float)
    p, y = P[0], Y[0]
    cases = ((fs_loss, reference_fs_loss, (P, Y)), (ws_loss, reference_ws_loss, (p, y)))
    for loss, reference, args in cases:
        value, grad = reference(*args)
        if not np.isfinite(value) or value < 0.0:
            with pytest.raises(ValueError, match="loss value"):
                loss(*args)
            continue
        report, got = loss(*args)
        assert np.float64(report.value).tobytes() == np.float64(value).tobytes()
        assert got.tobytes() == grad.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    P=arrays(
        np.float64,
        st.tuples(st.integers(1, 6), st.integers(1, 5)),
        elements=st.floats(0.0, 1.0),
    ),
    columns=st.lists(
        st.sampled_from(["as drawn", "zero", "one", "just above one"]), min_size=5, max_size=5
    ),
    ulps=st.integers(1, 8),
    seed=st.integers(0, 2**16),
)
def test_ws_loss_clamp_makes_the_aggregate_clip_redundant(P, columns, ulps, seed):
    # training passes P.sum(axis=0) to ws_loss; its clamp must give the bits
    # that clipping to [0, 1] first gave
    P = P.copy()
    for j in range(P.shape[1]):
        if columns[j] != "as drawn":
            P[:, j] = 0.0
        if columns[j] == "one":
            P[0, j] = 1.0
        elif columns[j] == "just above one":
            P[-1, j] = 1.0 + ulps * np.finfo(np.float64).eps
    y = (np.random.default_rng(seed).random(P.shape[1]) < 0.5).astype(float)
    assert bits(ws_loss(P.sum(axis=0), y)) == bits(ws_loss(aggregate_image_level(P), y))
