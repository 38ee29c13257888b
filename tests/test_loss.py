import math

import numpy as np
import pytest

from hoimix.loss import PROB_CLAMP, fs_loss, ws_loss
from hoimix.supervision import SupervisionTag


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
    assert report.supervision == SupervisionTag.FS
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


def test_non_binary_targets_rejected():
    with pytest.raises(ValueError):
        fs_loss(np.array([[0.5]]), np.array([[0.3]]))
    with pytest.raises(ValueError):
        ws_loss(np.array([0.5]), np.array([2.0]))


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        fs_loss(np.ones((2, 3)) * 0.5, np.zeros((3, 2)))
    with pytest.raises(ValueError):
        ws_loss(np.array([0.5, 0.5]), np.zeros(3))


def test_loss_finite_at_clamped_extremes():
    report, grad = fs_loss(np.array([[0.0, 1.0]]), np.array([[1.0, 0.0]]))
    assert np.isfinite(report.value)
    assert np.all(np.isfinite(grad))

