"""Two-branch predicate predictor with analytical gradients.

A shared one-hidden-layer encoder (ReLU) feeds two linear heads. The
classification head is softmax-normalized over classes for each pair
(row-stochastic), the selection head over pairs for each class
(column-stochastic); their element-wise product is the probability matrix P.
Summing P over the pair axis yields per-class image probabilities that are
structurally bounded in [0, 1], which is what makes image-level BCE
well-defined.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(eq=False)
class ModelParams:
    """Encoder and head parameters; all tensors are float64."""

    w_enc: np.ndarray  # (feature_dim, hidden_dim)
    b_enc: np.ndarray  # (hidden_dim,)
    w_cls: np.ndarray  # (hidden_dim, n_classes) classification head
    b_cls: np.ndarray  # (n_classes,)
    w_sel: np.ndarray  # (hidden_dim, n_classes) selection head
    b_sel: np.ndarray  # (n_classes,)

    FIELDS = ("w_enc", "b_enc", "w_cls", "b_cls", "w_sel", "b_sel")

    @classmethod
    def init(cls, feature_dim: int, hidden_dim: int, n_classes: int, seed: int) -> "ModelParams":
        """Seeded init: weights uniform in [-s, s] with s = 1/sqrt(fan_in), zero biases."""
        rng = np.random.default_rng(seed)
        s_enc = 1.0 / np.sqrt(feature_dim)
        s_head = 1.0 / np.sqrt(hidden_dim)
        return cls(
            w_enc=rng.uniform(-s_enc, s_enc, size=(feature_dim, hidden_dim)),
            b_enc=np.zeros(hidden_dim),
            w_cls=rng.uniform(-s_head, s_head, size=(hidden_dim, n_classes)),
            b_cls=np.zeros(n_classes),
            w_sel=rng.uniform(-s_head, s_head, size=(hidden_dim, n_classes)),
            b_sel=np.zeros(n_classes),
        )

    @property
    def feature_dim(self) -> int:
        return self.w_enc.shape[0]

    @property
    def hidden_dim(self) -> int:
        return self.w_enc.shape[1]

    @property
    def n_classes(self) -> int:
        return self.w_cls.shape[1]

    def items(self):
        for name in self.FIELDS:
            yield name, getattr(self, name)

    def copy(self) -> "ModelParams":
        return ModelParams(**{name: arr.copy() for name, arr in self.items()})


@dataclass(eq=False)
class ScoreMatrix:
    """Forward activations: the encoder's input and output, both
    normalizations, and their element-wise product."""

    features: np.ndarray  # (N, feature_dim) float64 input
    hidden: np.ndarray   # (N, hidden_dim) ReLU encoder output
    sigma_c: np.ndarray  # (N, C), each row sums to 1
    sigma_s: np.ndarray  # (N, C), each column sums to 1
    P: np.ndarray        # (N, C), sigma_c * sigma_s


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction for stability."""
    z = np.exp(x - x.max(axis=1, keepdims=True))
    return z / z.sum(axis=1, keepdims=True)


def _softmax_cols(x: np.ndarray) -> np.ndarray:
    """Column-wise softmax with max subtraction for stability."""
    z = np.exp(x - x.max(axis=0, keepdims=True))
    return z / z.sum(axis=0, keepdims=True)


def forward(params: ModelParams, features: np.ndarray) -> ScoreMatrix:
    """Run the two-branch computation on an (N, feature_dim) matrix.

    Args:
        params: model parameters.
        features: one feature row per human-object pair, N >= 1.

    Returns:
        ScoreMatrix with row-stochastic sigma_c, column-stochastic sigma_s,
        P = sigma_c * sigma_s, and the activations backward needs.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] < 1:
        raise ValueError(f"features must be a non-empty 2-d matrix, got shape {features.shape}")
    if not np.all(np.isfinite(features)):
        raise ValueError("non-finite input features")
    if features.shape[1] != params.feature_dim:
        raise ValueError(
            f"feature dim {features.shape[1]} does not match model dim {params.feature_dim}"
        )
    hidden = np.maximum(features @ params.w_enc + params.b_enc, 0.0)
    sigma_c = _softmax_rows(hidden @ params.w_cls + params.b_cls)
    sigma_s = _softmax_cols(hidden @ params.w_sel + params.b_sel)
    return ScoreMatrix(features=features, hidden=hidden, sigma_c=sigma_c, sigma_s=sigma_s, P=sigma_c * sigma_s)


def aggregate_image_level(P: np.ndarray) -> np.ndarray:
    """Sum P over the pair axis to get per-class image probabilities.

    Each column of sigma_s sums to 1 and sigma_c <= 1, so the sum is bounded
    by 1; the clip only removes float dust at the boundary.
    """
    return np.clip(P.sum(axis=0), 0.0, 1.0)


def backward(params: ModelParams, scores: ScoreMatrix, upstream: np.ndarray) -> dict[str, np.ndarray]:
    """Exact gradients of a scalar loss with respect to every parameter.

    `scores` is what forward returned for these params; `upstream` is either
    dL/dP with shape (N, C) or dL/dp with shape (C,), where
    p = aggregate_image_level(P). The chain runs through the element-wise
    product, both softmaxes, and the encoder.
    """
    sigma_c, sigma_s, hidden = scores.sigma_c, scores.sigma_s, scores.hidden
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.ndim == 1:
        if upstream.shape[0] != sigma_c.shape[1]:
            raise ValueError("upstream vector length does not match class count")
        # p_j = sum_i P[i, j], so dL/dP[i, j] = dL/dp[j] for every row i
        d_P = np.broadcast_to(upstream, sigma_c.shape)
    elif upstream.shape == sigma_c.shape:
        d_P = upstream
    else:
        raise ValueError(
            f"upstream shape {upstream.shape} matches neither P {sigma_c.shape} nor p"
        )

    d_sigma_c = d_P * sigma_s
    d_sigma_s = d_P * sigma_c
    # softmax Jacobian applied per row (classification) and per column (selection)
    d_score_c = sigma_c * (d_sigma_c - (d_sigma_c * sigma_c).sum(axis=1, keepdims=True))
    d_score_s = sigma_s * (d_sigma_s - (d_sigma_s * sigma_s).sum(axis=0, keepdims=True))

    d_hidden = d_score_c @ params.w_cls.T + d_score_s @ params.w_sel.T
    # hidden > 0 exactly where the ReLU's input is > 0
    d_pre = d_hidden * (hidden > 0.0)
    return {
        "w_enc": scores.features.T @ d_pre,
        "b_enc": d_pre.sum(axis=0),
        "w_cls": hidden.T @ d_score_c,
        "b_cls": d_score_c.sum(axis=0),
        "w_sel": hidden.T @ d_score_s,
        "b_sel": d_score_s.sum(axis=0),
    }


def infer_pairs(
    params: ModelParams, features: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flattened view of P sorted by descending probability.

    Returns (pair index, class index, probability) arrays of length N * C.
    Ties are broken by (pair index, class index) ascending so the ranking is
    deterministic.
    """
    P = forward(params, features).P
    flat = P.ravel()
    order = np.argsort(-flat, kind="stable")
    pair_index, class_index = np.divmod(order, P.shape[1])
    return pair_index, class_index, flat[order]
