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

import math
from dataclasses import dataclass

import numpy as np


def _shapes(feature_dim: int, hidden_dim: int, n_classes: int) -> tuple[tuple[int, ...], ...]:
    """Shapes of the ModelParams.FIELDS tensors, in that order."""
    return (
        (feature_dim, hidden_dim),
        (hidden_dim,),
        (hidden_dim, n_classes),
        (n_classes,),
        (hidden_dim, n_classes),
        (n_classes,),
    )


class ModelParams:
    """Encoder and head parameters as named views into one flat float64
    vector `flat`, laid out in FIELDS order.

    The constructor copies the six tensors into a new vector and rejects
    shapes that disagree with each other; `over` wraps an existing vector
    without copying. Gradients and momentum buffers have this type too, so
    an optimizer step is one operation on `flat`. Write through the views
    (`params.w_enc[...] = x`, `params.flat -= z`); rebinding a name to
    another array would detach it from `flat` and raises AttributeError.
    """

    FIELDS = ("w_enc", "b_enc", "w_cls", "b_cls", "w_sel", "b_sel")

    def __init__(self, w_enc, b_enc, w_cls, b_cls, w_sel, b_sel) -> None:
        tensors = (w_enc, b_enc, w_cls, b_cls, w_sel, b_sel)
        enc_shape, cls_shape = np.shape(w_enc), np.shape(w_cls)
        if len(enc_shape) != 2 or len(cls_shape) != 2:
            raise ValueError(f"w_enc and w_cls must be 2-d, got shapes {enc_shape} and {cls_shape}")
        dims = (enc_shape[0], enc_shape[1], cls_shape[1])
        for name, tensor, shape in zip(self.FIELDS, tensors, _shapes(*dims)):
            if np.shape(tensor) != shape:
                raise ValueError(
                    f"{name} has shape {np.shape(tensor)}, expected {shape} "
                    f"for (feature_dim, hidden_dim, n_classes) = {dims}"
                )
        flat = np.concatenate([np.ravel(t) for t in tensors], dtype=np.float64)
        self._bind(flat, dims)

    def _bind(self, flat: np.ndarray, dims: tuple[int, int, int]) -> None:
        views, offset = {}, 0
        for name, shape in zip(self.FIELDS, _shapes(*dims)):
            size = math.prod(shape)
            views[name] = flat[offset : offset + size].reshape(shape)
            offset += size
        self.__dict__.update(flat=flat, dims=dims, **views)

    @classmethod
    def over(cls, flat: np.ndarray, dims: tuple[int, int, int]) -> "ModelParams":
        """Named views into `flat` for (feature_dim, hidden_dim, n_classes)."""
        params = cls.__new__(cls)
        params._bind(flat, dims)
        return params

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

    def __reduce__(self):
        # pickling the views one by one would unpickle them onto separate arrays
        return (ModelParams.over, (self.flat, self.dims))

    def __setattr__(self, name, value) -> None:
        # `params.flat -= z` stores the same array back; anything else would
        # detach the name from the vector
        if self.__dict__.get(name) is not value:
            raise AttributeError(f"cannot rebind ModelParams.{name}; write into its array instead")

    @property
    def feature_dim(self) -> int:
        return self.dims[0]

    @property
    def hidden_dim(self) -> int:
        return self.dims[1]

    @property
    def n_classes(self) -> int:
        return self.dims[2]

    def items(self):
        for name in self.FIELDS:
            yield name, self.__dict__[name]

    def zeros_like(self) -> "ModelParams":
        return ModelParams.over(np.zeros_like(self.flat), self.dims)

    def copy(self) -> "ModelParams":
        return ModelParams.over(self.flat.copy(), self.dims)


@dataclass(eq=False)
class ScoreMatrix:
    """Forward activations: the encoder's input and output, both
    normalizations, and their element-wise product."""

    features: np.ndarray  # (..., N, feature_dim) float64 input
    hidden: np.ndarray   # (..., N, hidden_dim) ReLU encoder output
    sigma_c: np.ndarray  # (..., N, C), each row sums to 1
    sigma_s: np.ndarray  # (..., N, C), each column sums to 1
    P: np.ndarray        # (..., N, C), sigma_c * sigma_s


def _softmax(x: np.ndarray, axis: int) -> np.ndarray:
    """Softmax along `axis` with max subtraction for stability, computed in
    the storage of x, which is returned."""
    x -= x.max(axis=axis, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=axis, keepdims=True)
    return x


def forward(params: ModelParams, features: np.ndarray) -> ScoreMatrix:
    """Run the two-branch computation on an (N, feature_dim) matrix, or on
    a (..., N, feature_dim) stack of them, each normalized on its own.

    Args:
        params: model parameters.
        features: one feature row per human-object pair, N >= 1.

    Returns:
        ScoreMatrix with row-stochastic sigma_c, column-stochastic sigma_s,
        P = sigma_c * sigma_s, and the activations backward (2-d only) needs.

    Raises ValueError when P is not finite: non-finite features or
    parameters, or finite ones whose products overflow.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim < 2 or 0 in features.shape[:-1]:
        raise ValueError(f"features must be a non-empty (..., N, D) stack, got shape {features.shape}")
    if features.shape[-1] != params.feature_dim:
        raise ValueError(
            f"feature dim {features.shape[-1]} does not match model dim {params.feature_dim}"
        )
    # each product is a new array; bias, ReLU and softmax reuse its storage
    hidden = features @ params.w_enc
    hidden += params.b_enc
    np.maximum(hidden, 0.0, out=hidden)
    raw_c = hidden @ params.w_cls
    raw_c += params.b_cls
    raw_s = hidden @ params.w_sel
    raw_s += params.b_sel
    sigma_c = _softmax(raw_c, axis=-1)
    sigma_s = _softmax(raw_s, axis=-2)
    P = sigma_c * sigma_s
    if not np.isfinite(P).all():
        raise ValueError("non-finite scores P")
    return ScoreMatrix(features=features, hidden=hidden, sigma_c=sigma_c, sigma_s=sigma_s, P=P)


def backward(
    params: ModelParams,
    scores: ScoreMatrix,
    upstream: np.ndarray,
    out: ModelParams | None = None,
) -> ModelParams:
    """Exact gradients of a scalar loss with respect to every parameter.

    `scores` is what forward returned for these params; `upstream` is either
    dL/dP with shape (N, C) or dL/dp with shape (C,), where p is the sum of
    P over pairs. The chain runs through the element-wise product, both
    softmaxes, and the encoder. A vector upstream is dL/dP of every row,
    since p_j = sum_i P[i, j]; the products below broadcast it. The
    gradients are written into `out` (same dims as params; a training run
    reuses one) or, when it is None, into a new ModelParams, which is
    returned.
    """
    sigma_c, sigma_s, hidden = scores.sigma_c, scores.sigma_s, scores.hidden
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.ndim == 1:
        if upstream.shape[0] != sigma_c.shape[1]:
            raise ValueError("upstream vector length does not match class count")
    elif upstream.shape != sigma_c.shape:
        raise ValueError(
            f"upstream shape {upstream.shape} matches neither P {sigma_c.shape} nor p"
        )

    # softmax Jacobian applied per row (classification) and per column
    # (selection), in the storage of dL/dsigma_c and dL/dsigma_s
    d_score_c = upstream * sigma_s
    d_score_c -= (d_score_c * sigma_c).sum(axis=1, keepdims=True)
    d_score_c *= sigma_c
    d_score_s = upstream * sigma_c
    d_score_s -= (d_score_s * sigma_s).sum(axis=0, keepdims=True)
    d_score_s *= sigma_s

    d_pre = d_score_c @ params.w_cls.T
    d_pre += d_score_s @ params.w_sel.T
    # hidden > 0 exactly where the ReLU's input is > 0
    d_pre *= hidden > 0.0
    grads = params.zeros_like() if out is None else out
    np.matmul(scores.features.T, d_pre, out=grads.w_enc)
    d_pre.sum(axis=0, out=grads.b_enc)
    np.matmul(hidden.T, d_score_c, out=grads.w_cls)
    d_score_c.sum(axis=0, out=grads.b_cls)
    np.matmul(hidden.T, d_score_s, out=grads.w_sel)
    d_score_s.sum(axis=0, out=grads.b_sel)
    return grads


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
